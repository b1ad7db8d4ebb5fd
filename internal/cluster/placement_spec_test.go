package cluster

import (
	"strings"
	"testing"
)

// TestPlacementSpecs pins the parameterized placement registry:
// name?k=v specs mirror policy.FromSpec, bare names keep working.
func TestPlacementSpecs(t *testing.T) {
	p, err := NewPlacement("binpack?order=invocations")
	if err != nil {
		t.Fatal(err)
	}
	bp, ok := p.(*BinPackPlacement)
	if !ok || bp.Order != BinPackByInvocations {
		t.Fatalf("built %#v", p)
	}
	if p.Name() != "binpack?order=invocations" {
		t.Fatalf("name = %q", p.Name())
	}

	p, err = NewPlacement("binpack")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "binpack" {
		t.Fatalf("bare name = %q", p.Name())
	}

	p, err = NewPlacement("hash?seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if hp := p.(HashPlacement); hp.Seed != 3 {
		t.Fatalf("built %#v", p)
	}
}

// TestPlacementSpecErrors pins unknown-name and unknown-key errors.
func TestPlacementSpecErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"spread", `unknown placement "spread"`},
		{"hash?sed=1", "unknown parameters [sed]"},
		{"binpack?order=alpha", "parameter order"},
		{"least-loaded?x=1", "unknown parameters [x]"},
	}
	for _, c := range cases {
		_, err := NewPlacement(c.spec)
		if err == nil {
			t.Errorf("spec %q: no error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("spec %q: error %q missing %q", c.spec, err, c.wantSub)
		}
	}
}

// TestHashPlacementSeedChangesSpread pins that distinct seeds give
// distinct (deterministic) spreads.
func TestHashPlacementSeedChangesSpread(t *testing.T) {
	view := fakeView{mbs: make([]float64, 8)}
	diff := 0
	for i := 0; i < 64; i++ {
		app := Footprint{ID: strings.Repeat("x", i%7) + "app"}
		a := HashPlacement{}.Place(app, view)
		b := HashPlacement{Seed: 7}.Place(app, view)
		if b2 := (HashPlacement{Seed: 7}).Place(app, view); b2 != b {
			t.Fatalf("seeded placement not deterministic")
		}
		if a != b {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed 7 never changed a placement across 64 apps")
	}
}

// TestBinPackOrderInvocations pins the invocation-count sort key.
func TestBinPackOrderInvocations(t *testing.T) {
	p := &BinPackPlacement{Order: BinPackByInvocations}
	apps := []Footprint{
		{ID: "quiet-big", MemMB: 900, Invocations: 1},
		{ID: "hot-small", MemMB: 100, Invocations: 1000},
		{ID: "warm-mid", MemMB: 600, Invocations: 100},
	}
	p.Prepare(apps, 2, 1000)
	view := fakeView{mbs: make([]float64, 2)}
	// hot-small (1000 inv) packs first onto node 0, warm-mid fits with
	// it (100+600), quiet-big overflows to node 1.
	want := map[string]int{"hot-small": 0, "warm-mid": 0, "quiet-big": 1}
	for id, wantNode := range want {
		if n := p.Place(Footprint{ID: id}, view); n != wantNode {
			t.Errorf("%s placed on node %d, want %d", id, n, wantNode)
		}
	}
}
