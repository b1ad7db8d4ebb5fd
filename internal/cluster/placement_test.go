package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
)

// fakeView is a placement test double; a nil down slice means every
// node is in service.
type fakeView struct {
	mbs  []float64
	down []bool
}

func (v fakeView) NumNodes() int               { return len(v.mbs) }
func (v fakeView) ResidentMB(node int) float64 { return v.mbs[node] }
func (v fakeView) Up(node int) bool            { return v.down == nil || !v.down[node] }

func TestHashPlacementDeterministicAndSpread(t *testing.T) {
	view := fakeView{mbs: make([]float64, 8)}
	counts := make([]int, 8)
	for i := 0; i < 400; i++ {
		app := Footprint{ID: fmt.Sprintf("app-%d", i)}
		n := HashPlacement{}.Place(app, view)
		if n2 := (HashPlacement{}).Place(app, view); n2 != n {
			t.Fatalf("hash placement not deterministic for %s: %d then %d", app.ID, n, n2)
		}
		counts[n]++
	}
	for n, c := range counts {
		if c == 0 {
			t.Errorf("node %d received no apps from 400 hashed placements", n)
		}
	}
}

func TestLeastLoadedPlacement(t *testing.T) {
	view := fakeView{mbs: []float64{300, 100, 100, 500}}
	// Ties resolve to the lowest index.
	if n := (LeastLoadedPlacement{}).Place(Footprint{ID: "x"}, view); n != 1 {
		t.Fatalf("placed on node %d, want 1 (least loaded, lowest index)", n)
	}
}

func TestBinPackLargestFirst(t *testing.T) {
	var p BinPackPlacement
	apps := []Footprint{
		{ID: "small-1", MemMB: 100},
		{ID: "big", MemMB: 900},
		{ID: "mid", MemMB: 600},
		{ID: "small-2", MemMB: 100},
	}
	p.Prepare(apps, 2, 1000)
	view := fakeView{mbs: make([]float64, 2)}
	// Largest-first: big(900)→node0, mid(600)→node1 (doesn't fit with
	// big), small-1(100)→node0 (fits: 900+100), small-2(100)→node1.
	want := map[string]int{"big": 0, "mid": 1, "small-1": 0, "small-2": 1}
	for id, wantNode := range want {
		if n := p.Place(Footprint{ID: id}, view); n != wantNode {
			t.Errorf("%s placed on node %d, want %d", id, n, wantNode)
		}
	}
	// Unknown apps fall back to hashing, in range.
	if n := p.Place(Footprint{ID: "unknown"}, view); n < 0 || n > 1 {
		t.Errorf("unknown app placed out of range: %d", n)
	}
}

func TestBinPackSpillsToLeastAssigned(t *testing.T) {
	var p BinPackPlacement
	apps := []Footprint{
		{ID: "a", MemMB: 800},
		{ID: "b", MemMB: 800},
		{ID: "c", MemMB: 800},
	}
	p.Prepare(apps, 2, 1000)
	view := fakeView{mbs: make([]float64, 2)}
	na, nb := p.Place(Footprint{ID: "a"}, view), p.Place(Footprint{ID: "b"}, view)
	if na == nb {
		t.Fatalf("a and b share node %d; first-fit should separate them", na)
	}
	// c fits nowhere statically; it spills to some node (deterministic).
	if n := p.Place(Footprint{ID: "c"}, view); n != p.Place(Footprint{ID: "c"}, view) {
		t.Fatal("spill placement not deterministic")
	}
}

// TestPlacementRegistry exercises the spec path used by coldsim.
func TestPlacementRegistry(t *testing.T) {
	names := PlacementNames()
	want := []string{"binpack", "hash", "least-loaded"}
	if len(names) != len(want) {
		t.Fatalf("registered %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registered %v, want %v", names, want)
		}
	}
	for _, n := range want {
		p, err := NewPlacement(n)
		if err != nil {
			t.Fatalf("NewPlacement(%s): %v", n, err)
		}
		if p.Name() != n {
			t.Errorf("placement %q reports name %q", n, p.Name())
		}
	}
	if _, err := NewPlacement("nope"); err == nil {
		t.Fatal("unknown placement accepted")
	}
}

// TestPlacementSticky: an app keeps its node across evictions and
// reloads (least-loaded would otherwise migrate on every cold start).
func TestPlacementSticky(t *testing.T) {
	appA := &trace.App{ID: "a", MemoryMB: 150, Functions: []*trace.Function{
		{ID: "fa", Invocations: []float64{0, 200, 400, 600, 800}},
	}}
	appB := &trace.App{ID: "b", MemoryMB: 150, Functions: []*trace.Function{
		{ID: "fb", Invocations: []float64{100, 300, 500, 700}},
	}}
	tr := &trace.Trace{Duration: 1000 * time.Second, Apps: []*trace.App{appA, appB}}
	res := Simulate(tr, policy.FixedKeepAlive{KeepAlive: 600 * time.Second},
		Config{Nodes: 1, NodeMemMB: 200, Placement: LeastLoadedPlacement{}})
	for _, a := range res.Apps {
		if a.Node != 0 {
			t.Errorf("app %s on node %d, want 0", a.AppID, a.Node)
		}
	}
	if res.Apps[0].Evictions == 0 {
		t.Fatal("expected ping-pong evictions")
	}
}

// TestObliviousMarks pins which built-in placements advertise the
// oblivious contract (and so take the parallel per-node path).
func TestObliviousMarks(t *testing.T) {
	for _, tc := range []struct {
		place     Placement
		oblivious bool
	}{
		{HashPlacement{}, true},
		{&BinPackPlacement{}, true},
		{LeastLoadedPlacement{}, false},
	} {
		o, ok := tc.place.(Oblivious)
		got := ok && o.Oblivious()
		if got != tc.oblivious {
			t.Errorf("%s: oblivious=%v, want %v", tc.place.Name(), got, tc.oblivious)
		}
	}
}

// lyingPlacement claims obliviousness but reads live residency — the
// contract violation the pre-assignment view must catch.
type lyingPlacement struct{}

func (lyingPlacement) Name() string    { return "lying" }
func (lyingPlacement) Oblivious() bool { return true }
func (lyingPlacement) Place(app Footprint, view View) int {
	_ = view.ResidentMB(0)
	return 0
}

// TestObliviousContractEnforced: a placement that reports Oblivious()
// but consults View.ResidentMB fails loudly during pre-assignment
// instead of silently diverging on the parallel path.
func TestObliviousContractEnforced(t *testing.T) {
	tr := &trace.Trace{Duration: 100 * time.Second, Apps: []*trace.App{
		{ID: "a", MemoryMB: 64, Functions: []*trace.Function{{ID: "f", Invocations: []float64{0}}}},
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic from the static pre-assignment view")
		}
	}()
	Simulate(tr, policy.FixedKeepAlive{KeepAlive: time.Minute},
		Config{Nodes: 2, NodeMemMB: 512, Placement: lyingPlacement{}})
}

// TestEveryObliviousPlacementRunsSharded holds the oblivious contract
// registry-wide: every registered placement that reports Oblivious()
// must complete a sharded run — pre-assignment hands Place the static
// view, whose ResidentMB panics — and reproduce the global path. A
// placement registered later is covered without anyone editing a list.
func TestEveryObliviousPlacementRunsSharded(t *testing.T) {
	tr := &trace.Trace{Duration: 1000 * time.Second, Apps: []*trace.App{
		{ID: "a", MemoryMB: 150, Functions: []*trace.Function{{ID: "f", Invocations: []float64{0, 200, 400}}}},
		{ID: "b", MemoryMB: 150, Functions: []*trace.Function{{ID: "f", Invocations: []float64{100, 300}}}},
		{ID: "c", MemoryMB: 64, Functions: []*trace.Function{{ID: "f", Invocations: []float64{50}}}},
	}}
	pol := func() policy.Policy { return policy.FixedKeepAlive{KeepAlive: 600 * time.Second} }
	ran := 0
	for _, name := range PlacementNames() {
		if o, ok := mustPlacement(t, name).(Oblivious); !ok || !o.Oblivious() {
			continue
		}
		ran++
		res := runBothPaths(t, name, tr, pol, Config{Nodes: 2, NodeMemMB: 200}, name)
		if len(res.Apps) != 3 || res.TotalColdStarts() < 3 {
			t.Errorf("%s: %d apps, %d cold starts; want 3 apps, each cold at least once", name, len(res.Apps), res.TotalColdStarts())
		}
	}
	if ran < 2 {
		t.Fatalf("only %d oblivious placements registered; hash and binpack are built in", ran)
	}
}
