package cluster

import (
	"strings"
	"testing"
)

// TestPlacementSpecs pins the placement registry: each registered name
// builds the placement that reports it.
func TestPlacementSpecs(t *testing.T) {
	for _, name := range PlacementNames() {
		p, err := NewPlacement(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("NewPlacement(%q).Name() = %q", name, p.Name())
		}
	}
	if got := strings.Join(PlacementNames(), ","); got != "binpack,hash,least-loaded" {
		t.Fatalf("PlacementNames() = %s", got)
	}
}

// TestPlacementSpecErrors pins unknown-name and unknown-key errors.
func TestPlacementSpecErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"spread", `unknown placement "spread"`},
		{"hash?sed=1", "unknown parameters [sed]"},
		{"hash?seed=3", "unknown parameters [seed]"},
		{"binpack?order=size", "unknown parameters [order]"},
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
