package main

import (
	"testing"

	wild "repro"
)

// TestDefaultScenario pins what a bare coldsim runs: the five-policy
// §5.2 line-up over the 400-app synthetic week.
func TestDefaultScenario(t *testing.T) {
	g, err := resolveGrid(defaultScenario)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	wantPolicies := []string{"nounload", "fixed?ka=10m", "fixed?ka=1h", "fixed?ka=2h", "hybrid"}
	if len(cells) != len(wantPolicies) {
		t.Fatalf("cells = %d, want %d", len(cells), len(wantPolicies))
	}
	for i, c := range cells {
		want := wild.Scenario{
			Source: "gen:apps=400&days=7&seed=42&maxrate=2000&maxevents=20000",
			Policy: wantPolicies[i],
		}
		if c.String() != want.String() {
			t.Fatalf("cell %d = %q, want %q", i, c.String(), want.String())
		}
	}
}

// TestMissingBaselines pins the implicit-baseline injection the
// normalized wasted-memory column relies on.
func TestMissingBaselines(t *testing.T) {
	g, err := wild.ParseGrid("source=gen:apps=10; policy=[nounload,hybrid]; cluster.nodes=2; cluster.mem=[0,1024]")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	extra := missingBaselines(cells)
	if len(extra) != 2 { // one per distinct cluster.mem group
		t.Fatalf("extra baselines = %d, want 2 (%v)", len(extra), extra)
	}
	for _, sc := range extra {
		if sc.Policy != baselineSpec {
			t.Fatalf("baseline policy = %q", sc.Policy)
		}
	}
	// A sweep that already includes the baseline gets no extras.
	g2, err := wild.ParseGrid("source=gen:apps=10; policy=[fixed?ka=10m,hybrid]")
	if err != nil {
		t.Fatal(err)
	}
	cells2, err := g2.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if extra := missingBaselines(cells2); len(extra) != 0 {
		t.Fatalf("unexpected extra baselines: %v", extra)
	}
}
