package sim_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestWalkersOneSetPerSweep pins that a batch sweep walks every cell
// on one walker set: six cells under GOMAXPROCS 4 build 4 walk
// scratches, where a set per cell would build 24 and hold up to 16 at
// once.
func TestWalkersOneSetPerSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g, err := scenario.ParseGrid("source=gen:apps=60&days=1&seed=3&maxrate=300&maxevents=800; " +
		"policy=[fixed?ka=10m,fixed?ka=1h,hybrid,hybrid?range=2h,hybrid?arima=off,nounload]")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Scenarios()
	if err != nil || len(cells) != 6 {
		t.Fatalf("%d cells (%v), want 6", len(cells), err)
	}
	built, restore := sim.CountScratches()
	defer restore()
	if _, err := scenario.RunSweep(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n != 4 {
		t.Fatalf("a 6-cell sweep built %d walk scratches, want 4", n)
	}
}
