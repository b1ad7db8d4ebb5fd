//go:build !race

// The race detector makes sync.Pool drop puts at random, so the pool
// pin below only holds without it.

package policy

import "testing"

// TestAppPoolPerPolicy pins that each hybrid policy recycles its own
// app states: a walker that walks every app under several hybrid
// configurations in turn alternates NewApp/Release between policies
// whose histograms differ in shape, and once each has released one
// app that alternation allocates nothing. With one pool shared by
// every policy, each NewApp would take the other policy's state,
// drop it for its shape and build a fresh one.
func TestAppPoolPerPolicy(t *testing.T) {
	pols := []Policy{MustFromSpec("hybrid"), MustFromSpec("hybrid?range=2h")}
	cycle := func() {
		for _, p := range pols {
			p.NewApp("app").(Releasable).Release()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("NewApp/Release across two hybrid policies: %v allocs per cycle, want 0", allocs)
	}
}
