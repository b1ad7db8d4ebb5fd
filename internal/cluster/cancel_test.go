package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
)

// hookPlacement is least-loaded that runs hook on its at-th Place
// call: apps are placed at their first load, so the hook fires
// mid-stream on the global path.
type hookPlacement struct {
	LeastLoadedPlacement
	calls *int
	at    int
	hook  func()
}

func (p hookPlacement) Place(app Footprint, v View) int {
	if *p.calls++; *p.calls == p.at {
		p.hook()
	}
	return p.LeastLoadedPlacement.Place(app, v)
}

// failingCtx is a context whose Err turns to errTimeline once failed
// is set: an error the timeline returns that is not cancellation.
type failingCtx struct {
	context.Context
	failed atomic.Bool
}

var errTimeline = errors.New("timeline failed")

func (c *failingCtx) Err() error {
	if c.failed.Load() {
		return errTimeline
	}
	return nil
}

// TestGlobalRunStopsProducer: a global-path run stopped mid-stream —
// cancelled, or failed by a timeline error — returns that error, and
// its stream producer is gone by the time it returns, at every epoch
// count.
func TestGlobalRunStopsProducer(t *testing.T) {
	tr := testPopulation(t)
	for _, epochs := range []int{1, 2, 7, 64} {
		for _, cancelled := range []bool{true, false} {
			baseline := runtime.NumGoroutine()
			var ctx context.Context
			var stop func()
			var want error
			if cancelled {
				ctx, stop = context.WithCancel(context.Background())
				want = context.Canceled
			} else {
				fc := &failingCtx{Context: context.Background()}
				ctx, stop, want = fc, func() { fc.failed.Store(true) }, errTimeline
			}
			calls := 0
			cfg := Config{
				Nodes: 3, NodeMemMB: 600, epochs: epochs,
				Placement: hookPlacement{calls: &calls, at: len(tr.Apps) / 2, hook: stop},
			}
			_, err := runEngine(ctx, tr, policy.NewHybrid(policy.DefaultHybridConfig()), cfg)
			if !errors.Is(err, want) {
				t.Fatalf("epochs=%d: run returned %v, want %v", epochs, err, want)
			}
			if calls < len(tr.Apps)/2 {
				t.Fatalf("epochs=%d: the run stopped after %d placements, before the hook", epochs, calls)
			}
			// A goroutine that has returned may take a moment to leave
			// the count.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
				if time.Now().After(deadline) {
					t.Fatalf("epochs=%d: %d goroutines after the run, %d before", epochs, runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}
