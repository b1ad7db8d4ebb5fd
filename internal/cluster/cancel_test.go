package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
)

// hookPlacement is least-loaded that runs hook on its at-th Place
// call: apps are placed at their first load, so the hook fires
// mid-stream in a one-part run.
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

// timelineStop runs stop from inside the n-th ctx check a shard's
// timeline makes: a sharded run places every app before any timeline
// starts, so this is how its stop lands while a part's timeline runs.
type timelineStop struct {
	context.Context
	n    atomic.Int64
	stop func()
}

func (c *timelineStop) Err() error {
	if pc, _, _, ok := runtime.Caller(1); ok &&
		strings.HasSuffix(runtime.FuncForPC(pc).Name(), ".(*shard).timeline") && c.n.Add(-1) == 0 {
		c.stop()
	}
	return c.Context.Err()
}

// TestGlobalRunStopsProducer: a run stopped mid-stream — cancelled, or
// failed by a timeline error — returns that error, and its stream
// producers and walk goroutines are gone by the time it returns, at
// every epoch count. The one-part (least-loaded) run is stopped from a
// placement at an app's first load, the per-node (hash) run from its
// second timeline check.
func TestGlobalRunStopsProducer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tr := testPopulation(t)
	cases := []struct {
		place  string
		epochs []int
	}{
		{"least-loaded", []int{1, 2, 7, 64}},
		{"hash", []int{1, 7}},
	}
	for _, c := range cases {
		for _, epochs := range c.epochs {
			for _, cancelled := range []bool{true, false} {
				label := fmt.Sprintf("%s/epochs=%d/cancelled=%v", c.place, epochs, cancelled)
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
				cfg := Config{Nodes: 3, NodeMemMB: 600, epochs: epochs}
				calls := 0
				ts := &timelineStop{Context: ctx, stop: stop}
				if c.place == "hash" {
					ts.n.Store(2)
					ctx = ts
				} else {
					cfg.Placement = hookPlacement{calls: &calls, at: len(tr.Apps) / 2, hook: stop}
				}
				_, err := runEngine(ctx, tr, policy.NewHybrid(policy.DefaultHybridConfig()), cfg)
				if !errors.Is(err, want) {
					t.Fatalf("%s: run returned %v, want %v", label, err, want)
				}
				if c.place == "hash" && ts.n.Load() > 0 || c.place != "hash" && calls < len(tr.Apps)/2 {
					t.Fatalf("%s: the run stopped before the hook", label)
				}
				// A goroutine that has returned may take a moment to
				// leave the count.
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
					if time.Now().After(deadline) {
						t.Fatalf("%s: %d goroutines after the run, %d before", label, runtime.NumGoroutine(), baseline)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
	}
}
