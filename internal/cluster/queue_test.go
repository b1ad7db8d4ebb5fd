package cluster

import (
	"slices"
	"testing"

	"repro/internal/stats"
)

// TestEventQueueHoldsOnlyRunEvents: reloads, invocations and unloads
// are derived into the stream, so queueing one is a bug the queue
// refuses loudly.
func TestEventQueueHoldsOnlyRunEvents(t *testing.T) {
	for _, kind := range []uint8{evReload, evInvoke, evUnload} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pushing kind %d did not panic", kind)
				}
			}()
			var q eventQueue
			q.push(cevent{t: 1, kind: kind})
		}()
	}
}

// TestEventQueueOrder drives the queue through random interleaved
// pushes and pops — pushes land at, before and after the last popped
// time, with ties on time and kind — and checks it against a slice
// kept sorted by eventLess: every pop returns the earliest pending
// event, and a final drain returns everything pushed, leaving the
// queue empty for the next trial.
func TestEventQueueOrder(t *testing.T) {
	cmp := func(a, b cevent) int {
		switch {
		case eventLess(a, b):
			return -1
		case eventLess(b, a):
			return 1
		}
		return 0
	}
	rng := stats.NewRNG(42)
	var q eventQueue
	for trial := 0; trial < 20; trial++ {
		var pending []cevent
		lastPopped := 0.0
		for op := 0; op < 2000 || len(q.evs) > 0; op++ {
			if len(q.evs) != len(pending) {
				t.Fatalf("trial %d op %d: len = %d, want %d", trial, op, len(q.evs), len(pending))
			}
			if op < 2000 && (len(q.evs) == 0 || rng.Float64() < 0.55) {
				// Whole seconds near lastPopped so equal times are common;
				// app is unique per push so eventLess never ties.
				ev := cevent{
					t:    max(0, lastPopped+float64(int(rng.Float64()*40))-8),
					kind: evCluster,
					app:  int32(op),
				}
				if rng.Float64() < 0.5 {
					ev.kind = evFlush
				}
				q.push(ev)
				i, _ := slices.BinarySearchFunc(pending, ev, cmp)
				pending = slices.Insert(pending, i, ev)
				continue
			}
			got, ok := q.peek()
			if !ok {
				t.Fatalf("trial %d op %d: empty peek with %d pending", trial, op, len(q.evs))
			}
			q.pop()
			if got != pending[0] {
				t.Fatalf("trial %d op %d: popped %+v, want %+v", trial, op, got, pending[0])
			}
			pending = pending[1:]
			lastPopped = got.t
		}
		if _, ok := q.peek(); ok {
			t.Fatalf("trial %d: drained queue still peeks an event", trial)
		}
	}
}
