package wild

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestShardedStreamingRunMergesToWhole is the streaming counterpart
// of TestEndToEndStreamingAPI's shard sum: the n interleaved shards
// of a streaming source, each run through sim.Run with incremental sinks,
// must merge to the unsharded run's aggregates — integer counters and the
// binned cold-start distribution exactly, the float waste total up to
// summation order. This is the contract multi-process scale-out
// relies on: n processes each simulate one shard and a reducer merges
// their sinks.
func TestShardedStreamingRunMergesToWhole(t *testing.T) {
	cfg := workload.Config{
		Seed: 77, NumApps: 120, Duration: 12 * time.Hour,
		MaxDailyRate: 500, MaxEventsPerFunction: 1500,
	}
	ctx := context.Background()

	runSinks := func(src trace.Source) (*metrics.ColdStartSink, *metrics.WastedMemorySink) {
		cold, wasted := metrics.NewColdStartSink(), metrics.NewWastedMemorySink()
		if _, err := sim.Run(ctx, src, policy.MustFromSpec("hybrid"), sim.WithSink(cold), sim.WithSink(wasted)); err != nil {
			t.Fatal(err)
		}
		return cold, wasted
	}

	wholeSrc, err := workload.NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wholeCold, wholeWasted := runSinks(wholeSrc)

	for _, n := range []int{2, 3, 5} {
		mergedCold, mergedWasted := metrics.NewColdStartSink(), metrics.NewWastedMemorySink()
		for i := 0; i < n; i++ {
			src, err := workload.NewSource(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold, wasted := runSinks(trace.Shard(src, i, n))
			mergedCold.Merge(cold)
			mergedWasted.Merge(wasted)
		}
		// The distribution is integer bins: every quantile read-out must
		// agree exactly with the unsharded sink.
		for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
			if g, w := mergedCold.Quantile(p), wholeCold.Quantile(p); g != w {
				t.Errorf("n=%d: Quantile(%g) merged %v, whole %v", n, p, g, w)
			}
		}
		if mergedWasted.Apps() != wholeWasted.Apps() ||
			mergedWasted.TotalInvocations() != wholeWasted.TotalInvocations() ||
			mergedWasted.TotalColdStarts() != wholeWasted.TotalColdStarts() {
			t.Errorf("n=%d: merged counters (%d apps, %d inv, %d cold) vs whole (%d, %d, %d)",
				n, mergedWasted.Apps(), mergedWasted.TotalInvocations(), mergedWasted.TotalColdStarts(),
				wholeWasted.Apps(), wholeWasted.TotalInvocations(), wholeWasted.TotalColdStarts())
		}
		g, w := mergedWasted.TotalWastedSeconds(), wholeWasted.TotalWastedSeconds()
		if math.Abs(g-w) > 1e-9*math.Abs(w) {
			t.Errorf("n=%d: merged waste %v, whole %v", n, g, w)
		}
	}

	// Cross-check the streamed whole against the batch pipeline.
	pop, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := sim.Simulate(pop.Trace, policy.MustFromSpec("hybrid"))
	if _, cold := totals(batch); wholeWasted.TotalColdStarts() != int64(cold) {
		t.Errorf("streamed cold starts %d, batch %d", wholeWasted.TotalColdStarts(), cold)
	}
	if g, w := wholeWasted.TotalWastedSeconds(), batch.TotalWastedSeconds(); math.Abs(g-w) > 1e-9*math.Abs(w) {
		t.Errorf("streamed waste %v, batch %v", g, w)
	}
}
