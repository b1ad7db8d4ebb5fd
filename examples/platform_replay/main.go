// Platform replay: boot the in-process OpenWhisk-analogue cluster in
// virtual time, replay a mid-popularity slice of a workload under the
// fixed and hybrid policies, and compare cold starts, worker memory
// and latency — the paper's §5.3 experiment in miniature.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/replay"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	// Ctrl-C cancels a replay mid-flight.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	pop, err := workload.Generate(workload.Config{
		Seed:                 11,
		NumApps:              150,
		Duration:             24 * time.Hour,
		MaxDailyRate:         400,
		MaxEventsPerFunction: 500,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The paper replays 68 mid-popularity apps for 8 hours; we replay a
	// smaller slice.
	sel := replay.SelectMidPopularity(pop.Trace, 24, 1)
	window := 2 * time.Hour

	run := func(pol policy.Policy) *replay.Report {
		rep, err := replay.Replay(ctx, platform.Config{NumInvokers: 4}, pol, sel,
			replay.Options{Limit: window, UseExecTime: true})
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	fmt.Printf("replaying %d apps for %v of trace time...\n\n", len(sel.Apps), window)
	fixed := run(policy.MustFromSpec("fixed?ka=10m"))
	hybrid := run(policy.MustFromSpec("hybrid"))

	show := func(name string, r *replay.Report) {
		var cold, inv int
		for _, a := range r.Apps {
			cold += a.ColdStarts
			inv += a.Invocations
		}
		fmt.Printf("%-18s invocations=%5d  cold=%4d (%.1f%%)  meanLat=%8v  p99Lat=%8v  workerMem=%.0f MB·s\n",
			name, inv, cold, 100*float64(cold)/float64(inv),
			r.MeanLatency.Round(time.Millisecond), r.P99Latency.Round(time.Millisecond),
			r.Cluster.MemoryMBSeconds)
	}
	show("fixed (10-min)", fixed)
	show("hybrid", hybrid)

	if fixed.Cluster.MemoryMBSeconds > 0 {
		fmt.Printf("\nworker memory reduction: %.1f%% (paper: 15.6%%)\n",
			100*(1-hybrid.Cluster.MemoryMBSeconds/fixed.Cluster.MemoryMBSeconds))
	}
	fmt.Printf("hybrid policy decision overhead: %v mean (paper: 835.7us in Scala)\n",
		hybrid.PolicyOverheadMean)
}
