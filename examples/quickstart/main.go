// Quickstart: generate a calibrated workload, simulate the paper's
// hybrid histogram policy against the 10-minute fixed keep-alive
// through the streaming sim.Run API, and print the headline comparison
// (3rd-quartile cold starts and wasted memory normalized to the fixed
// baseline). Policies come from the registry's spec language; results
// flow through streaming sinks, so the same code handles traces too
// large to materialize.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	pop, err := workload.Generate(workload.Config{
		Seed:     1,
		NumApps:  300,
		Duration: 3 * 24 * time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d apps, %d functions, %d invocations over %v\n\n",
		len(pop.Trace.Apps), pop.Trace.TotalFunctions(),
		pop.Trace.TotalInvocations(), pop.Trace.Duration)

	// One streaming pass per policy: the cold-start distribution and
	// wasted-memory totals accumulate incrementally in sinks.
	run := func(spec string) (*metrics.ColdStartSink, *metrics.WastedMemorySink, string) {
		pol := policy.MustFromSpec(spec)
		cold := metrics.NewColdStartSink()
		wasted := metrics.NewWastedMemorySink()
		if _, err := sim.Run(ctx, trace.NewTraceSource(pop.Trace), pol,
			sim.WithSink(cold), sim.WithSink(wasted)); err != nil {
			log.Fatal(err)
		}
		return cold, wasted, pol.Name()
	}

	fixedCold, fixedWasted, fixedName := run("fixed?ka=10m")
	hybridCold, hybridWasted, hybridName := run("hybrid")

	fmt.Printf("%-24s  coldQ3=%6.2f%%  wastedMem=%6.1f%%\n",
		fixedName, fixedCold.ThirdQuartile(), 100.0)
	fmt.Printf("%-24s  coldQ3=%6.2f%%  wastedMem=%6.1f%%\n",
		hybridName, hybridCold.ThirdQuartile(),
		hybridWasted.NormalizedTo(fixedWasted.TotalWastedSeconds()))

	ratio := fixedCold.ThirdQuartile() / hybridCold.ThirdQuartile()
	fmt.Printf("\nthe hybrid policy cuts 3rd-quartile cold starts by %.1fx\n", ratio)
	fmt.Println("(the paper reports ~2.5x at equal memory on the production trace)")
}
