package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/equiv"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// refitSpecStr is the amortized-refit policy spec the refit section
// measures against the default — the same variant
// BenchmarkSimulatorHybridRefit runs.
const refitSpecStr = "hybrid?exact=off&refit=1m"

// Refit is the refit= section of the report: the measured speedup of
// the opt-in amortized ARIMA refit over §4.2's refit per invocation on
// the shared simulator benchmark, and the decision flip rate the
// speedup costs, measured by the equivalence harness over the
// benchmark population.
type Refit struct {
	BaseSpec     string  `json:"base_spec"`
	RefitSpec    string  `json:"refit_spec"`
	BaseNsPerOp  float64 `json:"base_ns_per_op"`
	RefitNsPerOp float64 `json:"refit_ns_per_op"`
	Speedup      float64 `json:"speedup"`
	Invocations  int64   `json:"invocations"`
	Flips        int64   `json:"flips"`
	FlipRate     float64 `json:"flip_rate"`
}

// refitSection builds the refit section when the run measured both
// simulator benchmarks; otherwise (narrower -bench regexp) it returns
// nil and the section is omitted. The flip rate comes from
// internal/equiv over the same population bench_test.go uses, so the
// recorded speedup and its divergence cost describe the same
// workload.
func refitSection(entries map[string]Entry) *Refit {
	base, okB := entries["BenchmarkSimulatorHybrid"]
	refit, okR := entries["BenchmarkSimulatorHybridRefit"]
	if !okB || !okR || refit.NsPerOp <= 0 {
		return nil
	}
	rs := &Refit{
		BaseSpec:     "hybrid",
		RefitSpec:    refitSpecStr,
		BaseNsPerOp:  base.NsPerOp,
		RefitNsPerOp: refit.NsPerOp,
		Speedup:      base.NsPerOp / refit.NsPerOp,
	}

	// The same workload the simulator benchmarks measure.
	pop, err := workload.Generate(workload.Config{
		Seed: 2024, NumApps: 300, Duration: 3 * 24 * time.Hour,
		MaxDailyRate: 1000, MaxEventsPerFunction: 8000,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport: refit population:", err)
		os.Exit(1)
	}
	rep := equiv.CompareTrace("bench-population", pop.Trace,
		policy.NewHybrid(policy.DefaultHybridConfig()),
		policy.MustFromSpec(refitSpecStr), sim.Options{})
	rs.Invocations = rep.Invocations
	rs.Flips = rep.Flips
	rs.FlipRate = rep.FlipRate()
	return rs
}
