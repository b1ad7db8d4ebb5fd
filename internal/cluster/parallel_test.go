package cluster

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// requireResultsEqual compares two cluster results bit-exactly: every
// per-app field (floats via Float64bits) and every per-node aggregate
// including the utilization series. This is the contract the sharded
// path must meet against the sequential global path.
func requireResultsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Policy != want.Policy || got.Placement != want.Placement ||
		got.Nodes != want.Nodes || got.NodeMemMB != want.NodeMemMB ||
		math.Float64bits(got.HorizonSeconds) != math.Float64bits(want.HorizonSeconds) {
		t.Fatalf("%s: header mismatch: got %+v want %+v", label, got, want)
	}
	if len(got.Apps) != len(want.Apps) {
		t.Fatalf("%s: %d apps, want %d", label, len(got.Apps), len(want.Apps))
	}
	mismatches := 0
	for i, w := range want.Apps {
		g := got.Apps[i]
		if g.AppID != w.AppID || g.Invocations != w.Invocations ||
			g.ColdStarts != w.ColdStarts || g.ModeCounts != w.ModeCounts ||
			math.Float64bits(g.WastedSeconds) != math.Float64bits(w.WastedSeconds) ||
			g.Node != w.Node ||
			math.Float64bits(g.MemoryMB) != math.Float64bits(w.MemoryMB) ||
			g.Evictions != w.Evictions ||
			g.EvictionColdStarts != w.EvictionColdStarts ||
			g.FailureColdStarts != w.FailureColdStarts {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("%s app %s: got %+v want %+v", label, w.AppID, g, w)
			}
		}
	}
	if mismatches > 5 {
		t.Errorf("%s: %d further app mismatches suppressed", label, mismatches-5)
	}
	if len(got.NodeStats) != len(want.NodeStats) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got.NodeStats), len(want.NodeStats))
	}
	for n, w := range want.NodeStats {
		g := got.NodeStats[n]
		if g.Evictions != w.Evictions || g.FailedLoads != w.FailedLoads ||
			g.FailureUnloads != w.FailureUnloads ||
			math.Float64bits(g.PeakResidentMB) != math.Float64bits(w.PeakResidentMB) ||
			math.Float64bits(g.ResidentMBSeconds) != math.Float64bits(w.ResidentMBSeconds) {
			t.Errorf("%s node %d: got %+v want %+v", label, n, g, w)
		}
	}
}

// mustPlacement builds a placement spec or fails the test.
func mustPlacement(t *testing.T, spec string) Placement {
	t.Helper()
	p, err := NewPlacement(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runBothPaths runs the same scenario on the sequential global
// reference path, built as one epoch, and on the sharded path at
// several worker counts, requiring bit-identical results; each of
// epochs then reruns both paths with the stream built in that many
// epochs. Placements carry per-run state (binpack's Prepare), so each
// run builds its own from the spec.
func runBothPaths(t *testing.T, label string, tr *trace.Trace, pol func() policy.Policy, cfg Config, placeSpec string, epochs ...int) *Result {
	t.Helper()
	ref := cfg
	ref.forceGlobal = true
	ref.epochs = 1
	ref.Placement = mustPlacement(t, placeSpec)
	want := Simulate(tr, pol(), ref)
	for _, workers := range []int{1, 5} {
		par := cfg
		par.Placement = mustPlacement(t, placeSpec)
		got := simulateAt(workers, tr, pol(), par)
		requireResultsEqual(t, fmt.Sprintf("%s/workers=%d", label, workers), got, want)
	}
	for _, n := range epochs {
		for _, global := range []bool{true, false} {
			run := cfg
			run.forceGlobal = global
			run.epochs = n
			run.Placement = mustPlacement(t, placeSpec)
			got := Simulate(tr, pol(), run)
			requireResultsEqual(t, fmt.Sprintf("%s/epochs=%d/global=%v", label, n, global), got, want)
		}
	}
	return want
}

// TestShardedMatchesGlobalGolden pins the tentpole contract on the
// golden scenario set (the same policies golden_test.go runs against
// the seed): for every oblivious placement and finite-memory layout,
// the per-node parallel timeline must reproduce the sequential global
// timeline bit for bit — per-app attribution, waste bits, node stats
// and utilization series included — at every worker count.
func TestShardedMatchesGlobalGolden(t *testing.T) {
	pop, err := workload.Generate(workload.Config{
		Seed: 7, NumApps: 150, Duration: 36 * time.Hour,
		MaxDailyRate: 800, MaxEventsPerFunction: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	smallHist := policy.DefaultHybridConfig()
	smallHist.Histogram.NumBins = 60
	smallHist.DisablePreWarm = true
	tinyHist := policy.DefaultHybridConfig()
	tinyHist.Histogram.NumBins = 10
	pols := []struct {
		name string
		pol  func() policy.Policy
		exec bool
	}{
		{"fixed-10m", func() policy.Policy { return policy.FixedKeepAlive{KeepAlive: 10 * time.Minute} }, false},
		{"no-unloading", func() policy.Policy { return policy.NoUnloading{} }, false},
		{"hybrid-default", func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) }, false},
		{"hybrid-exectime", func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) }, true},
		{"hybrid-1h-nopw-exectime", func() policy.Policy { return policy.NewHybrid(smallHist) }, true},
		{"hybrid-10m-range", func() policy.Policy { return policy.NewHybrid(tinyHist) }, false},
	}
	layouts := []struct {
		nodes int
		memMB float64
		place string
	}{
		{4, 900, "hash"},
		{3, 600, "hash"},
		{4, 900, "binpack"},
		{2, 1500, "binpack"},
		{5, 0, "binpack"}, // infinite: the no-pressure degenerate case
	}
	pressured := 0
	for pi, pc := range pols {
		// Rotate two layouts per policy to keep the matrix affordable.
		for off := 0; off < 2; off++ {
			ly := layouts[(pi+off)%len(layouts)]
			cfg := Config{Nodes: ly.nodes, NodeMemMB: ly.memMB, UseExecTime: pc.exec}
			res := runBothPaths(t, pc.name+"/"+ly.place, pop.Trace, pc.pol, cfg, ly.place)
			if res.TotalEvictions() > 0 {
				pressured++
			}
		}
	}
	if pressured == 0 {
		t.Fatal("no scenario showed eviction pressure; the equivalence test is vacuous — tighten the layouts")
	}
}

// TestShardedMatchesGlobalRandomized fuzzes the same contract over
// randomized finite-memory layouts: random workloads, node counts,
// capacities, oblivious placements and exec-time handling — and with
// the stream built in 1, 2, 7 and 64 epochs on both paths, which
// crosses epoch boundaries and the global path's producer handoff.
func TestShardedMatchesGlobalRandomized(t *testing.T) {
	rng := stats.NewRNG(1234)
	places := []string{"hash", "binpack"}
	caps := []float64{250, 400, 700, 1200}
	pressured := 0
	for it := 0; it < 6; it++ {
		pop, err := workload.Generate(workload.Config{
			Seed: uint64(100 + it), NumApps: 50, Duration: 24 * time.Hour,
			MaxDailyRate: 600, MaxEventsPerFunction: 2500,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes := 1 + int(rng.Float64()*5)
		memMB := caps[int(rng.Float64()*float64(len(caps)))]
		place := places[int(rng.Float64()*float64(len(places)))]
		exec := rng.Float64() < 0.5
		var pol func() policy.Policy
		if rng.Float64() < 0.5 {
			pol = func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) }
		} else {
			pol = func() policy.Policy { return policy.FixedKeepAlive{KeepAlive: 20 * time.Minute} }
		}
		cfg := Config{Nodes: nodes, NodeMemMB: memMB, UseExecTime: exec}
		res := runBothPaths(t, place, pop.Trace, pol, cfg, place, 1, 2, 7, 64)
		if res.TotalEvictions() > 0 {
			pressured++
		}
	}
	if pressured == 0 {
		t.Fatal("no randomized layout showed eviction pressure; tighten the capacity choices")
	}
}

// TestViewDependentPlacementStaysSequential: least-loaded reads live
// residency, so it must keep the global path regardless of the worker
// count — and the count must not change its results.
func TestViewDependentPlacementStaysSequential(t *testing.T) {
	pop, err := workload.Generate(workload.Config{
		Seed: 21, NumApps: 40, Duration: 12 * time.Hour,
		MaxDailyRate: 500, MaxEventsPerFunction: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Placement(LeastLoadedPlacement{}).(Oblivious); ok {
		t.Fatal("least-loaded must not advertise the oblivious contract")
	}
	pol := func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) }
	cfg := Config{Nodes: 3, NodeMemMB: 500, Placement: LeastLoadedPlacement{}}
	base := simulateAt(1, pop.Trace, pol(), cfg)
	wide := simulateAt(8, pop.Trace, pol(), cfg)
	requireResultsEqual(t, "least-loaded", wide, base)
}

// simulateAt runs Simulate on procs workers (GOMAXPROCS sizes the pool).
func simulateAt(procs int, tr *trace.Trace, pol policy.Policy, cfg Config) *Result {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return Simulate(tr, pol, cfg)
}
