package wild

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/equiv"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refitSpec appends the amortized-refit parameters to a hybrid policy
// spec; non-hybrid specs have no refit and compare against themselves
// (trivially zero divergence, keeping the corpus walk uniform).
func refitSpec(spec string) string {
	if !strings.HasPrefix(spec, "hybrid") {
		return spec
	}
	if strings.Contains(spec, "?") {
		return spec + "&exact=off&refit=1m"
	}
	return spec + "?exact=off&refit=1m"
}

// refitHybrid returns the refit=1m twin of a hybrid config, the
// variant the benchmarks use.
func refitHybrid(cfg policy.HybridConfig) policy.Policy {
	cfg.RefitInterval = time.Minute
	return policy.NewHybrid(cfg)
}

// TestRefitEquivGolden is the CI contract for refit= over the golden
// scenario corpus: for every hybrid golden scenario, the refit=1m twin
// must stay within the default tolerances — decision flip rate at most
// 1%, cold-start percentile movement at most half a point, normalized
// waste within a point of the per-invocation refit's.
func TestRefitEquivGolden(t *testing.T) {
	pop := goldenPopulation(t)
	for _, sc := range goldenScenarios() {
		hp, ok := sc.pol.(*policy.Hybrid)
		if !ok {
			continue // fixed / no-unloading never fit a forecast
		}
		t.Run(sc.name, func(t *testing.T) {
			rep := equiv.CompareTrace(sc.name, pop.Trace, sc.pol, refitHybrid(hp.Config()), sc.exec)
			t.Logf("%s: %d/%d flips (%.4f%%), cold deltas %v, waste %.3f%%",
				sc.name, rep.Flips, rep.Invocations, rep.FlipRate()*100, rep.ColdDeltas(), rep.WastePct)
			if err := rep.Check(equiv.DefaultTolerances()); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRefitEquivIncidents runs the equivalence harness over the
// checked-in incident corpus (testdata/scenarios/*.json), comparing
// each policy with its refit=1m twin under the cluster engine:
// decision flips, metric deltas, and the cold-start attribution totals
// (policy, eviction-induced, failure-induced) must all stay within
// tolerance.
func TestRefitEquivIncidents(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("incident corpus is empty")
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			sc := readIncident(t, path)
			tr := incidentTrace(t, sc.Source)
			events, err := cluster.ParseEvents(sc.Cluster.Events)
			if err != nil {
				t.Fatal(err)
			}
			place, err := cluster.NewPlacement(sc.Cluster.Placement)
			if err != nil {
				t.Fatal(err)
			}
			cfg := cluster.Config{
				Nodes:       sc.Cluster.Nodes,
				NodeMemMB:   sc.Cluster.NodeMemMB,
				Placement:   place,
				UseExecTime: sc.ExecTime,
				Events:      events,
			}
			rep := equiv.CompareCluster(name, tr,
				policy.MustFromSpec(sc.Policy), policy.MustFromSpec(refitSpec(sc.Policy)),
				cfg, sc.ExecTime)
			t.Logf("%s: %d/%d flips, cold deltas %v, waste %.3f%%, attr base %+v refit %+v",
				name, rep.Flips, rep.Invocations, rep.ColdDeltas(), rep.WastePct, rep.AttrBase, rep.AttrVariant)
			if err := rep.Check(equiv.DefaultTolerances()); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRefitZeroMatchesPerInvocationRefit pins refit=0's semantics:
// the amortization gate never holds, so every forecast observation
// refits exactly as §4.2 mandates. The decision streams of
// exact=off&refit=0, plain exact=off (whose default refit is 0) and
// the default spec must be identical on an ARIMA-heavy trace — the
// exact key alone changes nothing.
func TestRefitZeroMatchesPerInvocationRefit(t *testing.T) {
	// Sparse app: every idle out of the 4h histogram range, driving
	// the OOB/forecast regime.
	var times []float64
	for i := 0; i < 60; i++ {
		times = append(times, float64(i)*5*3600)
	}
	tr := &trace.Trace{
		Duration: 90 * time.Hour,
		Apps:     []*trace.App{{ID: "oob", Functions: []*trace.Function{{ID: "oob-f", Invocations: times}}}},
	}
	for _, spec := range []string{"hybrid?exact=off&refit=0", "hybrid?exact=off"} {
		rep := equiv.CompareTrace(spec, tr,
			policy.NewHybrid(policy.DefaultHybridConfig()),
			policy.MustFromSpec(spec), false)
		if rep.Invocations != 60 {
			t.Fatalf("%s: compared %d invocations, want 60", spec, rep.Invocations)
		}
		if rep.Flips != 0 {
			t.Errorf("%s diverged from the default per-invocation refit: %d flips", spec, rep.Flips)
		}
	}
}

// TestRefitClusterAttributionInvariant asserts the eviction
// attribution identity under refit=: for every app, cluster cold
// starts = policy cold starts (batch sim) + eviction-induced +
// failure-induced, exactly as the incident invariant test demands of
// the default policy. An amortized refit changes which decisions are
// made, not the attribution bookkeeping.
func TestRefitClusterAttributionInvariant(t *testing.T) {
	path := filepath.Join("testdata", "scenarios", "burst-under-pressure.json")
	sc := readIncident(t, path)
	tr := incidentTrace(t, sc.Source)
	events, err := cluster.ParseEvents(sc.Cluster.Events)
	if err != nil {
		t.Fatal(err)
	}
	place, err := cluster.NewPlacement(sc.Cluster.Placement)
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.MustFromSpec(refitSpec(sc.Policy))
	got := cluster.Simulate(tr, pol, cluster.Config{
		Nodes:       sc.Cluster.Nodes,
		NodeMemMB:   sc.Cluster.NodeMemMB,
		Placement:   place,
		UseExecTime: sc.ExecTime,
		Events:      events,
	})
	want := sim.Simulate(tr, pol, sim.WithExecTime(sc.ExecTime))
	if len(got.Apps) != len(want.Apps) {
		t.Fatalf("%d cluster apps, %d sim apps", len(got.Apps), len(want.Apps))
	}
	evict := 0
	for i, w := range want.Apps {
		g := got.Apps[i]
		if g.ColdStarts != w.ColdStarts+g.EvictionColdStarts+g.FailureColdStarts {
			t.Errorf("app %s: cluster cold=%d != sim cold=%d + eviction=%d + failure=%d",
				g.AppID, g.ColdStarts, w.ColdStarts, g.EvictionColdStarts, g.FailureColdStarts)
		}
		evict += g.EvictionColdStarts
	}
	if evict == 0 {
		t.Error("pressure incident produced no eviction-induced cold starts under refit= (vacuous)")
	}
}
