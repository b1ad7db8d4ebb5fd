package cluster

import (
	"math"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func testPopulation(t *testing.T) *trace.Trace {
	t.Helper()
	pop, err := workload.Generate(workload.Config{
		Seed: 11, NumApps: 60, Duration: 24 * time.Hour,
		MaxDailyRate: 600, MaxEventsPerFunction: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pop.Trace
}

// appBitsEqual compares a cluster app outcome with a batch outcome
// bit-exactly (WastedSeconds via Float64bits, everything else by
// value).
func appBitsEqual(c AppResult, s sim.AppResult) bool {
	return c.AppID == s.AppID &&
		c.Invocations == s.Invocations &&
		c.ColdStarts == s.ColdStarts &&
		math.Float64bits(c.WastedSeconds) == math.Float64bits(s.WastedSeconds) &&
		c.ModeCounts == s.ModeCounts
}

// TestInfiniteCapacityMatchesSimulate is the kernel-extraction
// contract: with no memory constraint the cluster timeline must
// reproduce sim.Simulate bit for bit, app by app, regardless of node
// count or placement — the decision walk is the same code, and
// without pressure the timeline changes nothing.
func TestInfiniteCapacityMatchesSimulate(t *testing.T) {
	tr := testPopulation(t)
	pols := []struct {
		name string
		pol  func() policy.Policy
		exec bool
	}{
		{"fixed-10m", func() policy.Policy { return policy.FixedKeepAlive{KeepAlive: 10 * time.Minute} }, false},
		{"no-unloading", func() policy.Policy { return policy.NoUnloading{} }, false},
		{"hybrid", func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) }, false},
		{"hybrid-exectime", func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) }, true},
	}
	layouts := []struct {
		name  string
		nodes int
		place Placement
	}{
		{"1-node-hash", 1, HashPlacement{}},
		{"4-node-least-loaded", 4, LeastLoadedPlacement{}},
		{"4-node-binpack", 4, &BinPackPlacement{}},
	}
	for _, pc := range pols {
		want := sim.Simulate(tr, pc.pol(), sim.WithExecTime(pc.exec))
		for _, ly := range layouts {
			got := Simulate(tr, pc.pol(), Config{
				Nodes: ly.nodes, NodeMemMB: 0, Placement: ly.place, UseExecTime: pc.exec,
			})
			if len(got.Apps) != len(want.Apps) {
				t.Fatalf("%s/%s: %d apps, want %d", pc.name, ly.name, len(got.Apps), len(want.Apps))
			}
			for i := range want.Apps {
				if !appBitsEqual(got.Apps[i], want.Apps[i]) {
					t.Errorf("%s/%s app %s: cluster %+v, sim %+v",
						pc.name, ly.name, want.Apps[i].AppID, got.Apps[i], want.Apps[i])
				}
				if got.Apps[i].Evictions != 0 || got.Apps[i].EvictionColdStarts != 0 {
					t.Errorf("%s/%s app %s: evictions on an infinite cluster",
						pc.name, ly.name, want.Apps[i].AppID)
				}
			}
			for n, ns := range got.NodeStats {
				if ns.Evictions != 0 || ns.FailedLoads != 0 {
					t.Errorf("%s/%s node %d: evictions=%d failedLoads=%d on infinite capacity",
						pc.name, ly.name, n, ns.Evictions, ns.FailedLoads)
				}
			}
		}
	}
}

// TestFiniteCapacityInvariants pins the attribution algebra on a
// pressured cluster: every cold start is either one the batch
// simulator also reports (policy-induced — the decisions are
// identical by construction) or attributed to eviction, and eviction
// only ever truncates waste.
func TestFiniteCapacityInvariants(t *testing.T) {
	tr := testPopulation(t)
	pol := func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) }
	want := sim.Simulate(tr, pol())
	got := Simulate(tr, pol(), Config{Nodes: 2, NodeMemMB: 600})
	if got.TotalEvictions() == 0 {
		t.Fatal("expected memory pressure at 600 MB/node; tighten the test capacity")
	}
	for i, c := range got.Apps {
		s := want.Apps[i]
		if c.ColdStarts != s.ColdStarts+c.EvictionColdStarts+c.FailureColdStarts {
			t.Errorf("app %s: cluster cold %d != sim cold %d + eviction-induced %d + failure-induced %d",
				c.AppID, c.ColdStarts, s.ColdStarts, c.EvictionColdStarts, c.FailureColdStarts)
		}
		if c.WastedSeconds > s.WastedSeconds*(1+1e-12)+1e-9 {
			t.Errorf("app %s: cluster waste %v exceeds infinite-memory waste %v",
				c.AppID, c.WastedSeconds, s.WastedSeconds)
		}
		if c.ModeCounts != s.ModeCounts {
			t.Errorf("app %s: mode counts changed under pressure: %v vs %v",
				c.AppID, c.ModeCounts, s.ModeCounts)
		}
	}
}

// TestCapacitySweepMonotone reproduces the intuitive frontier the
// infinite-memory simulator cannot express: tighter node memory means
// more evictions and more eviction-induced cold starts; growing
// memory monotonically releases the pressure until, unconstrained,
// eviction cold starts vanish.
func TestCapacitySweepMonotone(t *testing.T) {
	tr := testPopulation(t)
	pol := func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) }
	caps := []float64{300, 600, 1200, 2400, 4800, 9600, 0} // MB per node; 0 = infinite
	prevEvCold := -1
	for i, capMB := range caps {
		res := Simulate(tr, pol(), Config{Nodes: 4, NodeMemMB: capMB})
		evCold := res.TotalEvictionColdStarts()
		if prevEvCold >= 0 && evCold > prevEvCold {
			t.Errorf("capacity %v MB: eviction cold starts rose to %d from %d at the tighter %v MB",
				capMB, evCold, prevEvCold, caps[i-1])
		}
		prevEvCold = evCold
		if capMB == 0 && evCold != 0 {
			t.Errorf("infinite capacity: %d eviction cold starts", evCold)
		}
		if i == 0 && evCold == 0 {
			t.Errorf("tightest capacity %v MB shows no pressure; tighten the sweep", capMB)
		}
	}
}

// fixedTrace builds a hand-checkable two-app trace: both 150 MB on a
// 200 MB node, so every load evicts the other app's warm container.
func pingPongTrace() *trace.Trace {
	appA := &trace.App{ID: "a", MemoryMB: 150, Functions: []*trace.Function{
		{ID: "fa", Invocations: []float64{0, 200, 400}},
	}}
	appB := &trace.App{ID: "b", MemoryMB: 150, Functions: []*trace.Function{
		{ID: "fb", Invocations: []float64{100, 300}},
	}}
	return &trace.Trace{Duration: 1000 * time.Second, Apps: []*trace.App{appA, appB}}
}

// TestEvictionPingPong walks the hand example: fixed 600 s keep-alive,
// alternating arrivals, every load evicts the other container.
func TestEvictionPingPong(t *testing.T) {
	tr := pingPongTrace()
	pol := policy.FixedKeepAlive{KeepAlive: 600 * time.Second}
	res := Simulate(tr, pol, Config{Nodes: 1, NodeMemMB: 200})

	a, b := res.Apps[0], res.Apps[1]
	// App a: all 3 arrivals cold; the two non-first ones fell in
	// nominally warm windows killed by eviction.
	if a.ColdStarts != 3 || a.EvictionColdStarts != 2 || a.Evictions != 2 {
		t.Errorf("app a: cold=%d evCold=%d evictions=%d, want 3/2/2",
			a.ColdStarts, a.EvictionColdStarts, a.Evictions)
	}
	// Waste: evicted after 100 s idle at t=100 and t=300, then the
	// trailing window from 400 runs to the 1000 s horizon.
	if a.WastedSeconds != 100+100+600 {
		t.Errorf("app a wasted %v, want 800", a.WastedSeconds)
	}
	if b.ColdStarts != 2 || b.EvictionColdStarts != 1 || b.Evictions != 2 {
		t.Errorf("app b: cold=%d evCold=%d evictions=%d, want 2/1/2",
			b.ColdStarts, b.EvictionColdStarts, b.Evictions)
	}
	// Evicted after 100 s idle at t=200 and (post-final-invocation) at
	// t=400; the died window books no trailing waste.
	if b.WastedSeconds != 100+100 {
		t.Errorf("app b wasted %v, want 200", b.WastedSeconds)
	}
	ns := res.NodeStats[0]
	if ns.Evictions != 4 {
		t.Errorf("node evictions %d, want 4", ns.Evictions)
	}
	if ns.PeakResidentMB != 150 {
		t.Errorf("peak resident %v MB, want 150 (never both containers)", ns.PeakResidentMB)
	}
	// Exactly one 150 MB container is resident from t=0 through the
	// horizon (every eviction immediately precedes the next load).
	if ns.ResidentMBSeconds != 150*1000 {
		t.Errorf("resident integral %v, want 150000", ns.ResidentMBSeconds)
	}
}

// TestAppLargerThanNode: an app that cannot fit on any node executes
// transiently — every start cold (attributed to capacity when the
// window nominally covered it), zero waste, zero residency.
func TestAppLargerThanNode(t *testing.T) {
	tr := &trace.Trace{Duration: 1000 * time.Second, Apps: []*trace.App{
		{ID: "huge", MemoryMB: 4096, Functions: []*trace.Function{
			{ID: "f", Invocations: []float64{0, 100, 900}},
		}},
	}}
	pol := policy.FixedKeepAlive{KeepAlive: 600 * time.Second}
	res := Simulate(tr, pol, Config{Nodes: 2, NodeMemMB: 512})
	a := res.Apps[0]
	// t=100 sits in the nominal [0, 600] window (capacity-induced
	// cold); t=900 is past the [100, 700] window (policy-induced).
	if a.ColdStarts != 3 || a.EvictionColdStarts != 1 {
		t.Errorf("cold=%d evCold=%d, want 3/1", a.ColdStarts, a.EvictionColdStarts)
	}
	if a.WastedSeconds != 0 {
		t.Errorf("wasted %v, want 0 (never resident)", a.WastedSeconds)
	}
	var failed int
	for _, ns := range res.NodeStats {
		failed += ns.FailedLoads
		if ns.ResidentMBSeconds != 0 || ns.PeakResidentMB != 0 {
			t.Errorf("node shows residency for an unplaceable app: %+v", ns)
		}
	}
	if failed != 3 {
		t.Errorf("failed loads %d, want 3", failed)
	}
}

// TestDefaultMemoryCharge: apps without a memory row are charged the
// paper's median so they stay visible to capacity accounting.
func TestDefaultMemoryCharge(t *testing.T) {
	tr := &trace.Trace{Duration: 600 * time.Second, Apps: []*trace.App{
		{ID: "nomem", Functions: []*trace.Function{{ID: "f", Invocations: []float64{0}}}},
	}}
	res := Simulate(tr, policy.FixedKeepAlive{KeepAlive: 60 * time.Second}, Config{Nodes: 1, NodeMemMB: 4096})
	if res.Apps[0].MemoryMB != trace.DefaultAppMemoryMB {
		t.Errorf("charged %v MB, want the %v MB default", res.Apps[0].MemoryMB, trace.DefaultAppMemoryMB)
	}
	if res.NodeStats[0].PeakResidentMB != trace.DefaultAppMemoryMB {
		t.Errorf("peak %v MB, want %v", res.NodeStats[0].PeakResidentMB, trace.DefaultAppMemoryMB)
	}
}
