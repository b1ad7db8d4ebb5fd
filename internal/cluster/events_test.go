package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pinPlacement maps app IDs to fixed nodes — the deterministic test
// double for event scenarios (view-dependent, so it always takes the
// global path, like every event-bearing run).
type pinPlacement struct {
	m map[string]int
}

func (p pinPlacement) Name() string                    { return "pin" }
func (p pinPlacement) Place(app Footprint, _ View) int { return p.m[app.ID] }

// ka builds a script that opens the same keep-alive window for every
// invocation.
func ka(seconds float64, n int) []policy.Decision {
	ds := make([]policy.Decision, n)
	for i := range ds {
		ds[i] = policy.Decision{KeepAlive: time.Duration(seconds * float64(time.Second))}
	}
	return ds
}

func TestParseEventsRoundTrip(t *testing.T) {
	in := "fail@36h:node=3; join@48h:node=3 , drain@60m:node=0,resize@72h:node=1&mem=2048"
	evs, err := ParseEvents(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{At: 36 * 3600, Kind: EventFail, Node: 3},
		{At: 48 * 3600, Kind: EventJoin, Node: 3},
		{At: 3600, Kind: EventDrain, Node: 0},
		{At: 72 * 3600, Kind: EventResize, Node: 1, MemMB: 2048},
	}
	if len(evs) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		if ev != want[i] {
			t.Errorf("event %d: %+v, want %+v", i, ev, want[i])
		}
	}
	canon := EventsString(evs)
	if wantCanon := "fail@36h:node=3,join@48h:node=3,drain@1h:node=0,resize@72h:node=1&mem=2048"; canon != wantCanon {
		t.Errorf("canonical %q, want %q", canon, wantCanon)
	}
	again, err := ParseEvents(canon)
	if err != nil {
		t.Fatal(err)
	}
	if EventsString(again) != canon {
		t.Errorf("round trip not stable: %q then %q", canon, EventsString(again))
	}

	// Bare seconds parse and render as the compact duration.
	evs, err = ParseEvents("fail@90:node=0")
	if err != nil {
		t.Fatal(err)
	}
	if evs[0].At != 90 || evs[0].String() != "fail@1m30s:node=0" {
		t.Errorf("bare seconds: %+v rendered %q", evs[0], evs[0].String())
	}

	// Empty input is nil events and an empty canonical string.
	if evs, err := ParseEvents(""); err != nil || len(evs) != 0 {
		t.Errorf("empty input: %v, %v", evs, err)
	}
	if EventsString(nil) != "" {
		t.Errorf("EventsString(nil) = %q", EventsString(nil))
	}
}

func TestParseEventsErrors(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"boom@1h:node=0", "unknown kind"},
		{"fail@1h", "missing node"},
		{"fail:node=0", "want kind@time"},
		{"fail@-5s:node=0", "non-negative"},
		{"fail@soon:node=0", "want a duration"},
		{"resize@1h:node=0", "resize needs mem"},
		{"resize@1h:node=0&mem=Inf", "finite mem"},
		{"fail@1h:node=0&mem=5", "unknown parameters"},
	} {
		if _, err := ParseEvents(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseEvents(%q) = %v, want error containing %q", tc.in, err, tc.want)
		}
	}
	// Programmatic events skip the parser: the run holds them to the
	// same rules and checks node targets against the cluster shape.
	tr := &trace.Trace{Duration: 100 * time.Second, Apps: []*trace.App{fn("a", 100, 0, 0)}}
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{At: 10, Kind: EventFail, Node: 5}, "out of range"},
		{Event{At: 10, Kind: EventFail, Node: -1}, "out of range"},
		{Event{At: math.NaN(), Kind: EventFail, Node: 0}, "non-negative finite"},
		{Event{At: -1, Kind: EventDrain, Node: 0}, "non-negative finite"},
		{Event{At: math.Inf(1), Kind: EventJoin, Node: 0}, "non-negative finite"},
		{Event{At: 10, Kind: EventKind(9), Node: 0}, "unknown kind"},
		{Event{At: 10, Kind: EventResize, Node: 0, MemMB: math.NaN()}, "finite mem"},
		{Event{At: 10, Kind: EventResize, Node: 0, MemMB: math.Inf(1)}, "finite mem"},
	} {
		_, err := simulate(t.Context(), tr, policy.FixedKeepAlive{KeepAlive: time.Minute},
			Config{Nodes: 2, Events: []Event{tc.ev}})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("event %+v: %v, want error containing %q", tc.ev, err, tc.want)
		}
	}
}

// TestFailLosesIdleContainer: an abrupt node loss books the idle
// container's truncated waste, counts a failure unload, re-places the
// app, and attributes the next nominally-warm arrival to the failure.
func TestFailLosesIdleContainer(t *testing.T) {
	tr := &trace.Trace{Duration: 2000 * time.Second, Apps: []*trace.App{fn("a", 100, 0, 0, 500)}}
	pol := scriptPolicy{decisions: map[string][]policy.Decision{"a": ka(1000, 2)}}
	res := Simulate(tr, pol, Config{
		Nodes: 2, Placement: pinPlacement{m: map[string]int{"a": 0}},
		Events: []Event{{At: 100, Kind: EventFail, Node: 0}},
	})
	a := res.Apps[0]
	if a.ColdStarts != 2 || a.FailureColdStarts != 1 || a.EvictionColdStarts != 0 || a.Evictions != 0 {
		t.Errorf("cold=%d failureCold=%d evCold=%d evictions=%d, want 2/1/0/0",
			a.ColdStarts, a.FailureColdStarts, a.EvictionColdStarts, a.Evictions)
	}
	if a.Node != 1 {
		t.Errorf("app on node %d after failover, want 1", a.Node)
	}
	// First window truncated at the failure (100 s idle), second runs
	// its full keep-alive from t=500.
	if a.WastedSeconds != 1100 {
		t.Errorf("wasted %v s, want 1100 (100 truncated + 1000 trailing)", a.WastedSeconds)
	}
	n0 := res.NodeStats[0]
	if n0.FailureUnloads != 1 || n0.FailedLoads != 0 || n0.Evictions != 0 {
		t.Errorf("node 0: failureUnloads=%d failedLoads=%d evictions=%d, want 1/0/0",
			n0.FailureUnloads, n0.FailedLoads, n0.Evictions)
	}
}

// TestFailKillsInFlightExecution: a failure during an execution counts
// as a failed load (no waste: the idle segment never started), and the
// next arrival is failure-attributed.
func TestFailKillsInFlightExecution(t *testing.T) {
	tr := &trace.Trace{Duration: 2000 * time.Second, Apps: []*trace.App{fn("a", 100, 400, 0, 500)}}
	pol := scriptPolicy{decisions: map[string][]policy.Decision{"a": ka(1000, 2)}}
	res := Simulate(tr, pol, Config{
		Nodes: 2, Placement: pinPlacement{m: map[string]int{"a": 0}}, UseExecTime: true,
		Events: []Event{{At: 100, Kind: EventFail, Node: 0}},
	})
	a := res.Apps[0]
	if a.ColdStarts != 2 || a.FailureColdStarts != 1 {
		t.Errorf("cold=%d failureCold=%d, want 2/1", a.ColdStarts, a.FailureColdStarts)
	}
	n0 := res.NodeStats[0]
	if n0.FailedLoads != 1 || n0.FailureUnloads != 1 {
		t.Errorf("node 0: failedLoads=%d failureUnloads=%d, want 1/1", n0.FailedLoads, n0.FailureUnloads)
	}
	// The killed window books nothing; the second window (exec 500-900,
	// keep-alive to 1900) books its full trailing keep-alive.
	if a.WastedSeconds != 1000 {
		t.Errorf("wasted %v s, want 1000", a.WastedSeconds)
	}
}

// TestDrainWaitsForExecution: a drain detaches the executing app
// immediately but holds the node's memory until the execution ends.
func TestDrainWaitsForExecution(t *testing.T) {
	tr := &trace.Trace{Duration: 2000 * time.Second, Apps: []*trace.App{fn("a", 100, 400, 0)}}
	pol := scriptPolicy{decisions: map[string][]policy.Decision{"a": ka(1000, 1)}}
	res := Simulate(tr, pol, Config{
		Nodes: 2, Placement: pinPlacement{m: map[string]int{"a": 0}}, UseExecTime: true,
		Events: []Event{{At: 100, Kind: EventDrain, Node: 0}},
	})
	a := res.Apps[0]
	n0 := res.NodeStats[0]
	if n0.FailureUnloads != 1 || n0.FailedLoads != 0 {
		t.Errorf("node 0: failureUnloads=%d failedLoads=%d, want 1/0", n0.FailureUnloads, n0.FailedLoads)
	}
	// Memory resident exactly while the execution runs: 100 MB × 400 s.
	if n0.ResidentMBSeconds != 100*400 {
		t.Errorf("node 0 resident %v MB·s, want %v (drain holds memory to exec end)",
			n0.ResidentMBSeconds, 100.0*400)
	}
	if a.WastedSeconds != 0 {
		t.Errorf("wasted %v s, want 0 (the idle segment never started)", a.WastedSeconds)
	}
}

// TestDrainUnloadsIdleContainer: draining an idle container unloads it
// at the drain instant with truncated waste, like an eviction but
// failure-attributed.
func TestDrainUnloadsIdleContainer(t *testing.T) {
	tr := &trace.Trace{Duration: 2000 * time.Second, Apps: []*trace.App{fn("a", 100, 0, 0, 500)}}
	pol := scriptPolicy{decisions: map[string][]policy.Decision{"a": ka(1000, 2)}}
	res := Simulate(tr, pol, Config{
		Nodes: 2, Placement: pinPlacement{m: map[string]int{"a": 0}},
		Events: []Event{{At: 100, Kind: EventDrain, Node: 0}},
	})
	a := res.Apps[0]
	if a.FailureColdStarts != 1 || a.Evictions != 0 {
		t.Errorf("failureCold=%d evictions=%d, want 1/0", a.FailureColdStarts, a.Evictions)
	}
	if res.NodeStats[0].ResidentMBSeconds != 100*100 {
		t.Errorf("node 0 resident %v MB·s, want %v", res.NodeStats[0].ResidentMBSeconds, 100.0*100)
	}
	if a.Node != 1 {
		t.Errorf("app on node %d after drain, want 1", a.Node)
	}
}

// TestDrainEmptyNode: draining a node with no residents only takes it
// out of service; every other outcome is untouched.
func TestDrainEmptyNode(t *testing.T) {
	tr := &trace.Trace{Duration: 2000 * time.Second, Apps: []*trace.App{fn("a", 100, 0, 0, 500)}}
	script := func() scriptPolicy {
		return scriptPolicy{decisions: map[string][]policy.Decision{"a": ka(1000, 2)}}
	}
	base := Simulate(tr, script(), Config{Nodes: 2, Placement: pinPlacement{m: map[string]int{"a": 0}}})
	got := Simulate(tr, script(), Config{
		Nodes: 2, Placement: pinPlacement{m: map[string]int{"a": 0}},
		Events: []Event{{At: 50, Kind: EventDrain, Node: 1}},
	})
	requireResultsEqual(t, "drain-empty", got, base)
}

// TestFailJoinSameInstant: a fail and join of the same node at the
// same timestamp apply in spec order — the containers are lost and the
// app transiently unplaced, but the node is immediately back in
// service for the next load.
func TestFailJoinSameInstant(t *testing.T) {
	tr := &trace.Trace{Duration: 2000 * time.Second, Apps: []*trace.App{fn("a", 100, 0, 0, 500)}}
	pol := scriptPolicy{decisions: map[string][]policy.Decision{"a": ka(1000, 2)}}
	res := Simulate(tr, pol, Config{
		Nodes: 1, Placement: pinPlacement{m: map[string]int{"a": 0}},
		Events: []Event{
			{At: 100, Kind: EventFail, Node: 0},
			{At: 100, Kind: EventJoin, Node: 0},
		},
	})
	a := res.Apps[0]
	if a.ColdStarts != 2 || a.FailureColdStarts != 1 {
		t.Errorf("cold=%d failureCold=%d, want 2/1", a.ColdStarts, a.FailureColdStarts)
	}
	if a.Node != 0 {
		t.Errorf("app on node %d, want 0 (rejoined node accepts the reload)", a.Node)
	}
	if res.NodeStats[0].FailureUnloads != 1 {
		t.Errorf("failureUnloads=%d, want 1", res.NodeStats[0].FailureUnloads)
	}
	// The arrival at t=500 loaded successfully on the rejoined node and
	// runs its keep-alive to the horizon.
	if a.WastedSeconds != 1100 {
		t.Errorf("wasted %v s, want 1100", a.WastedSeconds)
	}
}

// TestEventAtTimeZero: an event at t=0 processes before the t=0
// invocation, so the first load already sees the node down and is
// diverted to an up node.
func TestEventAtTimeZero(t *testing.T) {
	tr := &trace.Trace{Duration: 1000 * time.Second, Apps: []*trace.App{fn("a", 100, 0, 0)}}
	pol := scriptPolicy{decisions: map[string][]policy.Decision{"a": ka(100, 1)}}
	res := Simulate(tr, pol, Config{
		Nodes: 2, Placement: pinPlacement{m: map[string]int{"a": 0}},
		Events: []Event{{At: 0, Kind: EventFail, Node: 0}},
	})
	a := res.Apps[0]
	if a.Node != 1 || a.ColdStarts != 1 || a.FailureColdStarts != 0 {
		t.Errorf("node=%d cold=%d failureCold=%d, want 1/1/0 (diverted, nothing lost)",
			a.Node, a.ColdStarts, a.FailureColdStarts)
	}
	if res.NodeStats[0].FailureUnloads != 0 || res.NodeStats[1].ResidentMBSeconds != 100*100 {
		t.Errorf("node stats %+v, want all residency on node 1", res.NodeStats)
	}
}

// TestEventAfterLastInvocation: a failure between the last arrival and
// the horizon truncates the trailing keep-alive at the event time; one
// past the horizon changes nothing at all.
func TestEventAfterLastInvocation(t *testing.T) {
	tr := &trace.Trace{Duration: 2000 * time.Second, Apps: []*trace.App{fn("a", 100, 0, 0)}}
	script := func() scriptPolicy {
		return scriptPolicy{decisions: map[string][]policy.Decision{"a": ka(1000, 1)}}
	}
	cfg := func(evs ...Event) Config {
		return Config{Nodes: 2, Placement: pinPlacement{m: map[string]int{"a": 0}}, Events: evs}
	}
	res := Simulate(tr, script(), cfg(Event{At: 500, Kind: EventFail, Node: 0}))
	a := res.Apps[0]
	if a.WastedSeconds != 500 {
		t.Errorf("wasted %v s, want 500 (trailing keep-alive truncated at the failure)", a.WastedSeconds)
	}
	if a.ColdStarts != 1 || a.FailureColdStarts != 0 {
		t.Errorf("cold=%d failureCold=%d, want 1/0 (no arrival after the failure)", a.ColdStarts, a.FailureColdStarts)
	}
	base := Simulate(tr, script(), cfg())
	past := Simulate(tr, script(), cfg(Event{At: 3000, Kind: EventFail, Node: 0}))
	requireResultsEqual(t, "event-past-horizon", past, base)
}

// TestResizeShrinkEvicts: shrinking a node below its resident set
// evicts idle containers soonest-to-expire first, with ordinary
// eviction attribution (capacity pressure, not failure).
func TestResizeShrinkEvicts(t *testing.T) {
	tr := &trace.Trace{Duration: 2000 * time.Second, Apps: []*trace.App{
		fn("x", 100, 0, 0, 500),
		fn("y", 100, 0, 10),
	}}
	pol := scriptPolicy{decisions: map[string][]policy.Decision{
		"x": ka(1000, 2),
		"y": ka(1000, 1),
	}}
	res := Simulate(tr, pol, Config{
		Nodes: 1, NodeMemMB: 250, Placement: pinPlacement{m: map[string]int{"x": 0, "y": 0}},
		Events: []Event{{At: 100, Kind: EventResize, Node: 0, MemMB: 150}},
	})
	x, y := res.Apps[0], res.Apps[1]
	// At the shrink, x (expiring at 1000) is evicted ahead of y (1010);
	// x's reload at t=500 then pressures y out of the 150 MB node —
	// both are ordinary capacity evictions, not failures.
	if x.Evictions != 1 || y.Evictions != 1 {
		t.Errorf("evictions x=%d y=%d, want 1/1", x.Evictions, y.Evictions)
	}
	if x.EvictionColdStarts != 1 || x.FailureColdStarts != 0 || y.FailureColdStarts != 0 {
		t.Errorf("x evCold=%d failureCold=%d y failureCold=%d, want 1/0/0 (resize pressure is eviction, not failure)",
			x.EvictionColdStarts, x.FailureColdStarts, y.FailureColdStarts)
	}
}

// TestResizeGrowAdmits: growing a node admits an app that could never
// fit before — and growing an initially-infinite node is a no-op until
// a later shrink makes it finite (the victim index is maintained from
// the start whenever any resize can introduce pressure).
func TestResizeGrowAdmits(t *testing.T) {
	tr := &trace.Trace{Duration: 2000 * time.Second, Apps: []*trace.App{fn("big", 200, 0, 10, 500)}}
	pol := scriptPolicy{decisions: map[string][]policy.Decision{"big": ka(100, 2)}}
	res := Simulate(tr, pol, Config{
		Nodes: 1, NodeMemMB: 150, Placement: pinPlacement{m: map[string]int{"big": 0}},
		Events: []Event{{At: 100, Kind: EventResize, Node: 0, MemMB: 400}},
	})
	a := res.Apps[0]
	n0 := res.NodeStats[0]
	if n0.FailedLoads != 1 {
		t.Errorf("failedLoads=%d, want 1 (the pre-resize load could never fit)", n0.FailedLoads)
	}
	// The t=500 load fits the grown node: 200 MB resident for its 100 s
	// keep-alive.
	if n0.ResidentMBSeconds != 200*100 {
		t.Errorf("resident %v MB·s, want %v", n0.ResidentMBSeconds, 200.0*100)
	}
	if a.ColdStarts != 2 {
		t.Errorf("cold=%d, want 2", a.ColdStarts)
	}
}

// TestResizeFiniteFromInfinite: a resize that makes an infinite node
// finite triggers pressure eviction against the resident set — which
// requires the victim index to have been maintained all along.
func TestResizeFiniteFromInfinite(t *testing.T) {
	tr := &trace.Trace{Duration: 2000 * time.Second, Apps: []*trace.App{
		fn("x", 100, 0, 0, 500),
		fn("y", 100, 0, 10),
	}}
	pol := scriptPolicy{decisions: map[string][]policy.Decision{
		"x": ka(1000, 2),
		"y": ka(1000, 1),
	}}
	res := Simulate(tr, pol, Config{
		Nodes: 1, Placement: pinPlacement{m: map[string]int{"x": 0, "y": 0}}, // infinite memory
		Events: []Event{{At: 100, Kind: EventResize, Node: 0, MemMB: 150}},
	})
	x := res.Apps[0]
	if x.Evictions != 1 || x.EvictionColdStarts != 1 {
		t.Errorf("x evictions=%d evCold=%d, want 1/1 (shrink below the resident set evicts)",
			x.Evictions, x.EvictionColdStarts)
	}
}

// replacePlacement pins initial placement and routes every
// displacement through the Replace hook.
type replacePlacement struct {
	pin   map[string]int
	to    int
	calls int
}

func (p *replacePlacement) Name() string                    { return "replace-test" }
func (p *replacePlacement) Place(app Footprint, _ View) int { return p.pin[app.ID] }
func (p *replacePlacement) Replace(app Footprint, from int, view View) int {
	p.calls++
	if !view.Up(p.to) {
		return -1
	}
	return p.to
}

// TestReplaceHook: a placement implementing Replacer chooses the
// failover node itself — the engine must consult it instead of the
// cyclic Place fallback (which would pick node 1 here).
func TestReplaceHook(t *testing.T) {
	tr := &trace.Trace{Duration: 2000 * time.Second, Apps: []*trace.App{fn("a", 100, 0, 0, 500)}}
	pol := scriptPolicy{decisions: map[string][]policy.Decision{"a": ka(1000, 2)}}
	place := &replacePlacement{pin: map[string]int{"a": 0}, to: 2}
	res := Simulate(tr, pol, Config{
		Nodes: 3, Placement: place,
		Events: []Event{{At: 100, Kind: EventFail, Node: 0}},
	})
	if place.calls != 1 {
		t.Errorf("Replace called %d times, want 1", place.calls)
	}
	if res.Apps[0].Node != 2 {
		t.Errorf("app on node %d, want 2 (the Replace hook's choice)", res.Apps[0].Node)
	}
}

// TestLeastLoadedReplace: the built-in least-loaded placement
// implements Replacer and sends displaced apps to the least-loaded
// surviving node.
func TestLeastLoadedReplace(t *testing.T) {
	if _, ok := Placement(LeastLoadedPlacement{}).(Replacer); !ok {
		t.Fatal("least-loaded must implement Replacer")
	}
	v := fakeView{mbs: []float64{100, 300, 200}, down: []bool{true, false, false}}
	if n := (LeastLoadedPlacement{}).Replace(Footprint{ID: "a"}, 0, v); n != 2 {
		t.Errorf("Replace chose node %d, want 2 (least-loaded surviving)", n)
	}
	vAllDown := fakeView{mbs: []float64{0, 0}, down: []bool{true, true}}
	if n := (LeastLoadedPlacement{}).Replace(Footprint{ID: "a"}, 0, vAllDown); n != -1 {
		t.Errorf("Replace with no survivors chose %d, want -1", n)
	}
}

// TestEventsInvariantRandomized pins the three-way attribution algebra
// under a full incident sequence on a generated workload: every cold
// start is policy-induced (the batch simulator's count), or attributed
// to eviction or failure — never double counted, never lost.
func TestEventsInvariantRandomized(t *testing.T) {
	tr := testPopulation(t)
	pol := func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) }
	want := sim.Simulate(tr, pol())
	got := Simulate(tr, pol(), Config{
		Nodes: 3, NodeMemMB: 600,
		Events: []Event{
			{At: 6 * 3600, Kind: EventFail, Node: 1},
			{At: 9 * 3600, Kind: EventJoin, Node: 1},
			{At: 12 * 3600, Kind: EventDrain, Node: 0},
			{At: 15 * 3600, Kind: EventResize, Node: 2, MemMB: 300},
			{At: 18 * 3600, Kind: EventJoin, Node: 0},
		},
	})
	var failureColds int
	for _, c := range got.Apps {
		failureColds += c.FailureColdStarts
	}
	if failureColds == 0 {
		t.Fatal("no failure-attributed cold starts; the invariant test is vacuous")
	}
	if got.TotalEvictionColdStarts() == 0 {
		t.Fatal("no eviction-attributed cold starts; tighten the capacity")
	}
	for i, c := range got.Apps {
		s := want.Apps[i]
		if c.ColdStarts != s.ColdStarts+c.EvictionColdStarts+c.FailureColdStarts {
			t.Errorf("app %s: cluster cold %d != sim cold %d + eviction %d + failure %d",
				c.AppID, c.ColdStarts, s.ColdStarts, c.EvictionColdStarts, c.FailureColdStarts)
		}
		if c.WastedSeconds > s.WastedSeconds*(1+1e-12)+1e-9 {
			t.Errorf("app %s: cluster waste %v exceeds infinite-memory waste %v",
				c.AppID, c.WastedSeconds, s.WastedSeconds)
		}
		if c.ModeCounts != s.ModeCounts {
			t.Errorf("app %s: mode counts changed under events: %v vs %v",
				c.AppID, c.ModeCounts, s.ModeCounts)
		}
	}
}

// TestEventFreeRunsUnchanged: an empty Events slice is exactly the
// absent-events configuration — the sharded fast path still runs and
// results are bit-identical.
func TestEventFreeRunsUnchanged(t *testing.T) {
	tr := testPopulation(t)
	pol := func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) }
	base := Simulate(tr, pol(), Config{Nodes: 3, NodeMemMB: 600})
	empty := Simulate(tr, pol(), Config{Nodes: 3, NodeMemMB: 600, Events: []Event{}})
	requireResultsEqual(t, "empty-events", empty, base)
}

// TestEventsOnEpochBoundaries: queued events exactly on an epoch
// boundary wait for the next epoch and merge there by kind, so every
// forced epoch count reproduces the single-epoch run bit for bit.
//
// Layout (2 nodes × 150 MB, exec times on, horizon 7200 s): app a
// (100 MB) executes 3000–3600 on node 0 when node 0 drains at 3300, so
// its memory flushes at 3600 — on the boundary of 2, 4, 8 and 64
// epochs. Node 0 rejoins at 3600, and app b's first arrival at 3600
// loads there before the flush frees a's memory: a failed load. Node 1
// fails at 5400, also a boundary, before app c's first arrival at 5400
// places it: c lands on node 0 and evicts b.
func TestEventsOnEpochBoundaries(t *testing.T) {
	tr := &trace.Trace{Duration: 7200 * time.Second, Apps: []*trace.App{
		fn("a", 100, 600, 3000, 5000),
		fn("b", 100, 0, 3600, 4000),
		fn("c", 100, 0, 5400),
	}}
	pol := scriptPolicy{decisions: map[string][]policy.Decision{
		"a": ka(10000, 2), "b": ka(10000, 2), "c": ka(10000, 1),
	}}
	run := func(epochs int) *Result {
		return Simulate(tr, pol, Config{
			Nodes: 2, NodeMemMB: 150, UseExecTime: true, epochs: epochs,
			Placement: pinPlacement{m: map[string]int{"a": 0, "b": 0, "c": 1}},
			Events: []Event{
				{At: 3300, Kind: EventDrain, Node: 0},
				{At: 3600, Kind: EventJoin, Node: 0},
				{At: 5400, Kind: EventFail, Node: 1},
			},
		})
	}
	want := run(1)
	a, b, c := want.Apps[0], want.Apps[1], want.Apps[2]
	if want.NodeStats[0].FailedLoads != 1 || a.FailureColdStarts != 1 || b.Evictions != 1 || c.Node != 0 {
		t.Fatalf("node 0 failed loads %d, a failure colds %d, b evictions %d, c on node %d; want 1/1/1/0",
			want.NodeStats[0].FailedLoads, a.FailureColdStarts, b.Evictions, c.Node)
	}
	for _, n := range []int{2, 4, 7, 8, 64} {
		requireResultsEqual(t, fmt.Sprintf("epochs=%d", n), run(n), want)
	}
}
