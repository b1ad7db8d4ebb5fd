package cluster

import (
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
)

// scriptPolicy replays a fixed per-app decision script (one Decision
// per invocation, in order), giving tests precise control over windows
// — pre-warm gaps, keep-alives, expiry alignments — that the real
// policies only produce on contrived traces.
type scriptPolicy struct {
	decisions map[string][]policy.Decision
}

func (p scriptPolicy) Name() string { return "script" }

func (p scriptPolicy) NewApp(id string) policy.AppPolicy {
	return &scriptApp{ds: p.decisions[id]}
}

type scriptApp struct {
	ds []policy.Decision
	i  int
}

func (a *scriptApp) NextWindows(idle time.Duration, first bool) policy.Decision {
	d := a.ds[a.i] // out of range = test bug: script shorter than trace
	a.i++
	return d
}

// fn builds a one-function app with the given exec time.
func fn(id string, memMB, execSeconds float64, times ...float64) *trace.App {
	return &trace.App{ID: id, MemoryMB: memMB, Functions: []*trace.Function{
		{ID: id + "-f", Invocations: times, ExecStats: trace.ExecStats{AvgSeconds: execSeconds}},
	}}
}

// TestEvictionSkipsExecutingContainer: a container mid-execution is
// never a victim, even when it is the closest to expiry — pressure
// falls through to the next-soonest idle container.
//
// Layout (node cap 250 MB, exec times on): app x (100 MB) executes
// from t=0 to t=400 under a pre-warm window that unloads at the
// execution end, so at t=100 it is the soonest-to-expire resident
// container (unloadAt 400) but is executing. App y (100 MB, idle,
// unloadAt 10010) must be evicted instead when app z (100 MB) loads.
func TestEvictionSkipsExecutingContainer(t *testing.T) {
	tr := &trace.Trace{Duration: 500 * time.Second, Apps: []*trace.App{
		fn("x", 100, 400, 0),
		fn("y", 100, 0, 10),
		fn("z", 100, 0, 100),
	}}
	pol := scriptPolicy{decisions: map[string][]policy.Decision{
		"x": {{PreWarm: 2000 * time.Second, KeepAlive: 600 * time.Second}},
		"y": {{KeepAlive: 10000 * time.Second}},
		"z": {{KeepAlive: 60 * time.Second}},
	}}
	res := Simulate(tr, pol, Config{Nodes: 1, NodeMemMB: 250, UseExecTime: true})
	x, y, z := res.Apps[0], res.Apps[1], res.Apps[2]
	if x.Evictions != 0 {
		t.Errorf("executing app x evicted %d times, want 0", x.Evictions)
	}
	if y.Evictions != 1 {
		t.Errorf("idle app y evicted %d times, want 1", y.Evictions)
	}
	// y was loaded at t=10 and reclaimed at t=100: 90 s of truncated
	// idle waste, and nothing more (its window died with the eviction).
	if y.WastedSeconds != 90 {
		t.Errorf("app y wasted %v s, want 90", y.WastedSeconds)
	}
	if z.ColdStarts != 1 || res.NodeStats[0].Evictions != 1 || res.NodeStats[0].FailedLoads != 0 {
		t.Errorf("z cold=%d node evictions=%d failedLoads=%d, want 1/1/0",
			z.ColdStarts, res.NodeStats[0].Evictions, res.NodeStats[0].FailedLoads)
	}
}

// TestEvictionRestoresAfterExecution: an executing container passed
// over by one eviction is a candidate again once its execution ends.
//
// Layout (node cap 250 MB, exec times on): app x (100 MB) executes from
// t=0 to t=400 under a plain keep-alive window (unloadAt 500), the
// soonest expiry on the node. At t=100 z's load passes x over (it is
// executing) and evicts y (unloadAt 10010). At t=450 x is idle and
// still holds the soonest expiry ahead of z (1100), so w's load must
// evict x — booking the 50 s it sat idle after its execution.
func TestEvictionRestoresAfterExecution(t *testing.T) {
	tr := &trace.Trace{Duration: 2000 * time.Second, Apps: []*trace.App{
		fn("x", 100, 400, 0),
		fn("y", 100, 0, 10),
		fn("z", 100, 0, 100),
		fn("w", 100, 0, 450),
	}}
	pol := scriptPolicy{decisions: map[string][]policy.Decision{
		"x": {{KeepAlive: 100 * time.Second}},
		"y": {{KeepAlive: 10000 * time.Second}},
		"z": {{KeepAlive: 1000 * time.Second}},
		"w": {{KeepAlive: 60 * time.Second}},
	}}
	res := Simulate(tr, pol, Config{Nodes: 1, NodeMemMB: 250, UseExecTime: true})
	x, y, z := res.Apps[0], res.Apps[1], res.Apps[2]
	if x.Evictions != 1 || y.Evictions != 1 || z.Evictions != 0 {
		t.Errorf("evictions x=%d y=%d z=%d, want 1/1/0", x.Evictions, y.Evictions, z.Evictions)
	}
	if x.WastedSeconds != 50 {
		t.Errorf("app x wasted %v s, want 50 (idle from its exec end at 400 to the eviction at 450)", x.WastedSeconds)
	}
	if ns := res.NodeStats[0]; ns.Evictions != 2 || ns.FailedLoads != 0 {
		t.Errorf("node evictions=%d failedLoads=%d, want 2/0", ns.Evictions, ns.FailedLoads)
	}
}

// TestParkedEntriesStayParked pins that executing containers are not
// re-sifted: once the first selection has parked the K executing
// containers holding the soonest expiries, each later selection before
// their executions end pops only its own victim, and the parked heap
// keeps exactly K entries.
func TestParkedEntriesStayParked(t *testing.T) {
	const k, idle = 5, 6
	s := newVictimNodes(k+idle, 1)
	nd := &s.e.nodes[0]
	for ai := int32(0); ai < k; ai++ {
		loadVictim(s, ai, 0, 1000, float64(10+ai)) // executing until 1000
	}
	for ai := int32(k); ai < k+idle; ai++ {
		loadVictim(s, ai, 0, 0, float64(100+ai))
	}
	for sel := 0; sel < idle; sel++ {
		n := len(nd.victims.ents)
		now := float64(50 + sel)
		got := s.pickVictim(nd, now)
		if want := int32(k + sel); got != want {
			t.Fatalf("selection %d: victim %d, want %d", sel, got, want)
		}
		s.evict(got, now)
		if len(nd.parked.ents) != k {
			t.Fatalf("selection %d: %d parked entries, want %d", sel, len(nd.parked.ents), k)
		}
		if sel > 0 && len(nd.victims.ents) != n-1 {
			t.Fatalf("selection %d: victim heap %d -> %d, want one pop", sel, n, len(nd.victims.ents))
		}
	}
	if got := s.pickVictim(nd, 999); got != -1 || len(nd.parked.ents) != k {
		t.Fatalf("only executing containers left: victim %d with %d parked, want -1 with %d", got, len(nd.parked.ents), k)
	}
	if got := s.pickVictim(nd, 1000); got != 0 || len(nd.parked.ents) != 0 {
		t.Fatalf("at the executions' end: victim %d with %d parked, want 0 with 0", got, len(nd.parked.ents))
	}
}

// TestEvictionAtExecEndBoundary pins the execEnd == t boundary: a
// container whose execution ends exactly at the pressuring load's time
// is idle, hence evictable — and with the soonest expiry it is chosen
// over a later-expiring idle container. An exclusive comparison
// (execEnd >= t) would evict y instead.
func TestEvictionAtExecEndBoundary(t *testing.T) {
	tr := &trace.Trace{Duration: 2000 * time.Second, Apps: []*trace.App{
		fn("x", 100, 100, 0),
		fn("y", 100, 0, 50),
		fn("z", 100, 0, 100),
	}}
	pol := scriptPolicy{decisions: map[string][]policy.Decision{
		"x": {{KeepAlive: 500 * time.Second}},  // unloads at 100+500=600
		"y": {{KeepAlive: 1000 * time.Second}}, // unloads at 50+1000=1050
		"z": {{KeepAlive: 60 * time.Second}},
	}}
	res := Simulate(tr, pol, Config{Nodes: 1, NodeMemMB: 200, UseExecTime: true})
	x, y := res.Apps[0], res.Apps[1]
	if x.Evictions != 1 || y.Evictions != 0 {
		t.Errorf("evictions x=%d y=%d, want 1/0 (x idle exactly at its exec end)", x.Evictions, y.Evictions)
	}
	// x's idle-loaded segment starts at its execution end (t=100) and
	// the eviction happens at the same instant: execution time is not
	// waste, so the truncated window books exactly zero.
	if x.WastedSeconds != 0 {
		t.Errorf("app x wasted %v s, want 0", x.WastedSeconds)
	}
}

// TestEvictionAtExpiryInstant pins the truncation algebra at the exact
// expiry tie: an invocation at t equal to the victim's unloadAt
// processes before the expiry event (expiries run last at equal
// times), so the eviction books the full keep-alive — the same waste a
// natural expiry would have booked — exactly once, and the stale
// unload event is discarded without double-booking.
func TestEvictionAtExpiryInstant(t *testing.T) {
	tr := &trace.Trace{Duration: 1000 * time.Second, Apps: []*trace.App{
		fn("x", 100, 0, 0),
		fn("y", 150, 0, 100),
	}}
	script := func() scriptPolicy {
		return scriptPolicy{decisions: map[string][]policy.Decision{
			"x": {{KeepAlive: 100 * time.Second}}, // expires exactly at y's arrival
			"y": {{KeepAlive: 50 * time.Second}},
		}}
	}
	res := Simulate(tr, script(), Config{Nodes: 1, NodeMemMB: 200})
	x := res.Apps[0]
	if x.Evictions != 1 {
		t.Fatalf("app x evictions %d, want 1 (evicted at its expiry instant)", x.Evictions)
	}
	if x.WastedSeconds != 100 {
		t.Errorf("app x wasted %v s, want exactly the 100 s keep-alive (no double booking)", x.WastedSeconds)
	}
	// The natural expiry on an unconstrained cluster books the same
	// waste: eviction at the expiry instant truncates nothing.
	inf := Simulate(tr, script(), Config{Nodes: 1, NodeMemMB: 0})
	if inf.Apps[0].Evictions != 0 {
		t.Fatalf("infinite run evicted")
	}
	if inf.Apps[0].WastedSeconds != x.WastedSeconds {
		t.Errorf("eviction-at-expiry waste %v differs from natural expiry %v",
			x.WastedSeconds, inf.Apps[0].WastedSeconds)
	}
}
