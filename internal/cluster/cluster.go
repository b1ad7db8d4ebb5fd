// Package cluster simulates the paper's keep-alive policies on a
// cluster with real capacity: a discrete-event timeline over a set of
// nodes with finite memory, pluggable placement, and memory-pressure
// eviction. It removes the per-app infinite-memory assumption the §5
// simulator inherits from the paper — there, "wasted memory" is an
// after-the-fact metric; here it is a constraint, and an evicted warm
// container turns the next invocation into a cold start the policy
// never predicted.
//
// The per-application decision walk is the shared kernel
// (internal/sim/kernel): idle times and run-length-encoded decisions
// are precomputed per app with exactly the code sim.Simulate uses,
// which is possible because a policy observes arrival gaps, not
// platform actions — an eviction changes warm/cold outcomes and
// memory accounting, never the idle-time sequence the policy sees.
// Consequently an infinite-capacity cluster is bit-identical to
// sim.Simulate, app by app (pinned by golden tests), and every
// difference a finite run shows is attributable to capacity.
//
// A run is a list of independent parts, all driven the same way
// (engine.go): a worker produces a part's decision walks, replays the
// part's invocations and container events against its own event
// queue, resident accounting and victim index (shard.go), and releases
// the walks, so only the running parts' walks are live at once. All
// cluster coupling — pressure, eviction, keep-alive expiry, pre-warm
// reloads — is per-node, so once every app's (sticky) node is known,
// each node is a part of its own: placements that never consult live
// residency (the Oblivious contract in placement.go — hash, binpack)
// are pre-assigned up front and node parts run GOMAXPROCS at a time.
// View-dependent placements (least-loaded) and cluster events
// run one part holding every node, so residency reads happen in global
// time order. Both splits are bit-identical — the split changes the
// schedule, never the arithmetic.
//
// Timeline semantics: container events (pre-warm reloads, keep-alive
// expiries) and invocations are processed in per-node time order; at
// equal times reloads run first and expiries last, matching the
// kernel's inclusive warm-window boundaries. A cold load under memory
// pressure evicts idle containers (soonest-to-expire first, never one
// mid-execution) until the app fits; when nothing evictable remains,
// the load fails and the app runs transiently with no residency for
// that window. Cold starts that an infinite-memory run would have
// served warm are attributed to eviction (AppResult.EvictionColdStarts)
// — the scenario class the paper cannot express.
//
// Timed cluster events (Config.Events) inject capacity incidents —
// node failures, drains, joins, resizes — into the timeline; see
// events.go for grammar and semantics. Containers lost to a failed or
// drained node attribute their induced cold starts separately
// (AppResult.FailureColdStarts), so the invariant extends to
// ColdStarts = policy cold starts + EvictionColdStarts +
// FailureColdStarts. Displaced apps are re-placed on surviving nodes
// (the Replacer hook, or a deterministic next-up fallback); because
// re-placement observes live cluster state, event-bearing runs always
// run as one part, and event-free runs are untouched.
package cluster

import (
	"context"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config describes the cluster being simulated.
type Config struct {
	// Nodes is the number of nodes (default 1).
	Nodes int
	// NodeMemMB is the memory capacity of each node in MB; <= 0 means
	// infinite (no eviction — the paper's implicit assumption).
	NodeMemMB float64
	// Placement assigns apps to nodes (default HashPlacement).
	Placement Placement
	// UseExecTime makes invocations occupy their function's average
	// execution time instead of 0 (§3.4 idle-time semantics). A
	// container is not evictable while executing.
	UseExecTime bool
	// Events are timed cluster incidents (node fail/drain/join/resize)
	// applied during the run; see ParseEvents for the grammar. A non-
	// empty event list creates cross-node coupling (displaced apps are
	// re-placed against live cluster state), so event-bearing runs
	// always run as one part. Event node indices must be < Nodes.
	Events []Event

	// forceGlobal runs an oblivious placement as one part holding every
	// node — the reference the equivalence property tests compare the
	// per-node split against.
	forceGlobal bool
	// epochs, when positive, fixes the number of equal-time epochs each
	// part's stream is built in, so the small test corpora cross epoch
	// boundaries (and the producer handoff) too.
	epochs int
}

// AppResult is the outcome for one application: the batch simulator's
// fields plus the cluster attribution.
type AppResult struct {
	sim.AppResult
	// Node is the hosting node, or -1 if the app never loaded.
	Node int
	// MemoryMB is the memory charged for the app (after defaulting).
	MemoryMB float64
	// Evictions counts this app's warm containers reclaimed under
	// memory pressure.
	Evictions int
	// EvictionColdStarts counts cold starts that an infinite-memory
	// cluster would have served warm: the app's window covered the
	// arrival, but the container had been evicted (or never fit). The
	// remaining ColdStarts - EvictionColdStarts - FailureColdStarts
	// are policy-induced.
	EvictionColdStarts int
	// FailureColdStarts counts cold starts a healthy cluster would
	// have served warm: the window covered the arrival, but the
	// container was lost to a node failure or drain (Config.Events).
	FailureColdStarts int
}

// NodeStats aggregates one node's run.
type NodeStats struct {
	// Evictions counts containers reclaimed on this node.
	Evictions int
	// FailedLoads counts loads abandoned because nothing evictable
	// could make room, plus in-flight executions killed by a node
	// failure (Config.Events).
	FailedLoads int
	// FailureUnloads counts containers this node lost to fail/drain
	// events (zero without Config.Events).
	FailureUnloads int
	// PeakResidentMB is the high-water resident memory.
	PeakResidentMB float64
	// ResidentMBSeconds integrates resident memory over the horizon.
	ResidentMBSeconds float64
}

// Result is the outcome of one cluster simulation.
type Result struct {
	Policy         string
	Placement      string
	Nodes          int
	NodeMemMB      float64 // 0 when infinite
	HorizonSeconds float64
	// Apps holds per-app outcomes in trace order.
	Apps []AppResult
	// NodeStats holds per-node aggregates.
	NodeStats []NodeStats
}

// Simulate runs pol over tr on the configured cluster. Invalid
// configurations (an event targeting a node outside the cluster)
// panic; Run returns them as errors instead.
func Simulate(tr *trace.Trace, pol policy.Policy, cfg Config) *Result {
	res, err := simulate(context.Background(), tr, pol, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// Run is the source-fed, cancelable entry point: src is materialized
// (the timeline needs the whole workload to order events globally —
// cluster runs are O(apps) memory, unlike sim.Run's streaming path)
// and the cluster is simulated under ctx. Per-app outcomes are in the
// Result, in trace order.
func Run(ctx context.Context, src trace.Source, pol policy.Policy, cfg Config) (*Result, error) {
	tr, err := trace.Collect(src)
	if err != nil {
		return nil, err
	}
	return simulate(ctx, tr, pol, cfg)
}

// Result helpers.

// TotalColdStarts sums cold starts across apps.
func (r *Result) TotalColdStarts() int {
	var sum int
	for _, a := range r.Apps {
		sum += a.ColdStarts
	}
	return sum
}

// TotalEvictionColdStarts sums the eviction-induced cold starts.
func (r *Result) TotalEvictionColdStarts() int {
	var sum int
	for _, a := range r.Apps {
		sum += a.EvictionColdStarts
	}
	return sum
}

// TotalEvictions sums container evictions across apps.
func (r *Result) TotalEvictions() int {
	var sum int
	for _, a := range r.Apps {
		sum += a.Evictions
	}
	return sum
}
