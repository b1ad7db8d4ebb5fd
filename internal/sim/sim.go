// Package sim implements the paper's cold-start simulator (§5.1): it
// walks each application's invocation timestamps, applies a keep-alive
// policy, classifies every invocation as warm or cold per the Figure 9
// timelines, and aggregates wasted memory time — the time an
// application image sat in memory without executing.
//
// Following §5.1, function execution times default to zero, which
// makes the wasted-memory accounting a conservative worst case, and
// all applications are assumed to use the same amount of memory, so
// wasted memory is reported in seconds. Exec-time-aware simulation is
// available as an extension (WithExecTime).
//
// Run is the one driver: the caller's goroutine pulls apps from the
// source into a bounded channel, a set of walkers walks them, and a
// reorder buffer hands outcomes to the sinks in app order. Walkers.RunAll
// runs several policies in one pass: the source is read once, and the
// walker that takes an app walks it under every policy, computing its
// idle times once (scenario.RunSweep runs the batch cells that read
// one source this way). Each walker owns a kernel.Scratch reused
// across apps and, when passes share one set (scenario.RunSweep makes
// one set per sweep), across passes too; per-app policy state is
// recycled through policy.Releasable. So repeated runs — the Figures
// 14–19 sweeps run dozens of policy configurations — reach a steady
// state that allocates almost nothing.
package sim

import (
	"context"

	"repro/internal/policy"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// AppResult is the outcome for one application.
type AppResult struct {
	AppID       string
	Invocations int
	ColdStarts  int
	// WastedSeconds is the time the app image was loaded in memory
	// while not executing, capped at the trace horizon.
	WastedSeconds float64
	// ModeCounts tallies policy decisions by provenance (indexed by
	// policy.Mode), attributing outcomes to hybrid components.
	ModeCounts [policy.NumModes]int
}

// ColdPercent returns the app's cold-start percentage (0 when the app
// was never invoked).
func (r AppResult) ColdPercent() float64 {
	if r.Invocations == 0 {
		return 0
	}
	return 100 * float64(r.ColdStarts) / float64(r.Invocations)
}

// Result is the outcome of simulating one policy over one trace.
type Result struct {
	Policy         string
	HorizonSeconds float64
	Apps           []AppResult
}

// Simulate runs pol over tr and returns per-app outcomes in tr.Apps
// order; results are deterministic. It is Run over an in-memory trace
// with the default collector; opts are Run's (a WithSink makes it
// return nil).
func Simulate(tr *trace.Trace, pol policy.Policy, opts ...Option) *Result {
	res, _ := Run(context.Background(), trace.NewTraceSource(tr), pol, opts...)
	return res
}

// classify is the Figure 9 classification of one walked app: its
// invocation order (times), exec times (nil for the paper's default
// zero) and the decisions as run-length-encoded spans (see
// kernel.Classify for the window semantics). The first invocation is
// always cold (§5.1).
func classify(appID string, times, execs []float64, runs []policy.DecisionRun, horizon float64) AppResult {
	n := len(times)
	res := AppResult{AppID: appID, Invocations: n}
	if n == 0 {
		return res
	}

	// Classify arrivals against the previous decision and accumulate
	// wasted memory time. Mode counts and the window-to-seconds
	// conversions are per run, not per invocation.
	res.ColdStarts = 1 // the first invocation is always cold (§5.1)
	var cur kernel.RunCursor
	cur.Reset(runs)
	var prevEnd float64
	for i, t := range times {
		if i > 0 {
			warm, wasted := kernel.Classify(cur.D, cur.PwSec, cur.KaSec, prevEnd, t)
			if !warm {
				res.ColdStarts++
			}
			res.WastedSeconds += wasted
		}
		cur.Step(&res.ModeCounts)
		prevEnd = t
		if execs != nil {
			prevEnd += execs[i]
		}
	}

	// Trailing window after the last invocation, capped at horizon.
	res.WastedSeconds += kernel.TrailingWaste(cur.D, cur.PwSec, cur.KaSec, prevEnd, horizon)
	return res
}

// ColdPercents returns the per-app cold-start percentages in app
// order (apps with zero invocations excluded).
func (r *Result) ColdPercents() []float64 {
	out := make([]float64, 0, len(r.Apps))
	for _, a := range r.Apps {
		if a.Invocations > 0 {
			out = append(out, a.ColdPercent())
		}
	}
	return out
}

// TotalWastedSeconds sums wasted memory time across apps.
func (r *Result) TotalWastedSeconds() float64 {
	var sum float64
	for _, a := range r.Apps {
		sum += a.WastedSeconds
	}
	return sum
}
