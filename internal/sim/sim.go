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
// available as an extension (Options.UseExecTime).
//
// The walk is organized for throughput: apps are scheduled
// largest-first over a work-stealing atomic counter (no channel
// handoff per app, no idle goroutines on tiny traces), each worker
// owns a scratch arena reused across apps, and per-app policy state is
// recycled through policy.Releasable, so repeated Simulate calls — the
// Figures 14–19 sweeps run dozens of policy configurations — reach a
// steady state that allocates almost nothing.
package sim

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// Options configures a simulation run.
type Options struct {
	// Workers is the number of apps simulated concurrently
	// (default: GOMAXPROCS, capped at the number of apps).
	Workers int
	// UseExecTime makes invocations occupy their function's average
	// execution time instead of 0. Idle times then measure from
	// execution end, exactly as the paper defines IT (§3.4).
	UseExecTime bool
}

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

// arena is per-worker scratch reused across apps (and, because workers
// are created per Simulate call with pooled policy state, effectively
// across Simulate calls too). It is the shared walk kernel's buffer
// set; the cluster engine owns its own.
type arena = kernel.Scratch

// Simulate runs pol over tr and returns per-app outcomes. Apps are
// independent, so they are simulated in parallel; results preserve
// tr.Apps order and are deterministic. Simulate is the batch
// entrypoint; Run is the context-cancelable, sink-feeding superset.
func Simulate(tr *trace.Trace, pol policy.Policy, opt Options) *Result {
	res, _ := simulateCtx(context.Background(), tr, pol, opt)
	return res
}

// simulateCtx is the batch engine: the work-stealing parallel walk
// over an in-memory trace, checking ctx once per work claim (one app
// or chunk, never mid-app) so cancellation costs nothing measurable.
func simulateCtx(ctx context.Context, tr *trace.Trace, pol policy.Policy, opt Options) (*Result, error) {
	n := len(tr.Apps)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		// Don't spin idle goroutines on tiny traces.
		workers = n
	}
	res := &Result{
		Policy:         pol.Name(),
		HorizonSeconds: tr.Duration.Seconds(),
		Apps:           make([]AppResult, n),
	}
	if n == 0 {
		return res, nil
	}

	// Schedule the largest apps first. App sizes in the dataset are
	// heavily skewed (§3), so a naive in-order walk can leave one huge
	// app to a single worker at the end of the run; claiming the
	// giants first bounds that tail at the size of the largest app.
	// Sizes are precomputed once: the comparator runs O(n log n) times.
	sizes := make([]int32, n)
	for i, app := range tr.Apps {
		sizes[i] = int32(app.TotalInvocations())
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		if sizes[order[a]] != sizes[order[b]] {
			return sizes[order[a]] > sizes[order[b]]
		}
		return order[a] < order[b]
	})

	runOne := func(ar *arena, idx int32) {
		res.Apps[idx] = simulateApp(ar, tr.Apps[idx], pol, res.HorizonSeconds, opt)
	}

	if workers == 1 {
		var ar arena
		for _, idx := range order {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			runOne(&ar, idx)
		}
		return res, nil
	}

	// Work stealing over an atomic cursor with tapered chunking: the
	// head of the queue holds the heavy apps (largest-first order), so
	// those are claimed one at a time — batching them would serialize
	// the very giants the sort spreads out — while claims grow toward
	// the light tail to amortize the atomic.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ar arena
			for {
				if ctx.Err() != nil {
					return
				}
				pos := next.Load()
				if pos >= int64(n) {
					return
				}
				chunk := pos / int64(4*workers)
				if chunk < 1 {
					chunk = 1
				}
				start := next.Add(chunk) - chunk
				if start >= int64(n) {
					return
				}
				end := start + chunk
				if end > int64(n) {
					end = int64(n)
				}
				for i := start; i < end; i++ {
					runOne(&ar, order[i])
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// simulateApp walks one app's invocations through the shared kernel:
// idle times, batch decisions, then the Figure 9 classification (see
// kernel.Classify for the window semantics). The first invocation is
// always cold (§5.1).
func simulateApp(ar *arena, app *trace.App, pol policy.Policy, horizon float64, opt Options) AppResult {
	// Pass 1: idle times; pass 2: decisions as run-length-encoded
	// spans (one batch call when the policy supports it).
	times, execs, runs := ar.Walk(pol, app, opt.UseExecTime)
	n := len(times)
	res := AppResult{AppID: app.ID, Invocations: n}
	if n == 0 {
		return res
	}

	// Pass 3: classify arrivals against the previous decision and
	// accumulate wasted memory time. Mode counts and the
	// window-to-seconds conversions are per run, not per invocation.
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

// AlwaysColdFraction returns the fraction of apps whose every
// invocation was cold. With excludeSingleInvocation, apps invoked only
// once — which no policy can help (§5.2, Figure 19) — are excluded
// from both numerator and denominator.
func (r *Result) AlwaysColdFraction(excludeSingleInvocation bool) float64 {
	var total, alwaysCold int
	for _, a := range r.Apps {
		if a.Invocations == 0 {
			continue
		}
		if excludeSingleInvocation && a.Invocations == 1 {
			continue
		}
		total++
		if a.ColdStarts == a.Invocations {
			alwaysCold++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(alwaysCold) / float64(total)
}
