// Package replay drives the in-process FaaS platform with invocation
// traces, standing in for the FaaSProfiler trace replayer the paper
// uses for its OpenWhisk experiments (§5.1, §5.3). Invocations fire at
// their trace timestamps on a virtual clock, and the report aggregates
// the same quantities the paper's Figure 20 shows: per-app cold-start
// percentages plus cluster memory and latency statistics.
package replay

import (
	"context"
	"sort"
	"time"

	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options configures a replay run.
type Options struct {
	// UseExecTime runs each function for its trace average execution
	// time; otherwise executions are instantaneous.
	UseExecTime bool
	// Limit truncates the replay to the first Limit of trace time
	// (0 = whole trace); the paper's real experiments replay 8 hours.
	Limit time.Duration
}

// Report is the outcome of a replay.
type Report struct {
	// Apps holds per-app outcomes, sorted by app ID.
	Apps []platform.AppOutcome
	// Invocations is the number of invocations fired.
	Invocations int
	// Cluster aggregates invoker counters at the end of the run.
	Cluster platform.InvokerStats
	// MeanLatency and P99Latency summarize invocation latencies
	// (virtual time). The mean is exact; the p99 is the upper edge of
	// a histogram bucket, at most 6.25% above the exact sample.
	MeanLatency time.Duration
	P99Latency  time.Duration
	// PolicyOverheadMean is the mean real-time policy decision cost.
	PolicyOverheadMean time.Duration
}

// event is one scheduled invocation.
type event struct {
	t    float64 // seconds from trace start
	app  string
	fn   string
	exec time.Duration
	mem  float64
}

// Replay fires tr's invocations at a platform built from cfg and pol,
// on a virtual clock of its own (cfg.Clock is ignored) that it steps
// from this goroutine, so a replay repeats bit for bit, bar the
// real-time PolicyOverheadMean. Cancellation is checked before every
// arrival; on cancellation the in-flight invocations are drained and
// ctx.Err() is returned.
func Replay(ctx context.Context, cfg platform.Config, pol policy.Policy, tr *trace.Trace, opt Options) (*Report, error) {
	events := schedule(tr, opt)
	clock := &platform.VirtualClock{}
	cfg.Clock = clock
	p := platform.NewPlatform(cfg, pol)
	defer p.Stop()

	// The platform is this replay's own and never stopped before the
	// end, so no invocation fails.
	pending := 0
	for _, ev := range events {
		if ctx.Err() != nil {
			break
		}
		clock.RunUntil(time.Time{}.Add(time.Duration(ev.t * float64(time.Second))))
		pending++
		p.InvokeAsync(ev.app, ev.fn, ev.exec, ev.mem, func(platform.Outcome, error) { pending-- })
	}
	for pending > 0 && clock.Step() {
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{
		Apps:        p.AppOutcomes(),
		Invocations: len(events),
		Cluster:     p.ClusterStats(),
	}
	rep.MeanLatency, rep.P99Latency = p.LatencyStats()
	rep.PolicyOverheadMean, _ = p.Controller().PolicyOverhead()
	return rep, nil
}

// schedule lists the invocations Replay fires, in firing order. The
// dataset CSV's canonical timestamps give every function with the same
// count in the same minute the same times, so ties are the common
// case: they order by (app, fn), never by what the sort leaves.
func schedule(tr *trace.Trace, opt Options) []event {
	limit := tr.Duration.Seconds()
	if opt.Limit > 0 && opt.Limit.Seconds() < limit {
		limit = opt.Limit.Seconds()
	}
	var events []event
	for _, app := range tr.Apps {
		for _, fn := range app.Functions {
			var exec time.Duration
			if opt.UseExecTime {
				exec = time.Duration(fn.ExecStats.AvgSeconds * float64(time.Second))
			}
			for _, t := range fn.Invocations {
				if t > limit {
					break
				}
				events = append(events, event{t: t, app: app.ID, fn: fn.ID, exec: exec, mem: app.MemoryMB})
			}
		}
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.app != b.app {
			return a.app < b.app
		}
		return a.fn < b.fn
	})
	return events
}

// ColdPercents returns the per-app cold-start percentages of a report.
func (r *Report) ColdPercents() []float64 {
	out := make([]float64, 0, len(r.Apps))
	for _, a := range r.Apps {
		if a.Invocations > 0 {
			out = append(out, a.ColdPercent())
		}
	}
	return out
}

// SelectMidPopularity returns a copy of tr restricted to n apps of
// mid-range popularity, the paper's §5.3 selection of "68 randomly
// selected mid-range popularity applications". Their replay saw
// 12,383 invocations from 68 apps over 8 hours (~180 per app), i.e.
// inter-arrival gaps of minutes — busy enough for the policy to learn
// within the replay window, far from the always-warm top of the
// popularity range. SelectMidPopularity therefore samples n apps
// uniformly from the [0.55, 0.92] quantile band of the per-app
// invocation-count distribution. Selection is deterministic given
// seed.
func SelectMidPopularity(tr *trace.Trace, n int, seed uint64) *trace.Trace {
	const loQ, hiQ = 0.55, 0.92
	type ranked struct {
		app *trace.App
		inv int
	}
	var apps []ranked
	for _, a := range tr.Apps {
		if inv := a.TotalInvocations(); inv > 0 {
			apps = append(apps, ranked{a, inv})
		}
	}
	sort.Slice(apps, func(i, j int) bool {
		if apps[i].inv != apps[j].inv {
			return apps[i].inv < apps[j].inv
		}
		return apps[i].app.ID < apps[j].app.ID
	})
	lo := int(loQ * float64(len(apps)))
	hi := int(hiQ * float64(len(apps)))
	if hi > len(apps) {
		hi = len(apps)
	}
	if lo >= hi {
		lo, hi = 0, len(apps)
	}
	band := apps[lo:hi]
	if n > len(band) {
		n = len(band)
	}
	r := stats.NewRNG(seed)
	perm := r.Perm(len(band))
	sel := &trace.Trace{Duration: tr.Duration}
	for _, idx := range perm[:n] {
		sel.Apps = append(sel.Apps, band[idx].app)
	}
	trace.SortAppsByID(sel)
	return sel
}
