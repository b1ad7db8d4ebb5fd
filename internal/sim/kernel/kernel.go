// Package kernel is the per-application keep-alive walk shared by the
// batch simulator (internal/sim) and the cluster timeline
// (internal/cluster): idle-time computation, run-length-encoded policy
// decisions, and the Figure 9 warm/cold/wasted-memory classification.
//
// Both engines call the exact same functions in the exact same order
// per app, which is what makes an infinite-capacity cluster run
// bit-identical to sim.Simulate — the arithmetic is not re-derived, it
// is the same code. Changes here are semantic changes to every engine
// and must keep the golden tests bit-exact.
package kernel

import (
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
)

// Scratch holds the reusable buffers of one walker (one worker
// goroutine, or one sequential precompute pass). The slices returned
// by its methods alias the scratch and are valid only until the next
// call of the same method; callers that persist them must copy.
type Scratch struct {
	execs []float64
	srcs  []mergeSrc
	idles []time.Duration
	runs  []policy.DecisionRun
}

// mergeSrc is one function's sorted invocation list during the k-way
// exec-time merge.
type mergeSrc struct {
	times []float64
	exec  float64
	pos   int
}

// Walk is one app's whole decision walk: it acquires the app's policy
// state, computes exec times (when useExec) and idle times, takes the
// decisions, and hands pooled state (policy.Releasable) back before
// returning — the batch engines never hold an AppPolicy, so they
// cannot leak one. times is the app's invocation order
// (trace.App.InvocationTimes: trace memory, not scratch); execs
// (nil unless useExec) and runs alias the scratch like the results of
// the methods below.
func (s *Scratch) Walk(pol policy.Policy, app *trace.App, useExec bool) (times, execs []float64, runs []policy.DecisionRun) {
	times = app.InvocationTimes()
	if useExec {
		execs = s.ExecSeconds(app)
	}
	ap := pol.NewApp(app.ID)
	runs = s.DecideRuns(ap, s.IdleTimes(times, execs))
	if r, ok := ap.(policy.Releasable); ok {
		r.Release()
	}
	return times, execs, runs
}

// ExecSeconds fills the scratch exec buffer with per-invocation
// execution times for the app, in invocation-time order. Each
// function's invocation list is already sorted, so the lists are k-way
// merged (ties resolved to the earlier function, matching a stable
// sort of the concatenated lists).
func (s *Scratch) ExecSeconds(app *trace.App) []float64 {
	srcs := s.srcs[:0]
	total := 0
	for _, fn := range app.Functions {
		if len(fn.Invocations) == 0 {
			continue
		}
		total += len(fn.Invocations)
		srcs = append(srcs, mergeSrc{times: fn.Invocations, exec: fn.ExecStats.AvgSeconds})
	}
	s.srcs = srcs
	if cap(s.execs) < total {
		s.execs = make([]float64, total)
	}
	execs := s.execs[:total]
	if len(srcs) == 1 {
		for i := range execs {
			execs[i] = srcs[0].exec
		}
		return execs
	}
	for i := 0; i < total; i++ {
		best := -1
		var bt float64
		for j := range srcs {
			src := &srcs[j]
			if src.pos >= len(src.times) {
				continue
			}
			if t := src.times[src.pos]; best < 0 || t < bt {
				best, bt = j, t
			}
		}
		execs[i] = srcs[best].exec
		srcs[best].pos++
	}
	return execs
}

// IdleTimes computes the idle time preceding each invocation: the gap
// from the previous execution's end (or trace start) to the arrival,
// clamped at zero. Overlapping executions (concurrency) are out of
// scope (§2 of the paper); the clamp keeps the policy's observations
// sane. execs may be nil for the paper's default zero execution times.
//
// The idle preceding invocation i depends only on the timestamps and
// exec times, never on any policy decision or platform action (an
// eviction changes warm/cold outcomes, not arrival gaps), so the whole
// sequence is known before any decision is made.
func (s *Scratch) IdleTimes(times, execs []float64) []time.Duration {
	n := len(times)
	if cap(s.idles) < n {
		s.idles = make([]time.Duration, n)
	}
	idles := s.idles[:n]
	var prevEnd float64
	for i, t := range times {
		idle := t - prevEnd
		if idle < 0 {
			idle = 0
		}
		idles[i] = SecToDur(idle)
		prevEnd = t
		if execs != nil {
			prevEnd += execs[i]
		}
	}
	return idles
}

// DecideRuns walks the idle sequence through the app policy and
// returns the decisions as run-length-encoded spans, in one batch call
// when the policy supports it (one interface dispatch per app instead
// of per invocation).
func (s *Scratch) DecideRuns(ap policy.AppPolicy, idles []time.Duration) []policy.DecisionRun {
	var runs []policy.DecisionRun
	if sp, ok := ap.(policy.SequencePolicy); ok {
		runs = sp.NextWindowsSeq(idles, s.runs[:0])
	} else {
		runs = s.runs[:0]
		var cur policy.Decision
		var curN int32
		for i := range idles {
			d := ap.NextWindows(idles[i], i == 0)
			if i > 0 && d == cur {
				curN++
				continue
			}
			if curN > 0 {
				runs = append(runs, policy.DecisionRun{D: cur, N: curN})
			}
			cur, curN = d, 1
		}
		if curN > 0 {
			// Guarded so empty idle sequences yield no runs (an N == 0
			// run would wedge a RunCursor in permanent underflow).
			runs = append(runs, policy.DecisionRun{D: cur, N: curN})
		}
	}
	s.runs = runs[:0]
	return runs
}

// RunCursor steps through a decision-run sequence one invocation at a
// time. Window-to-seconds conversions and mode-count attribution
// happen once per run, not per invocation; between Step calls the
// exported fields hold the decision governing the invocation last
// stepped to.
type RunCursor struct {
	// D is the current decision; PwSec and KaSec are its windows
	// converted to seconds (once per run).
	D            policy.Decision
	PwSec, KaSec float64

	runs []policy.DecisionRun
	ri   int
	rem  int32
}

// Reset points the cursor at the start of runs.
func (c *RunCursor) Reset(runs []policy.DecisionRun) {
	c.runs, c.ri, c.rem = runs, -1, 0
	c.D, c.PwSec, c.KaSec = policy.Decision{}, 0, 0
}

// ReleaseRuns drops the cursor's backing run slice while keeping the
// decision fields (D, PwSec, KaSec) valid — exactly what trailing-
// window accounting reads after a walk is complete. The cluster
// engine's streaming precompute calls it when an app's timeline
// finishes, so completed apps pin no walk memory; Step after release
// is a programming error (the cursor has nothing left to step to).
func (c *RunCursor) ReleaseRuns() { c.runs = nil }

// Step advances to the decision governing the next invocation,
// attributing the whole run's invocation count to its mode the first
// time the run is entered.
func (c *RunCursor) Step(modes *[policy.NumModes]int) {
	if c.rem == 0 {
		c.ri++
		r := c.runs[c.ri]
		c.D = r.D
		c.rem = r.N
		c.PwSec = r.D.PreWarm.Seconds()
		c.KaSec = r.D.KeepAlive.Seconds()
		modes[r.D.Mode] += int(r.N)
	}
	c.rem--
}

// Classify resolves one arrival at time t against the decision made at
// prevEnd (pwSec/kaSec are d's windows in seconds), per the Figure 9
// timelines:
//
//   - PreWarm == 0: the app stays loaded from execution end for
//     KeepAlive; an arrival in that window is warm.
//   - PreWarm > 0: the app unloads at execution end, reloads PreWarm
//     later, and stays loaded for KeepAlive. An arrival before the
//     reload is cold (but costs no memory); one inside
//     [reload, reload+KeepAlive] is warm; a later one is cold after
//     the full KeepAlive was wasted.
//   - Forever: loaded through the horizon.
//
// It returns whether the start is warm and how much loaded-but-idle
// time accrued between prevEnd and the arrival.
func Classify(d policy.Decision, pwSec, kaSec, prevEnd, t float64) (warm bool, wasted float64) {
	if d.Forever {
		return true, t - prevEnd
	}
	if d.PreWarm == 0 {
		windowEnd := prevEnd + kaSec
		if t <= windowEnd {
			return true, t - prevEnd
		}
		return false, kaSec
	}
	loadAt := prevEnd + pwSec
	windowEnd := loadAt + kaSec
	switch {
	case t < loadAt:
		// Arrived before the pre-warm: cold, but nothing was loaded.
		return false, 0
	case t <= windowEnd:
		return true, t - loadAt
	default:
		return false, kaSec
	}
}

// TrailingWaste accounts for the window scheduled after the final
// invocation, truncated at the trace horizon.
func TrailingWaste(d policy.Decision, pwSec, kaSec, prevEnd, horizon float64) float64 {
	if prevEnd >= horizon {
		return 0
	}
	if d.Forever {
		return horizon - prevEnd
	}
	if d.PreWarm == 0 {
		return minF(kaSec, horizon-prevEnd)
	}
	loadAt := prevEnd + pwSec
	if loadAt >= horizon {
		return 0
	}
	return minF(kaSec, horizon-loadAt)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// SecToDur converts seconds to a time.Duration with the same rounding
// the engines have always used.
func SecToDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
