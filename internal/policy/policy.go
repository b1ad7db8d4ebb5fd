// Package policy implements the keep-alive / pre-warming policies the
// paper studies: the fixed keep-alive used by providers (§2), a
// no-unloading upper bound, and the paper's contribution — the hybrid
// histogram policy (§4.2, Figure 10), which per application selects
// between a range-limited idle-time histogram, a conservative standard
// keep-alive (while the histogram is unrepresentative), and an ARIMA
// time-series forecast (when too many idle times fall out of range).
package policy

import (
	"fmt"
	"time"
)

// Decision is what a policy prescribes after each function execution
// ends (Figure 9): wait PreWarm, then keep the application image
// loaded for KeepAlive. PreWarm == 0 means the application is not
// unloaded after the execution, and KeepAlive runs from the execution
// end. Forever marks an infinite keep-alive (the no-unloading policy).
type Decision struct {
	PreWarm   time.Duration
	KeepAlive time.Duration
	Forever   bool
	Mode      Mode
}

// Mode labels which component of a policy produced a decision, used by
// the evaluation to attribute outcomes (e.g. Figure 19's ARIMA study).
type Mode uint8

// Decision provenance labels.
const (
	ModeFixed Mode = iota
	ModeNoUnload
	ModeStandard  // hybrid's conservative fallback
	ModeHistogram // hybrid's histogram windows
	ModeARIMA     // hybrid's time-series path

	// NumModes is the number of provenance labels. Attribution arrays
	// (sim.AppResult.ModeCounts) are sized by it, so a policy mode
	// added above extends them at compile time instead of silently
	// corrupting per-mode tallies.
	NumModes = int(ModeARIMA) + 1
)

// String returns a short label for the mode.
func (m Mode) String() string {
	switch m {
	case ModeFixed:
		return "fixed"
	case ModeNoUnload:
		return "no-unload"
	case ModeStandard:
		return "standard"
	case ModeHistogram:
		return "histogram"
	case ModeARIMA:
		return "arima"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// AppPolicy makes keep-alive decisions for a single application. The
// caller invokes NextWindows when an execution ends, passing the idle
// time that preceded the invocation that just ran (first=true for the
// app's first invocation, in which case idle is ignored).
//
// Implementations are not safe for concurrent use; callers serialize
// per-app policy updates — the simulator by walking one app per
// goroutine, the serving path (internal/serve) with a per-app mutex
// behind sharded locks.
type AppPolicy interface {
	NextWindows(idle time.Duration, first bool) Decision
}

// Policy is a factory of per-application policies.
type Policy interface {
	// Name returns a short identifier used in reports.
	Name() string
	// NewApp creates the policy state for one application.
	NewApp(appID string) AppPolicy
}

// Releasable is implemented by AppPolicy values whose state can be
// recycled through an internal pool. Callers that are finished with an
// app (e.g. the simulator after walking one application's trace) may
// call Release exactly once and must not use the value afterwards;
// a subsequent NewApp on the same policy may then reuse the backing
// state instead of allocating.
//
// The batch engines never hold an AppPolicy: kernel.Scratch.Decide
// (which Scratch.Walk calls) acquires, decides and releases in one
// call. serve.Controller is the
// one long-lived owner and hands its entries back in Release.
type Releasable interface {
	Release()
}

// DecisionRun is a run-length-encoded span of identical consecutive
// decisions, the unit SequencePolicy implementations emit. Decisions
// change rarely relative to invocations (the histogram windows are
// memoized and the fallback regimes are constant), so run-length
// encoding keeps batch decision traffic proportional to the number of
// changes rather than the number of invocations.
type DecisionRun struct {
	D Decision
	N int32 // number of consecutive invocations governed by D
}

// SequencePolicy is an optional AppPolicy extension for batch
// decision-making: the appended runs expand to exactly the decisions
// the per-call NextWindows(idles[i], i == 0) walk would produce from
// the app's current state (for the common case of a freshly created
// app, its whole decision history). Implementations must produce
// decisions identical to the per-call path; they exist so bulk
// consumers (the simulator) can avoid one interface dispatch per
// invocation and keep the per-invocation state in registers.
type SequencePolicy interface {
	// NextWindowsSeq appends the decision runs for idles to runs
	// (typically runs[:0] of a reused buffer) and returns the result.
	NextWindowsSeq(idles []time.Duration, runs []DecisionRun) []DecisionRun
}

// fixedApp and noUnloadApp produce constant decisions, so their batch
// paths are single runs.

// NextWindowsSeq implements SequencePolicy.
func (a fixedApp) NextWindowsSeq(idles []time.Duration, runs []DecisionRun) []DecisionRun {
	if len(idles) == 0 {
		return runs
	}
	return append(runs, DecisionRun{
		D: Decision{PreWarm: 0, KeepAlive: a.ka, Mode: ModeFixed},
		N: int32(len(idles)),
	})
}

// NextWindowsSeq implements SequencePolicy.
func (noUnloadApp) NextWindowsSeq(idles []time.Duration, runs []DecisionRun) []DecisionRun {
	if len(idles) == 0 {
		return runs
	}
	return append(runs, DecisionRun{
		D: Decision{Forever: true, Mode: ModeNoUnload},
		N: int32(len(idles)),
	})
}

// FixedKeepAlive is the state-of-the-practice policy: keep the
// application warm for a fixed duration after every execution
// (10 minutes in AWS and OpenWhisk, 20 in Azure; §1, §2).
type FixedKeepAlive struct {
	KeepAlive time.Duration
}

// Name implements Policy.
func (p FixedKeepAlive) Name() string {
	return fmt.Sprintf("fixed-%s", p.KeepAlive)
}

// NewApp implements Policy.
func (p FixedKeepAlive) NewApp(string) AppPolicy { return fixedApp{ka: p.KeepAlive} }

type fixedApp struct{ ka time.Duration }

func (a fixedApp) NextWindows(time.Duration, bool) Decision {
	return Decision{PreWarm: 0, KeepAlive: a.ka, Mode: ModeFixed}
}

// NoUnloading keeps every application loaded forever after its first
// invocation: the zero-cold-start, maximum-cost reference point of
// Figure 14.
type NoUnloading struct{}

// Name implements Policy.
func (NoUnloading) Name() string { return "no-unloading" }

// NewApp implements Policy.
func (NoUnloading) NewApp(string) AppPolicy { return noUnloadApp{} }

type noUnloadApp struct{}

func (noUnloadApp) NextWindows(time.Duration, bool) Decision {
	return Decision{Forever: true, Mode: ModeNoUnload}
}
