package trace

import (
	"fmt"
	"sort"
	"time"
)

// Function is one serverless function: a trigger plus its invocation
// timestamps and execution-time statistics.
type Function struct {
	// ID is unique within the trace (the dataset's HashFunction).
	ID string
	// Trigger is the function's trigger class.
	Trigger TriggerType
	// Invocations holds invocation times in seconds from trace start,
	// sorted ascending.
	Invocations []float64
	// ExecStats summarizes the function's execution times in seconds.
	ExecStats ExecStats
}

// ExecStats carries the per-function execution time summary the
// dataset publishes (average/min/max over the recorded samples).
type ExecStats struct {
	AvgSeconds float64
	MinSeconds float64
	MaxSeconds float64
	Count      int64
}

// App is an application: the unit of scheduling, memory allocation and
// keep-alive decisions (§2). It groups one or more functions.
type App struct {
	// ID is unique within the trace (the dataset's HashApp).
	ID string
	// Owner identifies the owning account (the dataset's HashOwner).
	Owner string
	// Functions lists the app's functions.
	Functions []*Function
	// MemoryMB is the app's average allocated memory in MB.
	MemoryMB float64

	merged []float64 // cached merged invocation times
}

// Trace is a complete workload: a set of applications observed for
// Duration.
type Trace struct {
	Duration time.Duration
	Apps     []*App
}

// Validate checks structural invariants: sorted non-negative
// timestamps within duration, unique function IDs, non-empty IDs.
func (tr *Trace) Validate() error {
	horizon := tr.Duration.Seconds()
	seen := make(map[string]bool)
	for _, app := range tr.Apps {
		if app.ID == "" {
			return fmt.Errorf("trace: app with empty ID")
		}
		for _, fn := range app.Functions {
			if fn.ID == "" {
				return fmt.Errorf("trace: app %s has function with empty ID", app.ID)
			}
			if seen[fn.ID] {
				return fmt.Errorf("trace: duplicate function ID %s", fn.ID)
			}
			seen[fn.ID] = true
			for i, ts := range fn.Invocations {
				if ts < 0 || ts > horizon {
					return fmt.Errorf("trace: function %s invocation %d at %v outside [0, %v]",
						fn.ID, i, ts, horizon)
				}
				if i > 0 && ts < fn.Invocations[i-1] {
					return fmt.Errorf("trace: function %s invocations not sorted at %d", fn.ID, i)
				}
			}
		}
	}
	return nil
}

// InvocationTimes returns the app's merged, sorted invocation times in
// seconds from trace start (the union over its functions). The result
// is cached; callers must not modify it. The memoization is not
// synchronized — within one simulation each app is walked by exactly
// one worker, but a trace shared across concurrently-running
// simulations must be warmed first (Trace.WarmCaches).
func (a *App) InvocationTimes() []float64 {
	if a.merged != nil {
		return a.merged
	}
	var total int
	for _, fn := range a.Functions {
		total += len(fn.Invocations)
	}
	merged := make([]float64, 0, total)
	for _, fn := range a.Functions {
		merged = append(merged, fn.Invocations...)
	}
	sort.Float64s(merged)
	a.merged = merged
	return merged
}

// WarmCaches precomputes every app's merged invocation times, leaving
// no lazy cache writes behind. Call it before handing one trace to
// several simulations running concurrently (InvocationTimes memoizes
// without synchronization); the sweep engine warms every trace it
// shares across cells.
func (t *Trace) WarmCaches() {
	for _, a := range t.Apps {
		a.InvocationTimes()
	}
}

// TotalInvocations returns the number of invocations across the app.
func (a *App) TotalInvocations() int {
	var n int
	for _, fn := range a.Functions {
		n += len(fn.Invocations)
	}
	return n
}

// TriggerSet returns the bitmask of trigger classes present in the
// app; bit i corresponds to TriggerType(i).
func (a *App) TriggerSet() uint8 {
	var mask uint8
	for _, fn := range a.Functions {
		mask |= 1 << fn.Trigger
	}
	return mask
}

// IATs returns the inter-arrival times (seconds) between the app's
// consecutive invocations. An app with fewer than two invocations has
// no IATs.
func (a *App) IATs() []float64 {
	times := a.InvocationTimes()
	if len(times) < 2 {
		return nil
	}
	iats := make([]float64, len(times)-1)
	for i := 1; i < len(times); i++ {
		iats[i-1] = times[i] - times[i-1]
	}
	return iats
}

// TotalInvocations returns the number of invocations in the trace.
func (tr *Trace) TotalInvocations() int {
	var n int
	for _, app := range tr.Apps {
		n += app.TotalInvocations()
	}
	return n
}

// TotalFunctions returns the number of functions in the trace.
func (tr *Trace) TotalFunctions() int {
	var n int
	for _, app := range tr.Apps {
		n += len(app.Functions)
	}
	return n
}

// MinuteCounts bins a sorted timestamp slice (seconds) into per-minute
// counts over the given horizon. Invocations exactly at the horizon
// fall into the last minute.
func MinuteCounts(times []float64, horizon time.Duration) []int {
	minutes := int(horizon.Minutes())
	if minutes <= 0 {
		return nil
	}
	counts := make([]int, minutes)
	for _, ts := range times {
		m := int(ts / 60)
		if m >= minutes {
			m = minutes - 1
		}
		if m < 0 {
			m = 0
		}
		counts[m]++
	}
	return counts
}
