package trace

import (
	"fmt"
	"math/bits"
	"sync/atomic"
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

	// merged memoizes the merge of two or more non-empty function
	// lists; it stays nil for single-function apps.
	merged atomic.Pointer[[]float64]
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
				if !(ts >= 0 && ts <= horizon) { // NaN included
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

// InvocationTimes returns the app's invocation times in seconds from
// trace start, ascending: the union over its functions, which relies on
// each function's list being ascending. Callers must not modify the
// result. An app with at most one non-empty function gets that
// function's own list, without a copy. Otherwise the lists are merged
// once and the result is memoized; the memo is published atomically,
// so concurrent callers on a shared trace are safe.
func (a *App) InvocationTimes() []float64 {
	if p := a.merged.Load(); p != nil {
		return *p
	}
	var only []float64
	lists := 0
	for _, fn := range a.Functions {
		if len(fn.Invocations) > 0 {
			only = fn.Invocations
			lists++
		}
	}
	if lists <= 1 {
		return only
	}
	merged := mergeSorted(a.Functions)
	if !a.merged.CompareAndSwap(nil, &merged) {
		return *a.merged.Load()
	}
	return merged
}

// mergeSorted merges the k ≥ 2 non-empty ascending invocation lists
// of fns in rounds of pairwise merges, O(n log k). Ties keep function
// order, so the result equals a stable sort of the concatenation. The
// rounds alternate between the result and one scratch buffer, starting
// in whichever makes the last round land in the result.
func mergeSorted(fns []*Function) []float64 {
	var stack [16][]float64 // most apps have few functions: keep segs off the heap
	segs := stack[:0]
	n := 0
	for _, fn := range fns {
		if len(fn.Invocations) > 0 {
			segs = append(segs, fn.Invocations)
			n += len(fn.Invocations)
		}
	}
	out := make([]float64, n)
	dst, other := out, []float64(nil)
	if rounds := bits.Len(uint(len(segs) - 1)); rounds > 1 {
		other = make([]float64, n)
		if rounds%2 == 0 {
			dst, other = other, dst
		}
	}
	for len(segs) > 1 {
		// next reuses segs' array: slot i/2 is written after slot i is read.
		next, off := segs[:0], 0
		for i := 0; i < len(segs); i += 2 {
			var seg []float64
			if i+1 < len(segs) {
				seg = dst[off : off+len(segs[i])+len(segs[i+1])]
				merge2(seg, segs[i], segs[i+1])
			} else {
				seg = dst[off : off+len(segs[i])]
				copy(seg, segs[i])
			}
			next = append(next, seg)
			off += len(seg)
		}
		segs = next
		dst, other = other, dst
	}
	return out
}

// merge2 merges ascending a and b into dst (len(a)+len(b)), taking a's
// element on ties.
func merge2(dst, a, b []float64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// WarmCaches precomputes the merged invocation times of every
// multi-function app. It is no longer needed for safety — the memo is
// published atomically — but it moves the merges up front, for a
// caller that wants them out of a timed walk.
func (t *Trace) WarmCaches() {
	for _, a := range t.Apps {
		a.InvocationTimes()
	}
}

// Clone returns a shallow copy of the app that shares its function
// lists and merged invocation times; callers change only app-level
// fields (ID, Owner, MemoryMB) on it.
func (a *App) Clone() *App {
	c := &App{ID: a.ID, Owner: a.Owner, Functions: a.Functions, MemoryMB: a.MemoryMB}
	c.merged.Store(a.merged.Load())
	return c
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
