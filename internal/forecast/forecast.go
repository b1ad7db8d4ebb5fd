// Package forecast defines the pluggable time-series predictor the
// hybrid policy uses for applications whose idle times exceed the
// histogram range. The paper uses auto-ARIMA but notes "we can easily
// replace ARIMA with another model" (§4.2); this package provides the
// interface plus three implementations: ARIMA (the default),
// Holt-style exponential smoothing, and a naive mean baseline. Each
// returns ok=false rather than a non-finite or non-positive
// prediction.
//
// Memo wraps a forecaster so that each distinct series is fitted once.
// A prediction is a pure function of the series' bits, so the reuse is
// exact: entries are keyed by the exact float64 bits of the whole
// series (a hash only picks the bucket), never by a rounded or hashed
// value alone. A memo grows with every distinct series it sees and is
// never trimmed, so its scope is one bounded run: scenario.RunSweep
// gives each sweep one memo, shared by every cell whose hybrid policy
// uses the default ARIMA forecaster, and drops it when the sweep ends.
// Long-lived callers (the serving plane) and sim.Run or cluster.Run
// called outside a sweep fit without one; their results are the same
// either way.
package forecast

import (
	"math"
	"slices"
	"sync"

	"repro/internal/arima"
	"repro/internal/stats"
)

// Forecaster predicts the next value of a (positive) series.
type Forecaster interface {
	// Name identifies the model in reports.
	Name() string
	// PredictNext returns the one-step-ahead prediction; ok is false
	// when the series is too short or the model cannot be fit.
	PredictNext(series []float64) (pred float64, ok bool)
}

// ARIMA is the paper's default: an auto-fit ARIMA model (AIC order
// search), rebuilt on each call as the paper rebuilds its model after
// every invocation of an ARIMA-managed app. Behind a Memo it is
// rebuilt once per distinct series, which yields the same predictions.
type ARIMA struct {
	// Options bounds the order search (zero value = package defaults).
	Options arima.Options
}

// Name implements Forecaster.
func (ARIMA) Name() string { return "arima" }

// PredictNext implements Forecaster. It fits and forecasts in one
// pooled arima scratch and allocates nothing once that is warm.
func (f ARIMA) PredictNext(series []float64) (float64, bool) {
	pred, err := arima.FitForecastNext(series, f.Options)
	if err != nil {
		return 0, false
	}
	return usable(pred)
}

// usable passes a prediction through only if it is finite and
// positive: the policy turns it into a time.Duration, and Go leaves
// the conversion of an infinite or NaN float implementation-defined.
func usable(pred float64) (float64, bool) {
	if !(pred > 0) || math.IsInf(pred, 1) {
		return 0, false
	}
	return pred, true
}

// ExpSmoothing is Holt's linear exponential smoothing: level plus
// (damped) trend, a cheap alternative to ARIMA.
type ExpSmoothing struct {
	// Alpha is the level smoothing factor (default 0.5).
	Alpha float64
	// Beta is the trend smoothing factor (default 0.1).
	Beta float64
	// Damping multiplies the trend at forecast time (default 0.9).
	Damping float64
	// MinSamples is the minimum series length (default 3).
	MinSamples int
}

// Name implements Forecaster.
func (ExpSmoothing) Name() string { return "expsmooth" }

// PredictNext implements Forecaster.
func (f ExpSmoothing) PredictNext(series []float64) (float64, bool) {
	alpha, beta, damp, minN := f.Alpha, f.Beta, f.Damping, f.MinSamples
	if alpha == 0 {
		alpha = 0.5
	}
	if beta == 0 {
		beta = 0.1
	}
	if damp == 0 {
		damp = 0.9
	}
	if minN == 0 {
		minN = 3
	}
	if len(series) < max(minN, 2) { // the initial trend needs two points
		return 0, false
	}
	if alpha < 0 || alpha > 1 || beta < 0 || beta > 1 {
		return 0, false
	}
	level := series[0]
	trend := series[1] - series[0]
	for _, x := range series[1:] {
		prevLevel := level
		level = alpha*x + (1-alpha)*(level+trend)
		trend = beta*(level-prevLevel) + (1-beta)*trend
	}
	return usable(level + damp*trend)
}

// Mean is the naive baseline: predict the series mean.
type Mean struct {
	// MinSamples is the minimum series length (default 3).
	MinSamples int
}

// Name implements Forecaster.
func (Mean) Name() string { return "mean" }

// PredictNext implements Forecaster.
func (f Mean) PredictNext(series []float64) (float64, bool) {
	minN := f.MinSamples
	if minN == 0 {
		minN = 3
	}
	if len(series) < minN {
		return 0, false
	}
	return usable(stats.Mean(series))
}

// Memo is a Forecaster that asks its inner forecaster once per distinct
// series and replays the result for every later request with the same
// bits. The inner forecaster must be pure: the same series bits always
// give the same prediction. Requests for a series another goroutine is
// still fitting wait for that fit (single flight), so the inner
// forecaster runs exactly once per distinct series whatever the
// schedule. A Memo is safe for concurrent use and retains a copy of
// every distinct series; see the package doc for its scope.
type Memo struct {
	inner Forecaster

	mu      sync.Mutex
	buckets map[uint64][]*memoEntry
}

// memoEntry is one distinct series and, once ready is closed, its
// prediction. filled is false after a close only if the fit panicked;
// the entry has then left its bucket.
type memoEntry struct {
	series []float64
	pred   float64
	ok     bool
	filled bool
	ready  chan struct{}
}

// NewMemo returns an empty memo over inner.
func NewMemo(inner Forecaster) *Memo {
	return &Memo{inner: inner, buckets: map[uint64][]*memoEntry{}}
}

// Name implements Forecaster: the memo reports as its inner model.
func (m *Memo) Name() string { return m.inner.Name() }

// PredictNext implements Forecaster. series is not retained: the memo
// stores its own copy.
func (m *Memo) PredictNext(series []float64) (float64, bool) {
	h := hashBits(series)
	for {
		m.mu.Lock()
		e := m.lookup(h, series)
		if e == nil {
			e = &memoEntry{series: slices.Clone(series), ready: make(chan struct{})}
			m.buckets[h] = append(m.buckets[h], e)
			m.mu.Unlock()
			return m.fill(h, e)
		}
		m.mu.Unlock()
		<-e.ready
		if e.filled {
			return e.pred, e.ok
		}
		// The fit panicked in another goroutine; fit it here.
	}
}

// lookup returns the entry holding exactly series' bits, or nil.
// m.mu is held.
func (m *Memo) lookup(h uint64, series []float64) *memoEntry {
	for _, e := range m.buckets[h] {
		if sameBits(e.series, series) {
			return e
		}
	}
	return nil
}

// fill runs the inner fit for a new entry and wakes its waiters. The
// deferred close runs on a panic too, after taking the entry out of its
// bucket, so no waiter is stranded and the next request refits.
func (m *Memo) fill(h uint64, e *memoEntry) (float64, bool) {
	defer func() {
		if !e.filled {
			m.mu.Lock()
			m.buckets[h] = slices.DeleteFunc(m.buckets[h], func(x *memoEntry) bool { return x == e })
			m.mu.Unlock()
		}
		close(e.ready)
	}()
	e.pred, e.ok = m.inner.PredictNext(e.series)
	e.filled = true
	return e.pred, e.ok
}

// hashBits is FNV-1a over the series' 64-bit words. It only picks a
// bucket; sameBits decides a hit.
func hashBits(series []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range series {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

// sameBits reports whether a and b hold the same float64 bit patterns:
// +0 and -0 differ, and a NaN equals a NaN with the same payload.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
