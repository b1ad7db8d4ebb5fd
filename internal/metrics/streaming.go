// Package metrics holds the sinks that reduce simulation outcomes to
// the quantities the paper's evaluation reports: per-app cold-start
// quantiles and always-cold shares, wasted memory, cluster cold-start
// attribution and platform latency. Each is an incremental aggregate
// that never stores all apps, so a constant-memory source yields a
// constant-memory run, and merges exactly across shards. The per-app
// sinks implement sim.ResultSink (sim.Run's sim.WithSink).
package metrics

import (
	"math"

	"repro/internal/sim"
)

// coldBins is the fixed resolution of the streaming cold-start
// distribution: percentages in [0, 100] quantized to 0.01 points
// (10001 bins, ~80 KB), bounding any quantile read-out error at half
// a bin — invisible at the two decimals reports print.
const coldBins = 10001

// ColdStartSink incrementally aggregates the per-app cold-start
// percentage distribution: a fixed-resolution histogram replaces a
// sorted per-app slice. Apps with zero invocations are excluded, as in
// Result.ColdPercents. Beside the bins it counts the apps whose every
// invocation was cold and the apps invoked exactly once (always cold:
// nothing is resident before an app's first invocation), which Figure
// 19's always-cold fractions read.
type ColdStartSink struct {
	bins       [coldBins]int64
	count      int64
	alwaysCold int64
	single     int64
}

// NewColdStartSink returns an empty distribution sink.
func NewColdStartSink() *ColdStartSink { return &ColdStartSink{} }

// Consume implements sim.ResultSink.
func (s *ColdStartSink) Consume(_ int, r sim.AppResult) {
	if r.Invocations == 0 {
		return
	}
	b := int(math.Round(r.ColdPercent() / 100 * (coldBins - 1)))
	if b < 0 {
		b = 0
	}
	if b >= coldBins {
		b = coldBins - 1
	}
	s.bins[b]++
	s.count++
	if r.ColdStarts == r.Invocations {
		s.alwaysCold++
	}
	if r.Invocations == 1 {
		s.single++
	}
}

// Merge folds other's distribution into s. The bins are integer
// counts, so merging the sinks of a sharded run reproduces the
// unsharded sink exactly — quantiles included — which is what makes
// the sink the multi-process scale-out aggregate.
func (s *ColdStartSink) Merge(other *ColdStartSink) {
	for b, n := range other.bins {
		s.bins[b] += n
	}
	s.count += other.count
	s.alwaysCold += other.alwaysCold
	s.single += other.single
}

// Quantile returns the p-th percentile (p in [0, 100]) of the
// cold-start percentage distribution, to the sink's 0.01-point
// resolution. It mirrors stats.Percentile's convention (linear
// interpolation between closest ranks) over the binned multiset, so
// it agrees with the batch metrics to within half a bin.
func (s *ColdStartSink) Quantile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	rank := p / 100 * float64(s.count-1)
	lo := int64(math.Floor(rank))
	hi := int64(math.Ceil(rank))
	loV, hiV := s.valuesAt(lo, hi)
	if lo == hi {
		return loV
	}
	frac := rank - float64(lo)
	return loV*(1-frac) + hiV*frac
}

// valuesAt returns the lo-th and hi-th smallest cold percentages
// (0-based, lo <= hi) of the binned multiset in one cumulative walk.
func (s *ColdStartSink) valuesAt(lo, hi int64) (loV, hiV float64) {
	var seen int64
	loV, hiV = math.NaN(), math.NaN()
	for b, n := range s.bins {
		if n == 0 {
			continue
		}
		seen += n
		v := float64(b) / (coldBins - 1) * 100
		if math.IsNaN(loV) && seen > lo {
			loV = v
		}
		if seen > hi {
			hiV = v
			return loV, hiV
		}
	}
	return loV, hiV
}

// ThirdQuartile returns the 75th percentile — the paper's headline
// metric — from the streamed distribution.
func (s *ColdStartSink) ThirdQuartile() float64 { return s.Quantile(75) }

// AlwaysColdFraction returns the fraction of invoked apps whose every
// invocation was cold. With excludeSingleInvocation, apps invoked only
// once — which no policy can help (§5.2, Figure 19) — are excluded
// from both numerator and denominator.
func (s *ColdStartSink) AlwaysColdFraction(excludeSingleInvocation bool) float64 {
	cold, total := s.alwaysCold, s.count
	if excludeSingleInvocation {
		cold -= s.single
		total -= s.single
	}
	if total == 0 {
		return 0
	}
	return float64(cold) / float64(total)
}

// WastedMemorySink incrementally totals wasted memory time plus the
// invocation and cold-start counters the evaluation normalizes by.
// The float total is summed in sink-arrival order, which every engine
// makes ascending app order, so it repeats to the last bit.
type WastedMemorySink struct {
	wastedSeconds float64
	invocations   int64
	coldStarts    int64
	apps          int64
}

// NewWastedMemorySink returns an empty totals sink.
func NewWastedMemorySink() *WastedMemorySink { return &WastedMemorySink{} }

// Consume implements sim.ResultSink.
func (s *WastedMemorySink) Consume(_ int, r sim.AppResult) {
	s.wastedSeconds += r.WastedSeconds
	s.invocations += int64(r.Invocations)
	s.coldStarts += int64(r.ColdStarts)
	s.apps++
}

// Merge folds other's totals into s (shard aggregation). The integer
// counters merge exactly; the float total is one addition per merged
// sink, so an n-shard merge differs from the unsharded sum only by
// float association in the low bits.
func (s *WastedMemorySink) Merge(other *WastedMemorySink) {
	s.wastedSeconds += other.wastedSeconds
	s.invocations += other.invocations
	s.coldStarts += other.coldStarts
	s.apps += other.apps
}

// TotalWastedSeconds returns the accumulated wasted memory time.
func (s *WastedMemorySink) TotalWastedSeconds() float64 { return s.wastedSeconds }

// TotalInvocations returns the accumulated invocation count.
func (s *WastedMemorySink) TotalInvocations() int64 { return s.invocations }

// TotalColdStarts returns the accumulated cold-start count.
func (s *WastedMemorySink) TotalColdStarts() int64 { return s.coldStarts }

// Apps returns the number of apps consumed (including zero-invocation
// apps).
func (s *WastedMemorySink) Apps() int64 { return s.apps }

// NormalizedTo returns the sink's wasted memory as a percentage of a
// baseline total (the paper normalizes to the 10-minute fixed
// policy).
func (s *WastedMemorySink) NormalizedTo(baselineWastedSeconds float64) float64 {
	if baselineWastedSeconds == 0 {
		return 0
	}
	return 100 * s.wastedSeconds / baselineWastedSeconds
}
