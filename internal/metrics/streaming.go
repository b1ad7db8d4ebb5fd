package metrics

import (
	"math"

	"repro/internal/sim"
)

// Streaming sinks: incremental aggregates over per-app outcomes that
// never store all apps, so a constant-memory source (a streamed CSV, a
// generator) yields a constant-memory end-to-end run. They implement
// sim.ResultSink and plug into sim.Run via sim.WithSink.

// coldBins is the fixed resolution of the streaming cold-start
// distribution: percentages in [0, 100] quantized to 0.01 points
// (10001 bins, ~80 KB), bounding any quantile read-out error at half
// a bin — invisible at the two decimals reports print.
const coldBins = 10001

// ColdStartSink incrementally aggregates the per-app cold-start
// percentage distribution: a fixed-resolution histogram replaces the
// sorted per-app slice the batch metrics use. Apps with zero
// invocations are excluded, as in Result.ColdPercents.
type ColdStartSink struct {
	bins  [coldBins]int64
	count int64
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
// policy), matching NormalizedWastedMemory on batch results.
func (s *WastedMemorySink) NormalizedTo(baselineWastedSeconds float64) float64 {
	if baselineWastedSeconds == 0 {
		return 0
	}
	return 100 * s.wastedSeconds / baselineWastedSeconds
}
