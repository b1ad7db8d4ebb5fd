// Package metrics aggregates simulation results into the quantities
// the paper's evaluation reports: the per-app cold-start percentage
// distribution and its 3rd quartile, and wasted memory normalized to
// the 10-minute fixed keep-alive baseline.
package metrics

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// ThirdQuartileColdPercent returns the 75th percentile of the per-app
// cold-start percentage distribution, the headline metric of §5.2.
func ThirdQuartileColdPercent(r *sim.Result) float64 {
	ps := r.ColdPercents()
	if len(ps) == 0 {
		return 0
	}
	return stats.Percentile(ps, 75)
}

// NormalizedWastedMemory returns r's total wasted memory time as a
// percentage of baseline's (100 = equal to baseline). The paper
// normalizes to the 10-minute fixed keep-alive policy.
//
// The batch path is the streaming sink's arithmetic: the results are
// replayed through a WastedMemorySink in app order (the same order
// Result.TotalWastedSeconds sums, so the totals are bit-identical)
// and normalized by NormalizedTo. One implementation, two facades.
func NormalizedWastedMemory(r, baseline *sim.Result) float64 {
	var s WastedMemorySink
	for i, a := range r.Apps {
		s.Consume(i, a)
	}
	return s.NormalizedTo(baseline.TotalWastedSeconds())
}
