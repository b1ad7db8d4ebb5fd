package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// LatencyHistogram is a fixed-footprint concurrent latency histogram
// in the HDR style: values bucket by a log2 major and a 16-way linear
// minor, giving ≤ 1/16 (6.25%) relative error across the full int64
// nanosecond range with 960 counters and no allocation. Observe is
// wait-free (one atomic add), so it can sit on a hot path sampled by
// many goroutines — the platform feeds it from every invocation.
//
// Quantile and Merge read the counters with plain atomic loads; they
// are intended for after-the-run reporting (a concurrent Observe may
// or may not be visible, which is the usual histogram contract).
type LatencyHistogram struct {
	counts [960]atomic.Int64
	total  atomic.Int64
}

// NewLatencyHistogram returns an empty histogram.
func NewLatencyHistogram() *LatencyHistogram { return &LatencyHistogram{} }

// latencyBucket maps a nanosecond value to its bucket index: exact
// below 16ns, then 16 linear minors per power of two.
func latencyBucket(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	n := uint64(ns)
	if n < 16 {
		return int(n)
	}
	exp := bits.Len64(n) - 5 // top 5 bits = [16, 32)
	return 16*(exp+1) + int((n>>uint(exp))&15)
}

// latencyBucketMax is the inclusive upper bound of a bucket's value
// range (what Quantile reports).
func latencyBucketMax(idx int) int64 {
	if idx < 16 {
		return int64(idx)
	}
	exp := idx/16 - 1
	m := uint64(16 + idx%16)
	return int64((m+1)<<uint(exp) - 1)
}

// Observe records one latency sample.
func (h *LatencyHistogram) Observe(d time.Duration) {
	h.counts[latencyBucket(int64(d))].Add(1)
	h.total.Add(1)
}

// Count returns the number of samples observed.
func (h *LatencyHistogram) Count() int64 { return h.total.Load() }

// Quantile returns the p-th percentile (p in [0, 100]) as the upper
// bound of the bucket holding that rank — within 6.25% of the exact
// sample value. An empty histogram reports 0.
func (h *LatencyHistogram) Quantile(p float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			return time.Duration(latencyBucketMax(i))
		}
	}
	return time.Duration(latencyBucketMax(len(h.counts) - 1))
}
