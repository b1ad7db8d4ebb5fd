package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// TestLatencyBucketMonotone checks the bucket mapping is monotone and
// self-consistent: every value lands in a bucket whose range contains
// it, and bucket upper bounds strictly increase.
func TestLatencyBucketMonotone(t *testing.T) {
	prev := -1
	for _, ns := range []int64{0, 1, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, 1 << 40, math.MaxInt64} {
		idx := latencyBucket(ns)
		if idx < prev {
			t.Fatalf("bucket(%d) = %d < previous %d (not monotone)", ns, idx, prev)
		}
		prev = idx
		if max := latencyBucketMax(idx); ns > max {
			t.Fatalf("bucket(%d) = %d with max %d: value above its bucket", ns, idx, max)
		}
		if idx > 0 {
			if below := latencyBucketMax(idx - 1); ns <= below {
				t.Fatalf("bucket(%d) = %d but previous bucket tops at %d", ns, idx, below)
			}
		}
	}
	// Exhaustive bound ordering across all buckets.
	for i := 1; i < 960; i++ {
		if latencyBucketMax(i) <= latencyBucketMax(i-1) {
			t.Fatalf("bucket %d max %d <= bucket %d max %d",
				i, latencyBucketMax(i), i-1, latencyBucketMax(i-1))
		}
	}
}

// TestLatencyQuantileError pins the histogram's accuracy contract on
// random samples: every reported quantile is >= the exact sample
// quantile and within the 1/16 relative-error bound.
func TestLatencyQuantileError(t *testing.T) {
	r := stats.NewRNG(7)
	h := NewLatencyHistogram()
	samples := make([]int64, 20000)
	for i := range samples {
		// Log-uniform over ~ns..10ms, the decision-latency regime.
		ns := int64(math.Exp(r.Float64() * math.Log(1e7)))
		samples[i] = ns
		h.Observe(time.Duration(ns))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	if h.Count() != int64(len(samples)) {
		t.Fatalf("Count() = %d, want %d", h.Count(), len(samples))
	}
	for _, p := range []float64{50, 90, 99, 99.9, 100} {
		rank := int(math.Ceil(p / 100 * float64(len(samples))))
		exact := samples[rank-1]
		got := int64(h.Quantile(p))
		if got < exact {
			t.Fatalf("p%v = %d below exact %d (quantile must be an upper bound)", p, got, exact)
		}
		if float64(got) > float64(exact)*(1+1.0/16)+1 {
			t.Fatalf("p%v = %d exceeds exact %d by more than 6.25%%", p, got, exact)
		}
	}
}

// TestLatencyQuantileEmptyAndEdges covers the degenerate cases.
func TestLatencyQuantileEmptyAndEdges(t *testing.T) {
	h := NewLatencyHistogram()
	if got := h.Quantile(99); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
	h.Observe(5)
	if got := h.Quantile(0); got != 5 {
		t.Fatalf("p0 of {5ns} = %v, want 5ns (rank clamps to 1)", got)
	}
	if got := h.Quantile(100); got != 5 {
		t.Fatalf("p100 of {5ns} = %v, want 5ns", got)
	}
	h.Observe(-3) // negative durations clamp to 0
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("p0 after negative sample = %v, want 0", got)
	}
}

// TestLatencyConcurrentObserve hammers Observe from many goroutines
// (run under -race) and checks no samples are lost.
func TestLatencyConcurrentObserve(t *testing.T) {
	h := NewLatencyHistogram()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("Count() = %d, want %d", h.Count(), workers*per)
	}
}
