package ithist

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/stats"
)

func benchIdles(n int) []time.Duration {
	rng := rand.New(rand.NewSource(7))
	idles := make([]time.Duration, n)
	for i := range idles {
		idles[i] = time.Duration(rng.Int63n(int64(150 * time.Minute)))
	}
	return idles
}

func BenchmarkKernel(b *testing.B) {
	idles := benchIdles(4000)
	h := New(DefaultConfig())
	var runs []WindowRun
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		runs, _ = h.DecideSeq(idles, 2, 0.5, 2, runs[:0])
	}
}

// BenchmarkHistogramObserve measures the O(1) idle-time histogram
// update (challenge #5 of §4.1).
func BenchmarkHistogramObserve(b *testing.B) {
	h := New(DefaultConfig())
	r := stats.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(r.Float64() * float64(4*time.Hour)))
	}
}

// BenchmarkHistogramWindows measures window computation.
func BenchmarkHistogramWindows(b *testing.B) {
	h := New(DefaultConfig())
	r := stats.NewRNG(3)
	for i := 0; i < 10000; i++ {
		h.Observe(time.Duration(r.Float64() * float64(time.Hour)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := h.Windows(); !ok {
			b.Fatal("no windows")
		}
	}
}
