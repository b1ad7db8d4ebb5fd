package ithist

import (
	"math/rand"
	"testing"
	"time"
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
