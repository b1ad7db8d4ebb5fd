package forecast

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/arima"
	"repro/internal/stats"
)

// pinSeries is a seeded corpus of idle-time-like series of 0–60
// points: random walks, constants, jittered timers with missed beats,
// single spikes, AR(1) noise and series too short to fit.
func pinSeries() [][]float64 {
	r := stats.NewRNG(4747)
	var out [][]float64
	for i := 0; i < 300; i++ {
		kind := i % 6
		n := 4 + r.Intn(57)
		if kind == 5 {
			n = r.Intn(4)
		}
		xs := make([]float64, n)
		level := 60 * float64(1+r.Intn(120))
		v := 0.0
		for j := range xs {
			switch kind {
			case 0:
				v += 40 * r.NormFloat64()
				xs[j] = level + v
			case 1, 5:
				xs[j] = level
			case 2:
				xs[j] = level + 2*r.NormFloat64()
				if r.Bool(0.1) {
					xs[j] += level
				}
			case 3:
				xs[j] = level
			case 4:
				v = 0.7*v + r.NormFloat64()
				xs[j] = level + 50*v
			}
		}
		if kind == 3 {
			xs[r.Intn(n)] *= 10
		}
		out = append(out, xs)
	}
	return out
}

// TestPredictNextBitsPinned pins ARIMA.PredictNext's (pred, ok) bit for
// bit over the corpus, under the package defaults and the hybrid
// policy's bounds.
func TestPredictNextBitsPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	declined := 0
	for _, opt := range []arima.Options{{}, {MaxP: 2, MaxD: 1, MaxQ: 1}} {
		f := ARIMA{Options: opt}
		for _, xs := range pinSeries() {
			pred, ok := f.PredictNext(xs)
			if !ok {
				declined++
				word(0)
				continue
			}
			word(1)
			word(math.Float64bits(pred))
		}
	}
	if declined == 0 || declined == 600 {
		t.Fatalf("corpus too narrow: %d of 600 declined", declined)
	}
	const want = 0x53096d9b5a04087b
	if got := h.Sum64(); got != want {
		t.Fatalf("prediction hash %#x, pinned %#x (%d declined)", got, uint64(want), declined)
	}
}
