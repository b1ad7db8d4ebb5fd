package arima

import (
	"errors"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/stats"
)

// pinSeries returns the seeded corpus the bit pins run over: random
// walks, constants, timer-like idle times with jitter and missed beats,
// single spikes, AR(1) noise, and series of 0–3 points that fail with
// ErrTooShort. Lengths run 4–60 except for the too-short kind.
func pinSeries() [][]float64 {
	r := stats.NewRNG(5151)
	var out [][]float64
	for i := 0; i < 300; i++ {
		kind := i % 6
		n := 4 + r.Intn(57)
		if kind == 5 {
			n = r.Intn(4)
		}
		xs := make([]float64, n)
		switch kind {
		case 0: // random walk around a positive level
			v := 600 + 300*r.Float64()
			for j := range xs {
				v += 40 * r.NormFloat64()
				xs[j] = v
			}
		case 1: // constant
			c := float64(60 * (1 + r.Intn(120)))
			for j := range xs {
				xs[j] = c
			}
		case 2: // timer: a period with jitter and the odd missed beat
			period := float64(60 * (10 + r.Intn(300)))
			for j := range xs {
				xs[j] = period + 2*r.NormFloat64()
				if r.Bool(0.1) {
					xs[j] += period
				}
			}
		case 3: // a single spike on a flat base
			base := 100 + 900*r.Float64()
			for j := range xs {
				xs[j] = base
			}
			xs[r.Intn(n)] = base * (5 + 20*r.Float64())
		case 4: // AR(1) around a level
			phi := 1.8*r.Float64() - 0.9
			v := 0.0
			for j := range xs {
				v = phi*v + r.NormFloat64()
				xs[j] = 500 + 50*v
			}
		case 5: // too short for any order
			for j := range xs {
				xs[j] = 100 * r.Float64()
			}
		}
		out = append(out, xs)
	}
	return out
}

// pinOptions are the searches the pins run: the package defaults and
// the hybrid policy's bounds.
var pinOptions = []Options{{}, {MaxP: 2, MaxD: 1, MaxQ: 1}}

// TestFitBitsPinned pins the whole order search bit for bit: one FNV
// hash over every fit's error kind, chosen order, coefficients, mean,
// innovation variance, AIC and one-step forecast. Any change to the
// floating-point order of the estimators or the search moves it.
func TestFitBitsPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	floats := func(xs []float64) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(math.Float64bits(x))
		}
	}
	orders := map[[3]int]bool{}
	tooShort := 0
	for _, opt := range pinOptions {
		for _, xs := range pinSeries() {
			m, err := Fit(xs, opt)
			switch {
			case errors.Is(err, ErrTooShort):
				word(1)
				tooShort++
				continue
			case err != nil:
				word(2)
				continue
			}
			word(0)
			word(uint64(m.P))
			word(uint64(m.D))
			word(uint64(m.Q))
			floats(m.AR)
			floats(m.MA)
			floats([]float64{m.Mean, m.Sigma2, m.AIC, m.ForecastNext()})
			orders[[3]int{m.P, m.D, m.Q}] = true
		}
	}
	if tooShort == 0 || len(orders) < 8 {
		t.Fatalf("corpus too narrow: %d ErrTooShort, %d distinct orders", tooShort, len(orders))
	}
	const want = 0x8360284000e6b18
	if got := h.Sum64(); got != want {
		t.Fatalf("search hash %#x, pinned %#x (%d ErrTooShort, %d distinct orders)", got, uint64(want), tooShort, len(orders))
	}
}
