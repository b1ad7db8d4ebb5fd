//go:build !race

// The race detector drops sync.Pool puts at random, so fitCtxPool is
// not reused reliably under -race.

package arima

import "testing"

// TestFitAllocs pins, over every tenth series of the bit-pin corpus,
// that a warm search allocates nothing: Fit's only allocations are the
// model it returns (the Model, AR, MA and the series copy), and
// FitForecastNext and ForecastNext allocate none.
func TestFitAllocs(t *testing.T) {
	for _, opt := range pinOptions {
		for i, xs := range pinSeries() {
			if i%10 != 0 {
				continue
			}
			m, err := Fit(xs, opt)
			if err != nil {
				continue
			}
			want := 2.0 // Model and series
			if m.P > 0 {
				want++
			}
			if m.Q > 0 {
				want++
			}
			if a := testing.AllocsPerRun(20, func() { Fit(xs, opt) }); a > want {
				t.Fatalf("Fit(%d points, %+v) = (%d,%d,%d): %v allocs/op, want <= %v", len(xs), opt, m.P, m.D, m.Q, a, want)
			}
			if a := testing.AllocsPerRun(20, func() { FitForecastNext(xs, opt) }); a != 0 {
				t.Fatalf("FitForecastNext(%d points, %+v): %v allocs/op, want 0", len(xs), opt, a)
			}
			if a := testing.AllocsPerRun(20, func() { m.ForecastNext() }); a != 0 {
				t.Fatalf("ForecastNext: %v allocs/op, want 0", a)
			}
		}
	}
}
