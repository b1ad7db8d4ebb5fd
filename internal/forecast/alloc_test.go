//go:build !race

// The race detector drops sync.Pool puts at random, so the pooled
// arima scratch is not reused reliably under -race.

package forecast

import (
	"testing"

	"repro/internal/arima"
)

// TestARIMAPredictNextAllocs pins the per-invocation refit of an
// ARIMA-managed app at zero allocations once the pooled scratch is
// warm (73 on this series when every candidate, simplex and solution
// was allocated).
func TestARIMAPredictNextAllocs(t *testing.T) {
	f := ARIMA{Options: arima.Options{MaxP: 2, MaxD: 1, MaxQ: 1}}
	series := make([]float64, 25)
	for i := range series {
		series[i] = 1800 + float64(i%7)*35 - float64(i%3)*50
	}
	if _, ok := f.PredictNext(series); !ok {
		t.Fatal("no prediction")
	}
	if a := testing.AllocsPerRun(200, func() { f.PredictNext(series) }); a != 0 {
		t.Fatalf("ARIMA.PredictNext on 25 points: %v allocs/op, want 0", a)
	}
}
