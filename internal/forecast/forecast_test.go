package forecast

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func constantSeries(v float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestAllForecastersOnConstantSeries(t *testing.T) {
	series := constantSeries(300, 20)
	for _, f := range []Forecaster{ARIMA{}, ExpSmoothing{}, Mean{}} {
		pred, ok := f.PredictNext(series)
		if !ok {
			t.Fatalf("%s: no prediction", f.Name())
		}
		if math.Abs(pred-300) > 5 {
			t.Fatalf("%s: pred = %v, want ~300", f.Name(), pred)
		}
	}
}

func TestAllForecastersTooShort(t *testing.T) {
	for _, f := range []Forecaster{ARIMA{}, ExpSmoothing{}, Mean{}} {
		if _, ok := f.PredictNext([]float64{1}); ok {
			t.Fatalf("%s: predicted from a singleton", f.Name())
		}
	}
}

func TestExpSmoothingTracksTrend(t *testing.T) {
	// Series climbing 10 per step: prediction should exceed the last
	// value (trend extrapolation).
	series := make([]float64, 20)
	for i := range series {
		series[i] = 100 + 10*float64(i)
	}
	pred, ok := ExpSmoothing{}.PredictNext(series)
	if !ok {
		t.Fatal("no prediction")
	}
	last := series[len(series)-1]
	if pred <= last || pred > last+20 {
		t.Fatalf("pred = %v, want in (%v, %v]", pred, last, last+20)
	}
	// Mean lags badly on trends; exponential smoothing must beat it.
	meanPred, _ := Mean{}.PredictNext(series)
	next := last + 10
	if math.Abs(pred-next) >= math.Abs(meanPred-next) {
		t.Fatalf("expsmooth error %v not better than mean error %v",
			math.Abs(pred-next), math.Abs(meanPred-next))
	}
}

func TestExpSmoothingRejectsNonPositivePrediction(t *testing.T) {
	// Steeply falling series can predict <= 0: must return !ok.
	series := []float64{100, 50, 10, 1, 0.1, 0.01}
	if pred, ok := (ExpSmoothing{}).PredictNext(series); ok && pred <= 0 {
		t.Fatalf("non-positive prediction %v reported ok", pred)
	}
}

func TestExpSmoothingBadParams(t *testing.T) {
	if _, ok := (ExpSmoothing{Alpha: 2}).PredictNext(constantSeries(5, 10)); ok {
		t.Fatal("alpha out of range should fail")
	}
}

func TestMeanNonPositive(t *testing.T) {
	if _, ok := (Mean{}).PredictNext([]float64{-1, -2, -3}); ok {
		t.Fatal("non-positive mean should fail")
	}
}

func TestARIMAOnNoisyPeriodicITs(t *testing.T) {
	r := stats.NewRNG(3)
	series := make([]float64, 40)
	for i := range series {
		series[i] = 720 + 10*r.NormFloat64() // ~12h in minutes
	}
	pred, ok := ARIMA{}.PredictNext(series)
	if !ok {
		t.Fatal("no prediction")
	}
	if math.Abs(pred-720) > 30 {
		t.Fatalf("pred = %v, want ~720", pred)
	}
}

// BenchmarkExpSmoothingFit measures the cheap forecaster alternative
// (bench/'s arima.fit_us is the ARIMA side).
func BenchmarkExpSmoothingFit(b *testing.B) {
	r := stats.NewRNG(6)
	series := make([]float64, 50)
	for i := range series {
		series[i] = 300 + 20*r.NormFloat64()
	}
	fc := ExpSmoothing{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := fc.PredictNext(series); !ok {
			b.Fatal("no prediction")
		}
	}
}
