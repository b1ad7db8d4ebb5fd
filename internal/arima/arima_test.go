package arima

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestDifference(t *testing.T) {
	var ctx fitCtx
	xs := []float64{1, 3, 6, 10}
	d1 := ctx.differenceInto(xs, 1)
	want := []float64{2, 3, 4}
	for i := range want {
		if d1[i] != want[i] {
			t.Fatalf("d1 = %v", d1)
		}
	}
	if d2 := ctx.differenceInto(xs, 2); len(d2) != 2 || d2[0] != 1 || d2[1] != 1 {
		t.Fatalf("d2 = %v", d2)
	}
	if ctx.differenceInto([]float64{5}, 1) != nil {
		t.Fatal("differencing a singleton should give nil")
	}
	d0 := ctx.differenceInto(xs, 0)
	if len(d0) != 4 {
		t.Fatal("d=0 should copy")
	}
	d0[0] = 99
	if xs[0] != 1 {
		t.Fatal("differenceInto must not alias input")
	}
}

// fitOrder fits a fixed-order ARIMA(p,d,q) through the steps Fit runs
// for each candidate of its order search: length gate, differenceInto,
// de-mean, fitARMA.
func fitOrder(series []float64, p, d, q int) (*Model, error) {
	lenW := len(series) - d
	if lenW < 2 || lenW < needObs(p, d, q) {
		return nil, ErrTooShort
	}
	ctx := getFitCtx()
	defer putFitCtx(ctx)
	w := ctx.differenceInto(series, d)
	mean := stats.Mean(w)
	centered := make([]float64, len(w))
	for i, v := range w {
		centered[i] = v - mean
	}
	m, err := fitARMA(ctx, centered, mean, p, d, q)
	if err != nil {
		return nil, err
	}
	m.AR, m.MA = owned(m.AR), owned(m.MA) // they alias ctx
	m.series = append([]float64(nil), series...)
	return &m, nil
}

// genAR produces a synthetic AR(1) series with the given coefficient.
func genAR(phi float64, n int, seed uint64) []float64 {
	r := stats.NewRNG(seed)
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = phi*xs[i-1] + r.NormFloat64()
	}
	return xs
}

func TestFitOrderAR1Recovery(t *testing.T) {
	xs := genAR(0.7, 2000, 42)
	m, err := fitOrder(xs, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AR[0]-0.7) > 0.05 {
		t.Fatalf("phi = %v, want ~0.7", m.AR[0])
	}
	if m.Sigma2 < 0.9 || m.Sigma2 > 1.1 {
		t.Fatalf("sigma2 = %v, want ~1", m.Sigma2)
	}
}

func TestFitOrderMA1Recovery(t *testing.T) {
	r := stats.NewRNG(7)
	n := 3000
	xs := make([]float64, n)
	prevEps := 0.0
	for i := 0; i < n; i++ {
		eps := r.NormFloat64()
		xs[i] = eps + 0.6*prevEps
		prevEps = eps
	}
	m, err := fitOrder(xs, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.MA[0]-0.6) > 0.08 {
		t.Fatalf("theta = %v, want ~0.6", m.MA[0])
	}
}

func TestFitOrderWithDrift(t *testing.T) {
	// Random walk with drift 2: ARIMA(0,1,0) should forecast +2 steps.
	r := stats.NewRNG(9)
	n := 500
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = xs[i-1] + 2 + 0.1*r.NormFloat64()
	}
	m, err := fitOrder(xs, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc := m.Forecast(3)
	last := xs[n-1]
	for i, f := range fc {
		want := last + 2*float64(i+1)
		if math.Abs(f-want) > 0.5 {
			t.Fatalf("forecast[%d] = %v, want ~%v", i, f, want)
		}
	}
}

func TestFitOrderErrors(t *testing.T) {
	if _, err := fitOrder([]float64{1, 2}, 3, 0, 0); err != ErrTooShort {
		t.Fatalf("want ErrTooShort, got %v", err)
	}
}

func TestFitAutoSelectsReasonableModel(t *testing.T) {
	xs := genAR(0.8, 800, 11)
	m, err := Fit(xs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The chosen model must forecast better than the unconditional mean.
	train, test := xs[:700], xs[700:]
	mt, err := fitOrder(train, m.P, m.D, m.Q)
	if err != nil {
		t.Fatal(err)
	}
	fc := mt.Forecast(1)[0]
	naive := stats.Mean(train)
	errModel := math.Abs(fc - test[0])
	errNaive := math.Abs(naive - test[0])
	// One-step AR forecasts should usually beat the mean for phi=0.8;
	// allow slack since it's a single draw.
	if errModel > errNaive+1.5 {
		t.Fatalf("model error %v much worse than naive %v", errModel, errNaive)
	}
}

func TestFitTooShort(t *testing.T) {
	if _, err := Fit([]float64{1}, Options{}); err == nil {
		t.Fatal("expected error for 1-point series")
	}
}

func TestFitShortSeriesStillWorks(t *testing.T) {
	// The policy calls ARIMA with few ITs; ensure a small series fits
	// something (possibly (0,0,0) = mean model).
	xs := []float64{300, 310, 295, 305, 302, 299, 304, 301}
	m, err := Fit(xs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fc := m.ForecastNext()
	if fc < 250 || fc > 350 {
		t.Fatalf("forecast = %v, want near 300", fc)
	}
}

func TestForecastMeanModel(t *testing.T) {
	xs := []float64{10, 12, 8, 11, 9, 10, 10, 12, 8}
	m, err := fitOrder(xs, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc := m.Forecast(5)
	mean := stats.Mean(xs)
	for _, f := range fc {
		if math.Abs(f-mean) > 1e-9 {
			t.Fatalf("mean-model forecast = %v, want %v", f, mean)
		}
	}
}

func TestForecastPeriodicITs(t *testing.T) {
	// An app invoked every ~60 min with slight noise: forecast should be
	// near 60 regardless of exact order chosen.
	r := stats.NewRNG(3)
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 60 + r.NormFloat64()
	}
	m, err := Fit(xs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fc := m.ForecastNext(); math.Abs(fc-60) > 3 {
		t.Fatalf("forecast = %v, want ~60", fc)
	}
}

func TestForecastHZeroOrNegative(t *testing.T) {
	m, err := fitOrder([]float64{1, 2, 3, 4, 5, 6}, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Forecast(0) != nil || m.Forecast(-1) != nil {
		t.Fatal("h<=0 should return nil")
	}
}

func TestAICPrefersParsimonyOnWhiteNoise(t *testing.T) {
	r := stats.NewRNG(33)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	m, err := Fit(xs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.P+m.Q > 2 {
		t.Fatalf("white noise fitted with (%d,%d,%d); AIC should prefer small orders",
			m.P, m.D, m.Q)
	}
}

func TestForecastStationarity(t *testing.T) {
	// Long-horizon forecasts of a stationary AR model converge to the mean.
	xs := genAR(0.6, 1000, 55)
	for i := range xs {
		xs[i] += 50
	}
	m, err := fitOrder(xs, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc := m.Forecast(200)
	if math.Abs(fc[199]-50) > 2 {
		t.Fatalf("long-run forecast = %v, want ~50", fc[199])
	}
}
