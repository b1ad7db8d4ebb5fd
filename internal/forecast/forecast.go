// Package forecast defines the pluggable time-series predictor the
// hybrid policy uses for applications whose idle times exceed the
// histogram range. The paper uses auto-ARIMA but notes "we can easily
// replace ARIMA with another model" (§4.2); this package provides the
// interface plus three implementations: ARIMA (the default),
// Holt-style exponential smoothing, and a naive mean baseline.
package forecast

import (
	"repro/internal/arima"
	"repro/internal/stats"
)

// Forecaster predicts the next value of a (positive) series.
type Forecaster interface {
	// Name identifies the model in reports.
	Name() string
	// PredictNext returns the one-step-ahead prediction; ok is false
	// when the series is too short or the model cannot be fit.
	PredictNext(series []float64) (pred float64, ok bool)
}

// ARIMA is the paper's default: an auto-fit ARIMA model (AIC order
// search), rebuilt on each call as the paper rebuilds its model after
// every invocation of an ARIMA-managed app.
type ARIMA struct {
	// Options bounds the order search (zero value = package defaults).
	Options arima.Options
}

// Name implements Forecaster.
func (ARIMA) Name() string { return "arima" }

// PredictNext implements Forecaster.
func (f ARIMA) PredictNext(series []float64) (float64, bool) {
	model, err := arima.Fit(series, f.Options)
	if err != nil {
		return 0, false
	}
	pred := model.ForecastNext()
	if pred <= 0 {
		return 0, false
	}
	return pred, true
}

// ExpSmoothing is Holt's linear exponential smoothing: level plus
// (damped) trend, a cheap alternative to ARIMA.
type ExpSmoothing struct {
	// Alpha is the level smoothing factor (default 0.5).
	Alpha float64
	// Beta is the trend smoothing factor (default 0.1).
	Beta float64
	// Damping multiplies the trend at forecast time (default 0.9).
	Damping float64
	// MinSamples is the minimum series length (default 3).
	MinSamples int
}

// Name implements Forecaster.
func (ExpSmoothing) Name() string { return "expsmooth" }

// PredictNext implements Forecaster.
func (f ExpSmoothing) PredictNext(series []float64) (float64, bool) {
	alpha, beta, damp, minN := f.Alpha, f.Beta, f.Damping, f.MinSamples
	if alpha == 0 {
		alpha = 0.5
	}
	if beta == 0 {
		beta = 0.1
	}
	if damp == 0 {
		damp = 0.9
	}
	if minN == 0 {
		minN = 3
	}
	if len(series) < minN {
		return 0, false
	}
	if alpha < 0 || alpha > 1 || beta < 0 || beta > 1 {
		return 0, false
	}
	level := series[0]
	trend := series[1] - series[0]
	for _, x := range series[1:] {
		prevLevel := level
		level = alpha*x + (1-alpha)*(level+trend)
		trend = beta*(level-prevLevel) + (1-beta)*trend
	}
	pred := level + damp*trend
	if pred <= 0 {
		return 0, false
	}
	return pred, true
}

// Mean is the naive baseline: predict the series mean.
type Mean struct {
	// MinSamples is the minimum series length (default 3).
	MinSamples int
}

// Name implements Forecaster.
func (Mean) Name() string { return "mean" }

// PredictNext implements Forecaster.
func (f Mean) PredictNext(series []float64) (float64, bool) {
	minN := f.MinSamples
	if minN == 0 {
		minN = 3
	}
	if len(series) < minN {
		return 0, false
	}
	m := stats.Mean(series)
	if m <= 0 {
		return 0, false
	}
	return m, true
}
