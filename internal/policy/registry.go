package policy

import (
	"fmt"
	"time"

	"repro/internal/forecast"
	"repro/internal/ithist"
	"repro/internal/spec"
)

// The policy registry maps short names to builders so every binary,
// example and experiment selects and configures policies through one
// parsed-spec path instead of hand-rolling flag plumbing. A spec is
//
//	name?key=value&key=value
//
// with URL query syntax, e.g. "fixed?ka=20m", "hybrid?cv=2&range=4h",
// "hybrid?arima=off". Unknown names and unknown keys are errors (a
// typo fails fast instead of silently simulating the default).
//
// The grammar and parameter machinery are shared with every other
// component registry (placements, trace sources, metric sinks) via
// internal/spec.

// SpecParams carries a spec's parsed parameters to a builder. Typed
// accessors record which keys were consumed; FromSpec rejects specs
// with leftover (misspelled) keys afterwards.
type SpecParams = spec.Params

var registry = spec.NewRegistry("policy: unknown policy", "policy: spec", map[string]func(*SpecParams) (Policy, error){
	"fixed":    buildFixed,
	"nounload": buildNoUnload,
	"hybrid":   buildHybrid,
})

// SpecNames returns the registered policy names, sorted.
func SpecNames() []string { return registry.Names() }

// FromSpec parses a policy spec ("hybrid?cv=2&range=4h") and builds
// the policy through the registry.
func FromSpec(s string) (Policy, error) { return registry.New(s) }

// MustFromSpec is FromSpec panicking on error, for code-supplied specs.
func MustFromSpec(spec string) Policy {
	pol, err := FromSpec(spec)
	if err != nil {
		panic(err)
	}
	return pol
}

// buildFixed builds the provider baseline: fixed?ka=10m.
func buildFixed(p *SpecParams) (Policy, error) {
	ka, err := p.Duration("ka", 10*time.Minute)
	if err != nil {
		return nil, err
	}
	if ka <= 0 {
		return nil, fmt.Errorf("parameter ka: must be positive, got %v", ka)
	}
	return FixedKeepAlive{KeepAlive: ka}, nil
}

func buildNoUnload(*SpecParams) (Policy, error) { return NoUnloading{}, nil }

// buildHybrid builds the paper's hybrid histogram policy. Keys:
//
//	range     histogram range, a positive whole number of minutes (one
//	          1-minute bin each; default 4h)
//	head      pre-warm cutoff percentile
//	tail      keep-alive cutoff percentile
//	cv        representativeness (CV) threshold
//	arima     on/off — off disables the time-series path (Figure 19)
//	prewarm   on/off — off is the "no PW, KA:99th" Figure 17 variant
//	forecaster    arima (default), ses (exponential smoothing) or mean
//	          (the mean idle time, Figure 19b's baseline forecaster)
//	exact     on/off — off acknowledges a departure from the paper's
//	          semantics and is required by a nonzero refit; on its own
//	          it changes nothing (kept so pre-PR-14 specs parse)
//	refit     amortized ARIMA refit interval in observed idle time
//	          (e.g. 1m); 0 (default) refits per invocation as §4.2
//	          mandates; nonzero requires exact=off
func buildHybrid(p *SpecParams) (Policy, error) {
	cfg := DefaultHybridConfig()
	histRange, err := p.Duration("range", ithist.BinWidth*time.Duration(cfg.Histogram.NumBins))
	if err != nil {
		return nil, err
	}
	if histRange <= 0 || histRange%ithist.BinWidth != 0 {
		return nil, fmt.Errorf("parameter range: must be a positive whole number of minutes, got %v", histRange)
	}
	cfg.Histogram.NumBins = int(histRange / ithist.BinWidth)
	if cfg.Histogram.HeadPercentile, err = p.Float("head", cfg.Histogram.HeadPercentile); err != nil {
		return nil, err
	}
	if cfg.Histogram.TailPercentile, err = p.Float("tail", cfg.Histogram.TailPercentile); err != nil {
		return nil, err
	}
	if cfg.CVThreshold, err = p.Float("cv", cfg.CVThreshold); err != nil {
		return nil, err
	}
	arimaOn, err := p.Bool("arima", true)
	if err != nil {
		return nil, err
	}
	cfg.DisableARIMA = !arimaOn
	preWarm, err := p.Bool("prewarm", true)
	if err != nil {
		return nil, err
	}
	cfg.DisablePreWarm = !preWarm
	exact, err := p.Bool("exact", true)
	if err != nil {
		return nil, err
	}
	if cfg.RefitInterval, err = p.Duration("refit", 0); err != nil {
		return nil, err
	}
	if cfg.RefitInterval < 0 {
		return nil, fmt.Errorf("parameter refit: must be non-negative, got %v", cfg.RefitInterval)
	}
	if cfg.RefitInterval > 0 && exact {
		return nil, fmt.Errorf("parameter refit: requires exact=off (amortized refits depart from §4.2's refit per invocation)")
	}
	switch fc := p.String("forecaster", "arima"); fc {
	case "arima":
		// cfg.Forecaster nil selects the paper's default ARIMA search.
	case "ses":
		cfg.Forecaster = forecast.ExpSmoothing{}
	case "mean":
		cfg.Forecaster = forecast.Mean{}
	default:
		return nil, fmt.Errorf("parameter forecaster: unknown %q (arima, ses, mean)", fc)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewHybrid(cfg), nil
}
