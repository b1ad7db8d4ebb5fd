package policy

import (
	"fmt"
	"time"

	"repro/internal/forecast"
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

// SpecParams carries a spec's parsed parameters to a Builder. Typed
// accessors record which keys were consumed; FromSpec rejects specs
// with leftover (misspelled) keys afterwards.
type SpecParams = spec.Params

// Builder constructs a policy from a spec's parameters.
type Builder func(p *SpecParams) (Policy, error)

var registry = spec.NewRegistry[Policy]("policy: unknown policy", "policy: spec")

// Register adds a named policy builder. Downstream users extend the
// spec language with their own policies the same way the built-ins
// are wired. Registering a duplicate name panics (programming error).
func Register(name string, b Builder) { registry.Register(name, b) }

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

// Built-in policies.
func init() {
	Register("fixed", buildFixed)
	Register("nounload", buildNoUnload)
	Register("no-unloading", buildNoUnload)
	Register("hybrid", buildHybrid)
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
//	range     histogram range (duration; NumBins = range / binwidth)
//	binwidth  histogram bin width (duration, default 1m)
//	bins      histogram bin count (overrides range)
//	head      pre-warm cutoff percentile
//	tail      keep-alive cutoff percentile
//	margin    window widening fraction
//	cv        representativeness (CV) threshold
//	oob       out-of-bounds fraction switching to the forecast path
//	arima     on/off — off disables the time-series path (Figure 19)
//	arima-margin  forecast error allowance
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
	binWidth, err := p.Duration("binwidth", cfg.Histogram.BinWidth)
	if err != nil {
		return nil, err
	}
	cfg.Histogram.BinWidth = binWidth
	if histRange, err := p.Duration("range", 0); err != nil {
		return nil, err
	} else if histRange > 0 {
		if binWidth <= 0 {
			return nil, fmt.Errorf("parameter binwidth: must be positive, got %v", binWidth)
		}
		cfg.Histogram.NumBins = int(histRange / binWidth)
	}
	if cfg.Histogram.NumBins, err = p.Int("bins", cfg.Histogram.NumBins); err != nil {
		return nil, err
	}
	if cfg.Histogram.HeadPercentile, err = p.Float("head", cfg.Histogram.HeadPercentile); err != nil {
		return nil, err
	}
	if cfg.Histogram.TailPercentile, err = p.Float("tail", cfg.Histogram.TailPercentile); err != nil {
		return nil, err
	}
	if cfg.Histogram.Margin, err = p.Float("margin", cfg.Histogram.Margin); err != nil {
		return nil, err
	}
	if cfg.CVThreshold, err = p.Float("cv", cfg.CVThreshold); err != nil {
		return nil, err
	}
	if cfg.OOBThreshold, err = p.Float("oob", cfg.OOBThreshold); err != nil {
		return nil, err
	}
	if cfg.ARIMAMargin, err = p.Float("arima-margin", cfg.ARIMAMargin); err != nil {
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
