package policy

import (
	"testing"
	"time"

	"repro/internal/forecast"
)

// TestHybridWithAlternateForecasters verifies that the time-series
// path works with every pluggable forecaster (the §4.2 note that
// ARIMA "can easily be replaced with another model").
func TestHybridWithAlternateForecasters(t *testing.T) {
	for _, fc := range []forecast.Forecaster{
		forecast.ARIMA{}, forecast.ExpSmoothing{}, forecast.Mean{},
	} {
		cfg := DefaultHybridConfig()
		cfg.Forecaster = fc
		a := NewHybrid(cfg).NewApp("app")
		var d Decision
		first := true
		for i := 0; i < 12; i++ {
			d = a.NextWindows(6*time.Hour, first) // all OOB
			first = false
		}
		if d.Mode != ModeARIMA {
			t.Fatalf("%s: mode = %v, want arima path", fc.Name(), d.Mode)
		}
		// Prediction ~360min: window must straddle it.
		it := 6 * time.Hour
		if d.PreWarm > it || d.PreWarm+d.KeepAlive < it {
			t.Fatalf("%s: window [%v, %v] does not straddle %v",
				fc.Name(), d.PreWarm, d.PreWarm+d.KeepAlive, it)
		}
	}
}

// TestHybridForecasterReducesAlwaysCold compares the full hybrid with
// exponential smoothing against the no-forecast ablation on a rare,
// regular app: the forecaster must produce warm starts.
func TestHybridForecasterReducesAlwaysCold(t *testing.T) {
	run := func(cfg HybridConfig) int {
		a := NewHybrid(cfg).NewApp("app")
		cold := 0
		var d Decision
		first := true
		it := 8 * time.Hour
		for i := 0; i < 15; i++ {
			if i > 0 {
				// Warm iff the window straddles the actual idle time.
				if d.Mode == ModeStandard {
					if it > d.KeepAlive {
						cold++
					}
				} else if d.PreWarm > it || d.PreWarm+d.KeepAlive < it {
					cold++
				}
			} else {
				cold++
			}
			d = a.NextWindows(it, first)
			first = false
		}
		return cold
	}
	withFC := DefaultHybridConfig()
	withFC.Forecaster = forecast.ExpSmoothing{}
	noFC := DefaultHybridConfig()
	noFC.DisableARIMA = true
	if run(withFC) >= run(noFC) {
		t.Fatalf("forecaster colds %d should beat no-forecast %d", run(withFC), run(noFC))
	}
}

// TestShareForecasts: the memo reaches exactly the hybrid policies on
// the default ARIMA forecaster with the time-series path on, and the
// decisions it serves are the unmemoized ones, including for a second
// app replaying the first one's series from the memo.
func TestShareForecasts(t *testing.T) {
	for spec, want := range map[string]bool{
		"hybrid":                    true,
		"hybrid?range=2h":           true,
		"hybrid?exact=off&refit=1m": true,
		"hybrid?forecaster=ses":     false,
		"hybrid?forecaster=mean":    false,
		"hybrid?arima=off":          false,
		"fixed?ka=10m":              false,
		"nounload":                  false,
	} {
		p := MustFromSpec(spec)
		memo := NewForecastMemo()
		ShareForecasts(p, memo)
		h, ok := p.(*Hybrid)
		if got := ok && h.fc == forecast.Forecaster(memo); got != want {
			t.Errorf("%s: memo shared = %v, want %v", spec, got, want)
		}
		if ok {
			ShareForecasts(MustFromSpec(spec), nil) // a nil memo is a no-op
		}
	}

	idles := make([]time.Duration, 30)
	for i := range idles {
		idles[i] = 5*time.Hour + time.Duration(i%7)*13*time.Minute // all OOB
	}
	decide := func(p Policy) []Decision {
		a := p.NewApp("app")
		out := make([]Decision, len(idles))
		for i, it := range idles {
			out[i] = a.NextWindows(it, i == 0)
		}
		return out
	}
	plain := decide(MustFromSpec("hybrid"))
	shared := MustFromSpec("hybrid")
	ShareForecasts(shared, NewForecastMemo())
	for round := 0; round < 2; round++ {
		got := decide(shared)
		for i := range got {
			if got[i] != plain[i] {
				t.Fatalf("round %d, decision %d: %+v with the memo, %+v without", round, i, got[i], plain[i])
			}
		}
	}
	if plain[len(plain)-1].Mode != ModeARIMA {
		t.Fatalf("last decision %+v, want the ARIMA path", plain[len(plain)-1])
	}
}
