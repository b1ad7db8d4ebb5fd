package policy

import (
	"strings"
	"testing"
	"time"

	"repro/internal/forecast"
)

func TestFromSpecFixed(t *testing.T) {
	pol, err := FromSpec("fixed?ka=20m")
	if err != nil {
		t.Fatal(err)
	}
	fk, ok := pol.(FixedKeepAlive)
	if !ok {
		t.Fatalf("built %T", pol)
	}
	if fk.KeepAlive != 20*time.Minute {
		t.Fatalf("ka = %v", fk.KeepAlive)
	}
	// Default.
	pol, err = FromSpec("fixed")
	if err != nil {
		t.Fatal(err)
	}
	if pol.(FixedKeepAlive).KeepAlive != 10*time.Minute {
		t.Fatalf("default ka = %v", pol.(FixedKeepAlive).KeepAlive)
	}
}

func TestFromSpecNoUnload(t *testing.T) {
	for _, spec := range []string{"nounload", "no-unloading"} {
		pol, err := FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := pol.(NoUnloading); !ok {
			t.Fatalf("%s built %T", spec, pol)
		}
	}
}

func TestFromSpecHybrid(t *testing.T) {
	pol, err := FromSpec("hybrid?range=2h&cv=5&head=1&tail=95&margin=0.2&oob=0.3&arima-margin=0.25&arima=off&prewarm=off")
	if err != nil {
		t.Fatal(err)
	}
	h, ok := pol.(*Hybrid)
	if !ok {
		t.Fatalf("built %T", pol)
	}
	cfg := h.Config()
	if cfg.Histogram.NumBins != 120 {
		t.Fatalf("bins = %d", cfg.Histogram.NumBins)
	}
	if cfg.CVThreshold != 5 || cfg.Histogram.HeadPercentile != 1 || cfg.Histogram.TailPercentile != 95 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Histogram.Margin != 0.2 || cfg.OOBThreshold != 0.3 || cfg.ARIMAMargin != 0.25 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if !cfg.DisableARIMA || !cfg.DisablePreWarm {
		t.Fatalf("toggles: %+v", cfg)
	}
}

// TestFromSpecHybridDefaultMatchesConstructor pins that the registry's
// default hybrid is the same policy as the hand-built one.
func TestFromSpecHybridDefaultMatchesConstructor(t *testing.T) {
	pol, err := FromSpec("hybrid")
	if err != nil {
		t.Fatal(err)
	}
	want := NewHybrid(DefaultHybridConfig())
	if pol.Name() != want.Name() {
		t.Fatalf("name %q, want %q", pol.Name(), want.Name())
	}
	if pol.(*Hybrid).Config() != want.Config() {
		t.Fatalf("config %+v, want %+v", pol.(*Hybrid).Config(), want.Config())
	}
}

func TestFromSpecHybridForecaster(t *testing.T) {
	for spec, want := range map[string]forecast.Forecaster{
		"hybrid?forecaster=ses":  forecast.ExpSmoothing{},
		"hybrid?forecaster=mean": forecast.Mean{},
	} {
		pol, err := FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := pol.(*Hybrid).Config().Forecaster; got != want {
			t.Fatalf("%s: forecaster = %T, want %T", spec, got, want)
		}
	}
}

func TestFromSpecErrors(t *testing.T) {
	cases := []struct {
		spec    string
		wantSub string
	}{
		{"warmforever", "unknown policy"},
		{"fixed?keepalive=10m", "unknown parameters [keepalive]"},
		{"fixed?ka=bogus", "parameter ka"},
		{"fixed?ka=-5m", "must be positive"},
		{"hybrid?cv=abc", "parameter cv"},
		{"hybrid?arima=maybe", "invalid boolean"},
		{"hybrid?forecaster=lstm", "unknown \"lstm\""},
		{"hybrid?exact=maybe", "invalid boolean"},
		{"hybrid?refit=1m", "requires exact=off"},
		{"hybrid?exact=off&refit=-1m", "non-negative"},
		{"hybrid?bins=0", "NumBins"},
		{"hybrid?range=4h&binwidth=0s", "binwidth"},
		{"nounload?ka=1m", "unknown parameters [ka]"},
		{"fixed?ka=10m&ka2=3", "unknown parameters [ka2]"},
	}
	for _, c := range cases {
		_, err := FromSpec(c.spec)
		if err == nil {
			t.Errorf("spec %q: no error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("spec %q: error %q missing %q", c.spec, err, c.wantSub)
		}
	}
}

func TestRegisterCustomAndDuplicate(t *testing.T) {
	Register("test-custom", func(p *SpecParams) (Policy, error) {
		ka, err := p.Duration("ka", time.Minute)
		if err != nil {
			return nil, err
		}
		return FixedKeepAlive{KeepAlive: ka}, nil
	})
	pol, err := FromSpec("test-custom?ka=90s")
	if err != nil {
		t.Fatal(err)
	}
	if pol.(FixedKeepAlive).KeepAlive != 90*time.Second {
		t.Fatalf("custom ka = %v", pol.(FixedKeepAlive).KeepAlive)
	}
	found := false
	for _, n := range SpecNames() {
		if n == "test-custom" {
			found = true
		}
	}
	if !found {
		t.Fatal("test-custom not listed in SpecNames")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("test-custom", func(*SpecParams) (Policy, error) { return NoUnloading{}, nil })
}

func TestMustFromSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromSpec did not panic on bad spec")
		}
	}()
	MustFromSpec("definitely-not-registered")
}
