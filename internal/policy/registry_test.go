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
	pol, err := FromSpec("nounload")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pol.(NoUnloading); !ok {
		t.Fatalf("nounload built %T", pol)
	}
}

func TestFromSpecHybrid(t *testing.T) {
	pol, err := FromSpec("hybrid?range=2h&cv=5&head=1&tail=95&arima=off&prewarm=off")
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
		// NaN fails every range check, so it is refused at parse time.
		{"hybrid?head=NaN", "parameter head: NaN"},
		{"hybrid?tail=NaN", "parameter tail: NaN"},
		{"hybrid?cv=NaN", "parameter cv: NaN"},
		{"hybrid?arima=maybe", "invalid boolean"},
		{"hybrid?forecaster=lstm", "unknown \"lstm\""},
		{"hybrid?exact=maybe", "invalid boolean"},
		{"hybrid?refit=1m", "requires exact=off"},
		{"hybrid?exact=off&refit=-1m", "non-negative"},
		{"hybrid?range=90s", "parameter range"},
		{"hybrid?range=30s", "parameter range"},
		{"hybrid?range=0", "parameter range"},
		{"hybrid?range=-1h", "parameter range"},
		{"hybrid?range=4h&bins=10", "unknown parameters [bins]"},
		// The whole hybrid vocabulary.
		{"hybrid?x=1", "(known: [arima cv exact forecaster head prewarm range refit tail])"},
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

func TestMustFromSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromSpec did not panic on bad spec")
		}
	}()
	MustFromSpec("definitely-not-registered")
}
