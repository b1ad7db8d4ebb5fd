package policy

import (
	"math"
	"testing"
	"time"

	"repro/internal/ithist"
	"repro/internal/stats"
)

func TestDefaultHybridConfigValid(t *testing.T) {
	if err := DefaultHybridConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHybridConfigValidation(t *testing.T) {
	mk := func(mut func(*HybridConfig)) HybridConfig {
		c := DefaultHybridConfig()
		mut(&c)
		return c
	}
	bad := []HybridConfig{
		mk(func(c *HybridConfig) { c.Histogram.NumBins = 0 }),
		mk(func(c *HybridConfig) { c.CVThreshold = -1 }),
		mk(func(c *HybridConfig) { c.CVThreshold = math.NaN() }),
		mk(func(c *HybridConfig) { c.Histogram.TailPercentile = 101 }),
		mk(func(c *HybridConfig) { c.RefitInterval = -time.Minute }),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNewHybridPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHybrid(HybridConfig{})
}

func TestHybridFirstInvocationIsStandard(t *testing.T) {
	a := NewHybrid(DefaultHybridConfig()).NewApp("app")
	d := a.NextWindows(0, true)
	if d.Mode != ModeStandard {
		t.Fatalf("mode = %v, want standard", d.Mode)
	}
	if d.PreWarm != 0 {
		t.Fatalf("preWarm = %v", d.PreWarm)
	}
	if d.KeepAlive != 4*time.Hour {
		t.Fatalf("keepAlive = %v, want histogram range", d.KeepAlive)
	}
}

func TestHybridLearnsConcentratedPattern(t *testing.T) {
	a := NewHybrid(DefaultHybridConfig()).NewApp("app")
	var d Decision
	first := true
	for i := 0; i < 20; i++ {
		d = a.NextWindows(30*time.Minute+15*time.Second, first)
		first = false
	}
	if d.Mode != ModeHistogram {
		t.Fatalf("mode = %v, want histogram", d.Mode)
	}
	// Head bin 30 → pre-warm 30min*0.9 = 27min.
	if d.PreWarm != 27*time.Minute {
		t.Fatalf("preWarm = %v, want 27m", d.PreWarm)
	}
	// Tail edge 31min*1.1 = 34.1min; KA = 34.1-27 = 7.1min.
	tail := 31 * time.Minute
	wantKA := time.Duration(float64(tail)*1.1) - 27*time.Minute
	if d.KeepAlive != wantKA {
		t.Fatalf("keepAlive = %v, want %v", d.KeepAlive, wantKA)
	}
}

func TestHybridFlatPatternStaysStandard(t *testing.T) {
	// ITs spread uniformly over the full range: CV of bin counts stays
	// below the threshold, so the policy must remain conservative.
	cfg := DefaultHybridConfig()
	a := NewHybrid(cfg).NewApp("app")
	r := stats.NewRNG(42)
	var d Decision
	first := true
	for i := 0; i < 960; i++ { // ~4 observations/bin on average
		it := time.Duration(r.Float64() * float64(4*time.Hour))
		d = a.NextWindows(it, first)
		first = false
	}
	if d.Mode != ModeStandard {
		t.Fatalf("mode = %v, want standard for flat ITs", d.Mode)
	}
	if d.KeepAlive != 4*time.Hour || d.PreWarm != 0 {
		t.Fatalf("standard windows wrong: %+v", d)
	}
}

func TestHybridOOBHeavyUsesARIMA(t *testing.T) {
	// All ITs ~6h, beyond the 4h range: OOB fraction 1 → ARIMA path.
	a := NewHybrid(DefaultHybridConfig()).NewApp("app")
	var d Decision
	first := true
	r := stats.NewRNG(7)
	for i := 0; i < 12; i++ {
		it := 6*time.Hour + time.Duration(r.Float64()*float64(4*time.Minute))
		d = a.NextWindows(it, first)
		first = false
	}
	if d.Mode != ModeARIMA {
		t.Fatalf("mode = %v, want arima", d.Mode)
	}
	// Prediction ~362min; pre-warm = 85% of it, keep-alive = 30%.
	pw := d.PreWarm.Minutes()
	if pw < 0.85*340 || pw > 0.85*380 {
		t.Fatalf("preWarm = %v min", pw)
	}
	ka := d.KeepAlive.Minutes()
	if ka < 0.29*340 || ka > 0.31*380 {
		t.Fatalf("keepAlive = %v min", ka)
	}
	// Prediction ±margin is covered by [pw, pw+ka].
	if pw+ka < 362 || pw > 362 {
		t.Fatalf("window [%v, %v] does not straddle ~362min prediction", pw, pw+ka)
	}
}

func TestHybridARIMAMarginExample(t *testing.T) {
	// The paper's worked example: predicted IT of 5 hours gives a
	// pre-warming window of 4.25h and keep-alive of 1.5h.
	cfg := DefaultHybridConfig()
	a := NewHybrid(cfg).NewApp("app").(*hybridApp)
	for i := 0; i < 10; i++ {
		a.pushIT(5 * time.Hour) // constant series
	}
	d, ok := a.arimaDecision()
	if !ok {
		t.Fatal("expected ARIMA decision")
	}
	if math.Abs(d.PreWarm.Hours()-4.25) > 0.01 {
		t.Fatalf("preWarm = %v, want 4.25h", d.PreWarm)
	}
	if math.Abs(d.KeepAlive.Hours()-1.5) > 0.01 {
		t.Fatalf("keepAlive = %v, want 1.5h", d.KeepAlive)
	}
}

func TestHybridDisableARIMAFallsBack(t *testing.T) {
	cfg := DefaultHybridConfig()
	cfg.DisableARIMA = true
	a := NewHybrid(cfg).NewApp("app")
	var d Decision
	first := true
	for i := 0; i < 12; i++ {
		d = a.NextWindows(6*time.Hour, first)
		first = false
	}
	if d.Mode != ModeStandard {
		t.Fatalf("mode = %v, want standard with ARIMA disabled", d.Mode)
	}
}

func TestHybridTooFewSamplesForARIMA(t *testing.T) {
	a := NewHybrid(DefaultHybridConfig()).NewApp("app")
	d := a.NextWindows(0, true)
	d = a.NextWindows(10*time.Hour, false)
	d = a.NextWindows(10*time.Hour, false) // 2 OOB ITs < ARIMAMinSamples
	if d.Mode != ModeStandard {
		t.Fatalf("mode = %v, want standard before enough ARIMA samples", d.Mode)
	}
}

func TestHybridSeriesCapped(t *testing.T) {
	a := NewHybrid(DefaultHybridConfig()).NewApp("app").(*hybridApp)
	first := true
	for i := 0; i < ARIMAMaxSeries+50; i++ {
		a.NextWindows(time.Minute, first)
		first = false
	}
	if len(a.its) != ARIMAMaxSeries {
		t.Fatalf("series len = %d, want the cap %d", len(a.its), ARIMAMaxSeries)
	}
}

func TestHybridRegimeChangeRecovers(t *testing.T) {
	// A pattern change floods new bins; once the new pattern dominates,
	// the histogram head should track the new IT.
	cfg := DefaultHybridConfig()
	p := NewHybrid(cfg)
	a := p.NewApp("app")
	first := true
	for i := 0; i < 50; i++ {
		a.NextWindows(10*time.Minute, first)
		first = false
	}
	var d Decision
	for i := 0; i < 500; i++ {
		d = a.NextWindows(60*time.Minute, false)
	}
	if d.Mode != ModeHistogram {
		t.Fatalf("mode = %v", d.Mode)
	}
	// Head should now be at the old 10min bin only if it is within the
	// 5th percentile; 50/550 ≈ 9% > 5%, so head remains at 10min bin;
	// after enough new observations the tail must cover 60 min.
	if d.PreWarm+d.KeepAlive < 60*time.Minute {
		t.Fatalf("windows [%v, %v] do not cover the new 60m IT", d.PreWarm, d.PreWarm+d.KeepAlive)
	}
}

func TestHybridName(t *testing.T) {
	p := NewHybrid(DefaultHybridConfig())
	if p.Name() != "hybrid-4h0m0s[5,99]" {
		t.Fatalf("name = %q", p.Name())
	}
	cfg := DefaultHybridConfig()
	cfg.DisableARIMA = true
	if got := NewHybrid(cfg).Name(); got != "hybrid-4h0m0s[5,99]-noarima" {
		t.Fatalf("name = %q", got)
	}
	// exact=off alone selects nothing, so it names nothing; only the
	// amortized refit is a different policy.
	if got := MustFromSpec("hybrid?exact=off").Name(); got != p.Name() {
		t.Fatalf("exact=off name = %q, want %q", got, p.Name())
	}
	if got := MustFromSpec("hybrid?exact=off&refit=1m").Name(); got != "hybrid-4h0m0s[5,99]-refit1m0s" {
		t.Fatalf("name = %q", got)
	}
}

func TestHybridCustomRange(t *testing.T) {
	cfg := DefaultHybridConfig()
	cfg.Histogram.NumBins = 60 // 1-hour range
	a := NewHybrid(cfg).NewApp("app")
	d := a.NextWindows(0, true)
	if d.KeepAlive != time.Hour {
		t.Fatalf("standard keep-alive = %v, want 1h (range)", d.KeepAlive)
	}
}

func TestHybridWindowsWithCustomCutoffs(t *testing.T) {
	// [0,100] cutoffs: windows must cover min..max ITs.
	cfg := DefaultHybridConfig()
	cfg.Histogram.HeadPercentile = 0
	cfg.Histogram.TailPercentile = 100
	cfg.CVThreshold = 0.5
	a := NewHybrid(cfg).NewApp("app")
	first := true
	var d Decision
	for i := 0; i < 30; i++ {
		it := time.Duration(10+i%3) * time.Minute // ITs 10,11,12 min
		d = a.NextWindows(it, first)
		first = false
	}
	if d.Mode != ModeHistogram {
		t.Fatalf("mode = %v", d.Mode)
	}
	if d.PreWarm != 9*time.Minute {
		t.Fatalf("preWarm = %v, want 9m (10m less the 10%% margin)", d.PreWarm)
	}
	if d.PreWarm+d.KeepAlive < 13*time.Minute {
		t.Fatalf("coverage ends at %v, want >= 13m", d.PreWarm+d.KeepAlive)
	}
}

func TestHistogramSizeMatchesProductionNote(t *testing.T) {
	// §6: 240 buckets per app. Verify default config matches.
	cfg := ithist.DefaultConfig()
	if cfg.NumBins != 240 {
		t.Fatalf("bins = %d", cfg.NumBins)
	}
}
