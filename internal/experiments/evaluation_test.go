package experiments

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
)

// evalTrace generates a small 3-day trace for evaluation tests.
func evalTrace(t *testing.T) *trace.Trace {
	t.Helper()
	pop, err := workload.Generate(workload.Config{
		Seed: 7, NumApps: 150, Duration: 3 * 24 * time.Hour,
		MaxDailyRate: 1000, MaxEventsPerFunction: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pop.Trace
}

func TestFigure14ColdStartsDecreaseWithKeepAlive(t *testing.T) {
	tr := evalTrace(t)
	f := Figure14(tr, 0)
	checkFigure(t, f, 1+8)
	// Longer keep-alive → weakly fewer cold starts at the 75th pct.
	q3At := func(name string) float64 {
		for _, s := range f.Series {
			if s.Name == name {
				// Y=0.75 crossing: find the X at Y ~ 0.75.
				for _, p := range s.Points {
					if p.Y >= 0.75 {
						return p.X
					}
				}
			}
		}
		t.Fatalf("series %q not found", name)
		return 0
	}
	if q3At("fixed-2h0m0s") > q3At("fixed-10m0s") {
		t.Fatal("2h keep-alive should not have more cold starts than 10m")
	}
}

func TestFigure15HybridDominatesFixed(t *testing.T) {
	tr := evalTrace(t)
	f := Figure15(tr, 0)
	if len(f.Series) != 2 {
		t.Fatalf("series = %d", len(f.Series))
	}
	fixed, hybrid := f.Series[0].Points, f.Series[1].Points
	if len(fixed) != 8 || len(hybrid) != 4 {
		t.Fatalf("points: fixed=%d hybrid=%d", len(fixed), len(hybrid))
	}
	// Headline: the hybrid 4h point must beat the fixed-10min point on
	// cold starts without using more memory (paper: ~2.5x fewer).
	fixed10 := fixed[1] // 10-min is the second entry of the sweep
	hybrid4 := hybrid[3]
	if hybrid4.X >= fixed10.X {
		t.Fatalf("hybrid-4h coldQ3 %.2f should beat fixed-10m %.2f", hybrid4.X, fixed10.X)
	}
	if hybrid4.Y > fixed10.Y*1.15 {
		t.Fatalf("hybrid-4h memory %.1f%% should be near fixed-10m 100%%", hybrid4.Y)
	}
}

func TestFigure16CutoffsSaveMemory(t *testing.T) {
	tr := evalTrace(t)
	f := Figure16(tr, 0)
	checkFigure(t, f, len(cutoffVariants))
	if len(f.Table) != len(cutoffVariants)+1 {
		t.Fatalf("table rows = %d", len(f.Table))
	}
}

func TestFigure17PreWarmingSavesMemory(t *testing.T) {
	tr := evalTrace(t)
	f := Figure17(tr, 0)
	checkFigure(t, f, 3)
	// Parse the table: PW:5th must use less memory than no-PW.
	var noPW, pw5 string
	for _, row := range f.Table[1:] {
		switch row[0] {
		case "no PW, KA:99th":
			noPW = row[2]
		case "PW:5th, KA:99th":
			pw5 = row[2]
		}
	}
	if noPW == "" || pw5 == "" {
		t.Fatalf("table incomplete: %v", f.Table)
	}
	var noPWv, pw5v float64
	if _, err := fmtSscanf(noPW, &noPWv); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscanf(pw5, &pw5v); err != nil {
		t.Fatal(err)
	}
	if pw5v >= noPWv {
		t.Fatalf("pre-warming memory %.2f should be below no-PW %.2f", pw5v, noPWv)
	}
}

func TestFigure18(t *testing.T) {
	tr := evalTrace(t)
	f := Figure18(tr, 0)
	checkFigure(t, f, len(cvThresholds))
}

func TestFigure19ARIMAHelpsAlwaysCold(t *testing.T) {
	tr := evalTrace(t)
	f := Figure19(tr, 0)
	if len(f.Table) != 4 {
		t.Fatalf("table rows = %d", len(f.Table))
	}
	// Full hybrid must not be worse than hybrid-without-ARIMA on the
	// excl-single-invocation metric.
	var noARIMA, full float64
	for _, row := range f.Table[1:] {
		var v float64
		if _, err := fmtSscanf(row[2], &v); err != nil {
			t.Fatal(err)
		}
		switch row[0] {
		case "hybrid-4h0m0s[5,99]-noarima":
			noARIMA = v
		case "hybrid-4h0m0s[5,99]":
			full = v
		}
	}
	if full > noARIMA+1e-9 {
		t.Fatalf("full hybrid always-cold %.2f%% should be <= no-ARIMA %.2f%%", full, noARIMA)
	}
}

func TestFigure20PlatformExperiment(t *testing.T) {
	pop, err := workload.Generate(workload.Config{
		Seed: 9, NumApps: 120, Duration: 24 * time.Hour,
		MaxDailyRate: 400, MaxEventsPerFunction: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Figure20(context.Background(), pop.Trace, PlatformConfig{
		Apps: 20, Window: time.Hour, Invokers: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, 2)
	if len(f.Notes) < 3 {
		t.Fatalf("notes = %d", len(f.Notes))
	}
}

func TestRunAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	figs, err := RunAll(context.Background(), Config{
		Seed: 3, NumApps: 80, Duration: 24 * time.Hour,
		MaxDailyRate: 500, MaxEventsPerFunction: 2000,
		SkipPlatform: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 17 { // 9 characterization + 8 simulation/extension
		t.Fatalf("figures = %d", len(figs))
	}
	var buf bytes.Buffer
	RenderAll(figs, &buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func fmtSscanf(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}
