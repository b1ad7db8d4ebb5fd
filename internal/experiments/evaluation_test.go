package experiments

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

// evalConfig sizes the small 3-day population of the evaluation tests.
var evalConfig = Config{
	Seed: 7, NumApps: 150, Duration: 3 * 24 * time.Hour,
	MaxDailyRate: 1000, MaxEventsPerFunction: 4000,
}

// evalTrace generates the evaluation tests' trace.
func evalTrace(t *testing.T) *trace.Trace {
	t.Helper()
	pop, err := workload.Generate(evalConfig.workload())
	if err != nil {
		t.Fatal(err)
	}
	return pop.Trace
}

// renderSection5 runs the §5.2 figures over evalTrace and renders them.
func renderSection5(t *testing.T) ([]*Figure, []byte) {
	t.Helper()
	figs, err := Section5(context.Background(), evalTrace(t), evalConfig.source(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderAll(figs, &buf)
	return figs, buf.Bytes()
}

var section5Once struct {
	sync.Once
	figs map[string]*Figure
}

// section5Figure returns one §5.2 figure over evalTrace; the sweep runs
// once per test binary.
func section5Figure(t *testing.T, id string) *Figure {
	t.Helper()
	section5Once.Do(func() {
		figs, _ := renderSection5(t)
		section5Once.figs = map[string]*Figure{}
		for _, f := range figs {
			section5Once.figs[f.ID] = f
		}
	})
	f := section5Once.figs[id]
	if f == nil {
		t.Fatalf("figure %q not produced", id)
	}
	return f
}

// TestSection5RunsEachPolicyOnce pins the deduplication: the grids name
// 50 policy cells, 28 of them distinct.
func TestSection5RunsEachPolicyOnce(t *testing.T) {
	total := 0
	for _, ef := range section5 {
		total += len(ef.policies)
	}
	if got := len(section5Policies()); total != 50 || got != 28 {
		t.Fatalf("grids name %d policies, %d distinct; want 50 and 28", total, got)
	}
}

// TestSection5GridsReproduceFigures parses each figure's printed grid,
// runs it from its gen: source, and requires the figure to come back
// byte for byte.
func TestSection5GridsReproduceFigures(t *testing.T) {
	figs, _ := renderSection5(t)
	for i, f := range figs {
		note := f.Notes[len(f.Notes)-1]
		text, ok := strings.CutPrefix(note, "grid: coldsim -scenario '")
		if !ok || !strings.HasSuffix(text, "'") {
			t.Fatalf("%s: last note %q is not a grid", f.ID, note)
		}
		g, err := scenario.ParseGrid(strings.TrimSuffix(text, "'"))
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		c, err := runGrid(context.Background(), g.Base, g.Axes[0].Values)
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		got := section5[i].reduce(c)
		got.Notes = append(got.Notes, note)
		var want, have bytes.Buffer
		f.Render(&want)
		got.Render(&have)
		if have.String() != want.String() {
			t.Errorf("%s: grid reproduces\n%s\nwant\n%s", f.ID, have.String(), want.String())
		}
	}
}

// TestSection5DeterministicAcrossGOMAXPROCS renders the §5.2 figures
// under GOMAXPROCS 1 and 2 and requires identical bytes.
func TestSection5DeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, one := renderSection5(t)
	runtime.GOMAXPROCS(2)
	_, two := renderSection5(t)
	if !bytes.Equal(one, two) {
		t.Fatalf("GOMAXPROCS 1 and 2 render differently:\n%s\n---\n%s", one, two)
	}
}

func TestFigure14ColdStartsDecreaseWithKeepAlive(t *testing.T) {
	f := section5Figure(t, "figure-14")
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
	f := section5Figure(t, "figure-15")
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
	f := section5Figure(t, "figure-16")
	checkFigure(t, f, len(cutoffVariants))
	if len(f.Table) != len(cutoffVariants)+1 {
		t.Fatalf("table rows = %d", len(f.Table))
	}
}

func TestFigure17PreWarmingSavesMemory(t *testing.T) {
	f := section5Figure(t, "figure-17")
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
	checkFigure(t, section5Figure(t, "figure-18"), len(cvThresholds))
}

func TestFigure19ARIMAHelpsAlwaysCold(t *testing.T) {
	f := section5Figure(t, "figure-19")
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
