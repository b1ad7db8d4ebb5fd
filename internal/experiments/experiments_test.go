package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// testPop generates a small population shared by the characterization
// tests.
func testPop(t *testing.T) *workload.Population {
	t.Helper()
	pop, err := workload.Generate(workload.Config{
		Seed: 1, NumApps: 300, Duration: 48 * time.Hour,
		MaxDailyRate: 2000, MaxEventsPerFunction: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func checkFigure(t *testing.T, f *Figure, wantSeries int) {
	t.Helper()
	if f.ID == "" || f.Title == "" {
		t.Fatal("figure missing identity")
	}
	if wantSeries >= 0 && len(f.Series) != wantSeries {
		t.Fatalf("%s: series = %d, want %d", f.ID, len(f.Series), wantSeries)
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), f.ID) {
		t.Fatalf("%s: render missing ID", f.ID)
	}
}

func TestFigure1(t *testing.T) {
	pop := testPop(t)
	f := Figure1(pop)
	checkFigure(t, f, 3)
	// The apps curve must be monotone and end at 1.
	apps := f.Series[0].Points
	if apps[len(apps)-1].Y < 0.999 {
		t.Fatalf("apps CDF ends at %v", apps[len(apps)-1].Y)
	}
	// First point: single-function apps near 54%.
	if apps[0].X != 1 || apps[0].Y < 0.4 || apps[0].Y > 0.7 {
		t.Fatalf("single-function point = %+v, want ~0.54", apps[0])
	}
}

func TestFigure2(t *testing.T) {
	f := Figure2(testPop(t))
	checkFigure(t, f, 0)
	if len(f.Table) != 8 { // header + 7 triggers
		t.Fatalf("table rows = %d", len(f.Table))
	}
}

func TestFigure3(t *testing.T) {
	f := Figure3(testPop(t))
	checkFigure(t, f, 0)
	if len(f.Table) < 10 {
		t.Fatalf("table rows = %d", len(f.Table))
	}
}

func TestFigure4(t *testing.T) {
	pop := testPop(t)
	f := Figure4(pop)
	checkFigure(t, f, 1)
	pts := f.Series[0].Points
	if len(pts) != 48 {
		t.Fatalf("hours = %d", len(pts))
	}
	var peak float64
	for _, p := range pts {
		if p.Y > peak {
			peak = p.Y
		}
		if p.Y < 0 || p.Y > 1 {
			t.Fatalf("normalized point out of range: %+v", p)
		}
	}
	if peak != 1 {
		t.Fatalf("peak = %v, want 1", peak)
	}
}

func TestFigure5(t *testing.T) {
	f := Figure5(testPop(t))
	checkFigure(t, f, 3)
	if len(f.Notes) < 4 {
		t.Fatalf("notes = %d", len(f.Notes))
	}
	// Popularity curve must be monotone nondecreasing in Y.
	pop := f.Series[2].Points
	for i := 1; i < len(pop); i++ {
		if pop[i].Y < pop[i-1].Y-1e-9 {
			t.Fatal("popularity curve not monotone")
		}
	}
}

func TestFigure6(t *testing.T) {
	f := Figure6(testPop(t))
	checkFigure(t, f, 4)
}

func TestFigure7(t *testing.T) {
	f := Figure7(testPop(t))
	checkFigure(t, f, 4)
	// min CDF should sit left of max CDF at the median.
	var minMed, maxMed float64
	for _, s := range f.Series {
		pts := s.Points
		if len(pts) == 0 {
			t.Fatalf("empty series %s", s.Name)
		}
		med := pts[len(pts)/2].X
		switch s.Name {
		case "minimum":
			minMed = med
		case "maximum":
			maxMed = med
		}
	}
	if minMed >= maxMed {
		t.Fatalf("min median %v should be < max median %v", minMed, maxMed)
	}
}

func TestFigure8(t *testing.T) {
	f := Figure8(testPop(t))
	checkFigure(t, f, 2)
}

func TestRenderTable(t *testing.T) {
	f := &Figure{ID: "x", Title: "t", Table: [][]string{{"A", "B"}, {"1", "2"}}}
	var buf bytes.Buffer
	f.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "A") || !strings.Contains(out, "1") {
		t.Fatalf("render = %q", out)
	}
}

// BenchmarkFigures regenerates each of the paper's figures over one
// 300-app, 3-day population: one sub-benchmark per §3 figure, one for
// the §5.2 grid sweep (Figures 14–19, 19b and the range sweep) and one
// for Figure 20, which replays through the in-process platform in
// virtual time, so its workload is kept small.
func BenchmarkFigures(b *testing.B) {
	cfg := Config{
		Seed: 2024, NumApps: 300, Duration: 3 * 24 * time.Hour,
		MaxDailyRate: 1000, MaxEventsPerFunction: 8000,
	}
	pop, err := workload.Generate(cfg.workload())
	if err != nil {
		b.Fatal(err)
	}
	onPop := func(fn func(*workload.Population) *Figure) func() ([]*Figure, error) {
		return func() ([]*Figure, error) { return []*Figure{fn(pop)}, nil }
	}
	for _, fig := range []struct {
		name string
		fn   func() ([]*Figure, error)
	}{
		{"1", onPop(Figure1)}, {"2", onPop(Figure2)}, {"3", onPop(Figure3)},
		{"4", onPop(Figure4)}, {"5", onPop(Figure5)}, {"6", onPop(Figure6)},
		{"7", onPop(Figure7)}, {"8", onPop(Figure8)}, {"12", onPop(Figure12)},
		{"Section5", func() ([]*Figure, error) {
			return Section5(context.Background(), pop.Trace, cfg.source(), 0)
		}},
		{"20", func() ([]*Figure, error) {
			f, err := Figure20(context.Background(), pop.Trace, PlatformConfig{
				Apps: 12, Window: 30 * time.Minute, Invokers: 4, Seed: 1,
			})
			return []*Figure{f}, err
		}},
	} {
		b.Run(fig.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				figs, err := fig.fn()
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range figs {
					if f == nil || f.ID == "" {
						b.Fatal("empty figure")
					}
				}
			}
		})
	}
}
