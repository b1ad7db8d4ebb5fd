package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

func genTestPop(t *testing.T, cfg Config) *Population {
	t.Helper()
	pop, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, NumApps: 50, Duration: 24 * time.Hour}
	a := genTestPop(t, cfg)
	b := genTestPop(t, cfg)
	if a.Trace.TotalInvocations() != b.Trace.TotalInvocations() {
		t.Fatal("same seed produced different traces")
	}
	for i := range a.Trace.Apps {
		ai, bi := a.Trace.Apps[i], b.Trace.Apps[i]
		if ai.ID != bi.ID || len(ai.Functions) != len(bi.Functions) ||
			ai.TotalInvocations() != bi.TotalInvocations() || ai.MemoryMB != bi.MemoryMB {
			t.Fatalf("app %d differs", i)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a := genTestPop(t, Config{Seed: 1, NumApps: 30, Duration: 24 * time.Hour})
	b := genTestPop(t, Config{Seed: 2, NumApps: 30, Duration: 24 * time.Hour})
	if a.Trace.TotalInvocations() == b.Trace.TotalInvocations() {
		t.Fatal("different seeds produced identical invocation totals (suspicious)")
	}
}

func TestGenerateTraceValidates(t *testing.T) {
	pop := genTestPop(t, Config{Seed: 3, NumApps: 100, Duration: 48 * time.Hour})
	if err := pop.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{NumApps: -1}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Generate(Config{Duration: time.Second}); err == nil {
		t.Fatal("expected error for sub-minute duration")
	}
}

func TestFunctionsPerAppDistribution(t *testing.T) {
	r := stats.NewRNG(9)
	const n = 100000
	var single, atMost10 int
	for i := 0; i < n; i++ {
		s := sampleFunctionsPerApp(r)
		if s < 1 {
			t.Fatalf("app size %d", s)
		}
		if s == 1 {
			single++
		}
		if s <= 10 {
			atMost10++
		}
	}
	// Figure 1: 54% single-function, 95% at most 10.
	if frac := float64(single) / n; math.Abs(frac-0.54) > 0.01 {
		t.Fatalf("single-function fraction = %v, want ~0.54", frac)
	}
	if frac := float64(atMost10) / n; math.Abs(frac-0.95) > 0.01 {
		t.Fatalf("<=10-function fraction = %v, want ~0.95", frac)
	}
}

func TestGeneratedTriggerShares(t *testing.T) {
	pop := genTestPop(t, Config{Seed: 11, NumApps: 2000, Duration: 2 * time.Hour})
	counts := make(map[trace.TriggerType]int)
	total := 0
	for _, app := range pop.Trace.Apps {
		for _, fn := range app.Functions {
			counts[fn.Trigger]++
			total++
		}
	}
	// HTTP should be the dominant function trigger (~55% in Figure 2;
	// combo-coverage constraints shift it slightly).
	httpShare := float64(counts[trace.TriggerHTTP]) / float64(total)
	if httpShare < 0.40 || httpShare > 0.70 {
		t.Fatalf("HTTP function share = %v", httpShare)
	}
	// Timers present in a substantial minority.
	timerShare := float64(counts[trace.TriggerTimer]) / float64(total)
	if timerShare < 0.05 || timerShare > 0.35 {
		t.Fatalf("timer function share = %v", timerShare)
	}
}

func TestGeneratedRateAnchors(t *testing.T) {
	pop := genTestPop(t, Config{Seed: 12, NumApps: 3000, Duration: 2 * time.Hour})
	var le24, le1440 int
	for _, m := range pop.Meta {
		if m.DailyRate <= 24 {
			le24++
		}
		if m.DailyRate <= 1440 {
			le1440++
		}
	}
	n := float64(len(pop.Meta))
	// §3.3: 45% of apps invoked at most once per hour, 81% at most once
	// per minute. App rates are sums over functions with trigger skew,
	// so allow a few points of drift.
	if frac := float64(le24) / n; frac < 0.33 || frac > 0.55 {
		t.Fatalf("P(appRate<=24/day) = %v, want ~0.45", frac)
	}
	if frac := float64(le1440) / n; frac < 0.70 || frac > 0.90 {
		t.Fatalf("P(appRate<=1440/day) = %v, want ~0.81", frac)
	}
}

func TestTimersArePeriodic(t *testing.T) {
	pop := genTestPop(t, Config{Seed: 13, NumApps: 400, Duration: 24 * time.Hour})
	checked := 0
	for ai, app := range pop.Trace.Apps {
		for fi, fn := range app.Functions {
			if fn.Trigger != trace.TriggerTimer || len(fn.Invocations) < 3 {
				continue
			}
			if pop.Meta[ai].Functions[fi].Kind != KindTimer {
				t.Fatalf("timer function with kind %v", pop.Meta[ai].Functions[fi].Kind)
			}
			iats := make([]float64, 0, len(fn.Invocations)-1)
			for i := 1; i < len(fn.Invocations); i++ {
				iats = append(iats, fn.Invocations[i]-fn.Invocations[i-1])
			}
			if cv := stats.CV(iats); cv > 1e-9 {
				t.Fatalf("timer IAT CV = %v, want 0", cv)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no timer functions exercised")
	}
}

func TestExecStatsOrdering(t *testing.T) {
	pop := genTestPop(t, Config{Seed: 14, NumApps: 300, Duration: time.Hour})
	for _, app := range pop.Trace.Apps {
		for _, fn := range app.Functions {
			s := fn.ExecStats
			if !(s.MinSeconds <= s.AvgSeconds && s.AvgSeconds <= s.MaxSeconds) {
				t.Fatalf("exec stats out of order: %+v", s)
			}
			if s.AvgSeconds <= 0 || s.Count <= 0 {
				t.Fatalf("non-positive exec stats: %+v", s)
			}
		}
	}
}

func TestMemoryDistribution(t *testing.T) {
	pop := genTestPop(t, Config{Seed: 15, NumApps: 3000, Duration: time.Hour})
	mems := make([]float64, 0, len(pop.Trace.Apps))
	for _, app := range pop.Trace.Apps {
		if app.MemoryMB <= 0 {
			t.Fatalf("non-positive memory %v", app.MemoryMB)
		}
		mems = append(mems, app.MemoryMB)
	}
	med := stats.Percentile(mems, 50)
	if med < 120 || med > 240 {
		t.Fatalf("median memory = %v MB, want ~170", med)
	}
	p90 := stats.Percentile(mems, 90)
	if p90 < 250 || p90 > 650 {
		t.Fatalf("p90 memory = %v MB, want ~400", p90)
	}
}

func TestRateCapHonored(t *testing.T) {
	cfg := Config{Seed: 16, NumApps: 400, Duration: 24 * time.Hour,
		MaxDailyRate: 2000, MaxEventsPerFunction: 3000}
	pop := genTestPop(t, cfg)
	for _, app := range pop.Trace.Apps {
		for _, fn := range app.Functions {
			if len(fn.Invocations) > 3000 {
				t.Fatalf("function exceeded MaxEventsPerFunction: %d", len(fn.Invocations))
			}
		}
	}
}

func TestMetaParallelToApps(t *testing.T) {
	pop := genTestPop(t, Config{Seed: 17, NumApps: 120, Duration: time.Hour})
	if len(pop.Meta) != len(pop.Trace.Apps) {
		t.Fatal("meta not parallel to apps")
	}
	for i, app := range pop.Trace.Apps {
		if len(pop.Meta[i].Functions) != len(app.Functions) {
			t.Fatalf("app %d: meta functions mismatch", i)
		}
		var sum float64
		for _, fm := range pop.Meta[i].Functions {
			sum += fm.DailyRate
		}
		if math.Abs(sum-pop.Meta[i].DailyRate) > 1e-9 {
			t.Fatalf("app %d: rate sum mismatch", i)
		}
	}
}

func TestAppIATCVMixtureShape(t *testing.T) {
	// Figure 6's qualitative shape: a meaningful share of apps with
	// CV ~ 0, and a substantial share with CV > 1.
	pop := genTestPop(t, Config{Seed: 18, NumApps: 800, Duration: 7 * 24 * time.Hour,
		MaxDailyRate: 2000, MaxEventsPerFunction: 20000})
	var cvs []float64
	for _, app := range pop.Trace.Apps {
		iats := app.IATs()
		if len(iats) < 10 {
			continue
		}
		cvs = append(cvs, stats.CV(iats))
	}
	if len(cvs) < 100 {
		t.Fatalf("too few measurable apps: %d", len(cvs))
	}
	var nearZero, aboveOne int
	for _, cv := range cvs {
		if cv < 0.15 {
			nearZero++
		}
		if cv > 1 {
			aboveOne++
		}
	}
	if frac := float64(nearZero) / float64(len(cvs)); frac < 0.05 {
		t.Fatalf("near-zero CV fraction = %v, want >= 0.05", frac)
	}
	if frac := float64(aboveOne) / float64(len(cvs)); frac < 0.20 {
		t.Fatalf("CV>1 fraction = %v, want >= 0.20 (Figure 6: ~40%%)", frac)
	}
}

func TestOrchestrationExecTimesShort(t *testing.T) {
	r := stats.NewRNG(19)
	var orch, http []float64
	for i := 0; i < 3000; i++ {
		orch = append(orch, generateExecStats(r, trace.TriggerOrchestration, 1).AvgSeconds)
		http = append(http, generateExecStats(r, trace.TriggerHTTP, 1).AvgSeconds)
	}
	if stats.Percentile(orch, 50) > 0.1 {
		t.Fatalf("orchestration median = %v, want ~0.03", stats.Percentile(orch, 50))
	}
	if stats.Percentile(http, 50) < 0.2 {
		t.Fatalf("http median = %v, want ~0.68", stats.Percentile(http, 50))
	}
}
