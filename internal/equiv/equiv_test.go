package equiv

import (
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
)

func run(d policy.Decision, n int32) policy.DecisionRun {
	return policy.DecisionRun{D: d, N: n}
}

func TestCountFlips(t *testing.T) {
	a := policy.Decision{KeepAlive: time.Minute, Mode: policy.ModeHistogram}
	b := policy.Decision{KeepAlive: 2 * time.Minute, Mode: policy.ModeHistogram}
	cases := []struct {
		name       string
		x, y       []policy.DecisionRun
		flips, tot int64
	}{
		{"identical", []policy.DecisionRun{run(a, 5)}, []policy.DecisionRun{run(a, 5)}, 0, 5},
		{"all-differ", []policy.DecisionRun{run(a, 5)}, []policy.DecisionRun{run(b, 5)}, 5, 5},
		{"split-runs-same", []policy.DecisionRun{run(a, 2), run(a, 3)}, []policy.DecisionRun{run(a, 5)}, 0, 5},
		{"partial-overlap", []policy.DecisionRun{run(a, 3), run(b, 2)}, []policy.DecisionRun{run(a, 4), run(b, 1)}, 1, 5},
		{"leading-empty-run", []policy.DecisionRun{run(policy.Decision{}, 0), run(a, 4)}, []policy.DecisionRun{run(a, 4)}, 0, 4},
		{"unequal-totals", []policy.DecisionRun{run(a, 5)}, []policy.DecisionRun{run(a, 3)}, 2, 5},
		{"both-empty", nil, nil, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			flips, tot := CountFlips(c.x, c.y)
			if flips != c.flips || tot != c.tot {
				t.Errorf("CountFlips = (%d, %d), want (%d, %d)", flips, tot, c.flips, c.tot)
			}
			// Symmetry.
			flips2, tot2 := CountFlips(c.y, c.x)
			if flips2 != flips || tot2 != tot {
				t.Errorf("CountFlips not symmetric: (%d, %d) vs (%d, %d)", flips, tot, flips2, tot2)
			}
		})
	}
}

func TestCheckViolations(t *testing.T) {
	rep := &Report{
		Name:        "synthetic",
		Invocations: 1000,
		Flips:       25, // 2.5%
		ColdBase:    [3]float64{1, 2, 10},
		ColdVariant: [3]float64{1, 2.7, 10}, // p75 off by 0.7
		WastePct:    103,                    // 3 points off
		HasCluster:  true,
		AttrBase:    Attribution{ColdStarts: 100, Eviction: 10, Failure: 5},
		AttrVariant: Attribution{ColdStarts: 120, Eviction: 10, Failure: 5},
	}
	err := rep.Check(DefaultTolerances())
	if err == nil {
		t.Fatal("expected violations")
	}
	for _, want := range []string{"flip rate", "p75", "waste", "cold-start attribution"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("violation message missing %q: %v", want, err)
		}
	}
	if strings.Contains(err.Error(), "p50") || strings.Contains(err.Error(), "eviction") {
		t.Errorf("unexpected violation reported: %v", err)
	}

	// Within tolerances: no error.
	rep.Flips = 5
	rep.ColdVariant[1] = 2.2
	rep.WastePct = 100.4
	rep.AttrVariant.ColdStarts = 103
	if err := rep.Check(DefaultTolerances()); err != nil {
		t.Errorf("expected clean check, got %v", err)
	}
}

func TestZeroToleranceZeroDivergence(t *testing.T) {
	rep := &Report{Name: "id", Invocations: 10, WastePct: 100}
	if err := rep.Check(Tolerances{}); err != nil {
		t.Errorf("identical lanes must pass zero tolerances, got %v", err)
	}
}

// synthTrace builds a small deterministic trace: one app with a
// periodic minute-scale pattern (histogram regime) and one with huge
// gaps (OOB/ARIMA regime).
func synthTrace() *trace.Trace {
	mk := func(id string, times []float64) *trace.App {
		return &trace.App{ID: id, Functions: []*trace.Function{{ID: id + "-f", Invocations: times}}}
	}
	var periodic, sparse []float64
	for i := 0; i < 400; i++ {
		periodic = append(periodic, float64(i)*137) // ~2.3 min apart
	}
	for i := 0; i < 30; i++ {
		sparse = append(sparse, float64(i)*5*3600) // 5h apart: out of range
	}
	return &trace.Trace{
		Duration: 72 * time.Hour,
		Apps:     []*trace.App{mk("periodic", periodic), mk("sparse", sparse)},
	}
}

// TestCompareTraceRefit runs hybrid and its refit=1m variant over a
// synthetic trace and asserts the harness's own plumbing: totals add
// up, the divergence is within the CI tolerances, and comparing the
// base against itself reports zero flips.
func TestCompareTraceRefit(t *testing.T) {
	tr := synthTrace()
	base := policy.NewHybrid(policy.DefaultHybridConfig())
	refitCfg := policy.DefaultHybridConfig()
	refitCfg.RefitInterval = time.Minute
	refit := policy.NewHybrid(refitCfg)

	rep := CompareTrace("synth", tr, base, refit, false)
	if want := int64(430); rep.Invocations != want {
		t.Errorf("compared %d invocations, want %d", rep.Invocations, want)
	}
	if err := rep.Check(DefaultTolerances()); err != nil {
		t.Errorf("synthetic corpus out of tolerance: %v", err)
	}

	self := CompareTrace("self", tr, base, policy.NewHybrid(policy.DefaultHybridConfig()), false)
	if self.Flips != 0 {
		t.Errorf("base vs base flipped %d decisions", self.Flips)
	}
	if self.WastePct != 100 {
		t.Errorf("base vs base WastePct = %v, want 100", self.WastePct)
	}
	if d := self.ColdDeltas(); d[0] != 0 || d[1] != 0 || d[2] != 0 {
		t.Errorf("base vs base cold deltas = %v, want zeros", d)
	}
}
