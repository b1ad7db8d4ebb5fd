package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
)

// mkTrace builds a single-app trace with the given invocation times
// (seconds) and horizon.
func mkTrace(horizon time.Duration, times ...float64) *trace.Trace {
	return &trace.Trace{
		Duration: horizon,
		Apps: []*trace.App{
			{ID: "app", Owner: "o", Functions: []*trace.Function{
				{ID: "fn", Trigger: trace.TriggerHTTP, Invocations: times},
			}},
		},
	}
}

func TestFirstInvocationAlwaysCold(t *testing.T) {
	tr := mkTrace(time.Hour, 100)
	res := Simulate(tr, policy.NoUnloading{})
	if res.Apps[0].ColdStarts != 1 || res.Apps[0].Invocations != 1 {
		t.Fatalf("result = %+v", res.Apps[0])
	}
}

func TestNoUnloadingOnlyFirstCold(t *testing.T) {
	tr := mkTrace(time.Hour, 0, 600, 1200, 3599)
	res := Simulate(tr, policy.NoUnloading{})
	if res.Apps[0].ColdStarts != 1 {
		t.Fatalf("cold = %d, want 1", res.Apps[0].ColdStarts)
	}
	// Loaded (and idle) from first invocation through the horizon.
	if math.Abs(res.Apps[0].WastedSeconds-3600) > 1e-6 {
		t.Fatalf("wasted = %v, want 3600", res.Apps[0].WastedSeconds)
	}
}

func TestFixedKeepAliveWarmWithinWindow(t *testing.T) {
	// 10-min keep-alive, invocations 5 min apart: only first cold.
	tr := mkTrace(time.Hour, 0, 300, 600, 900)
	res := Simulate(tr, policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	a := res.Apps[0]
	if a.ColdStarts != 1 {
		t.Fatalf("cold = %d, want 1", a.ColdStarts)
	}
	// Wasted: 300*3 between invocations + trailing 600 = 1500.
	if math.Abs(a.WastedSeconds-1500) > 1e-6 {
		t.Fatalf("wasted = %v, want 1500", a.WastedSeconds)
	}
}

func TestFixedKeepAliveColdBeyondWindow(t *testing.T) {
	// 10-min keep-alive, invocations 20 min apart: all cold.
	tr := mkTrace(time.Hour, 0, 1200, 2400)
	res := Simulate(tr, policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	a := res.Apps[0]
	if a.ColdStarts != 3 {
		t.Fatalf("cold = %d, want 3", a.ColdStarts)
	}
	// Each execution wastes the full 600s window (incl. trailing).
	if math.Abs(a.WastedSeconds-1800) > 1e-6 {
		t.Fatalf("wasted = %v, want 1800", a.WastedSeconds)
	}
}

func TestFixedKeepAliveBoundaryInclusive(t *testing.T) {
	// Invocation exactly at the window end counts warm.
	tr := mkTrace(time.Hour, 0, 600)
	res := Simulate(tr, policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	if res.Apps[0].ColdStarts != 1 {
		t.Fatalf("cold = %d, want 1 (boundary warm)", res.Apps[0].ColdStarts)
	}
}

func TestTrailingWindowCappedAtHorizon(t *testing.T) {
	// Last invocation at 3500s with a 600s keep-alive: only 100s fit.
	tr := mkTrace(time.Hour, 3500)
	res := Simulate(tr, policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	if math.Abs(res.Apps[0].WastedSeconds-100) > 1e-6 {
		t.Fatalf("wasted = %v, want 100", res.Apps[0].WastedSeconds)
	}
}

// prewarmPolicy returns a fixed (PreWarm, KeepAlive) decision, for
// exercising the pre-warm scenarios of Figure 9.
type prewarmPolicy struct {
	pw, ka time.Duration
}

func (p prewarmPolicy) Name() string                   { return "test-prewarm" }
func (p prewarmPolicy) NewApp(string) policy.AppPolicy { return prewarmApp{p.pw, p.ka} }

type prewarmApp struct{ pw, ka time.Duration }

func (a prewarmApp) NextWindows(time.Duration, bool) policy.Decision {
	return policy.Decision{PreWarm: a.pw, KeepAlive: a.ka, Mode: policy.ModeHistogram}
}

func TestPreWarmHit(t *testing.T) {
	// PW 10min, KA 5min. Invocations 12 min apart: warm (middle
	// scenario of Figure 9), wasting only 2 min per gap.
	tr := mkTrace(time.Hour, 0, 720, 1440)
	res := Simulate(tr, prewarmPolicy{pw: 10 * time.Minute, ka: 5 * time.Minute})
	a := res.Apps[0]
	if a.ColdStarts != 1 {
		t.Fatalf("cold = %d, want 1", a.ColdStarts)
	}
	// Wasted per gap: t - loadAt = 720 - 600 = 120; trailing 300.
	if math.Abs(a.WastedSeconds-(120+120+300)) > 1e-6 {
		t.Fatalf("wasted = %v, want 540", a.WastedSeconds)
	}
}

func TestPreWarmTooLateIsCold(t *testing.T) {
	// Invocation before the pre-warm window elapses: cold, no waste
	// (bottom-left scenario of Figure 9).
	tr := mkTrace(time.Hour, 0, 300)
	res := Simulate(tr, prewarmPolicy{pw: 10 * time.Minute, ka: 5 * time.Minute})
	a := res.Apps[0]
	if a.ColdStarts != 2 {
		t.Fatalf("cold = %d, want 2", a.ColdStarts)
	}
	// First gap wastes nothing (never loaded); trailing window loads at
	// 300+600=900 and wastes 300s.
	if math.Abs(a.WastedSeconds-300) > 1e-6 {
		t.Fatalf("wasted = %v, want 300", a.WastedSeconds)
	}
}

func TestPreWarmExpiredIsCold(t *testing.T) {
	// Invocation after pre-warm + keep-alive: cold, full KA wasted
	// (bottom-right scenario of Figure 9).
	tr := mkTrace(2*time.Hour, 0, 3600)
	res := Simulate(tr, prewarmPolicy{pw: 10 * time.Minute, ka: 5 * time.Minute})
	a := res.Apps[0]
	if a.ColdStarts != 2 {
		t.Fatalf("cold = %d, want 2", a.ColdStarts)
	}
	// Gap wastes full 300s; trailing wastes another 300s.
	if math.Abs(a.WastedSeconds-600) > 1e-6 {
		t.Fatalf("wasted = %v, want 600", a.WastedSeconds)
	}
}

func TestPreWarmBoundaries(t *testing.T) {
	// Invocation exactly at load time: warm with zero waste for the gap.
	tr := mkTrace(time.Hour, 0, 600)
	res := Simulate(tr, prewarmPolicy{pw: 10 * time.Minute, ka: 5 * time.Minute})
	if res.Apps[0].ColdStarts != 1 {
		t.Fatalf("cold = %d, want 1 (arrival at load instant warm)", res.Apps[0].ColdStarts)
	}
	// Exactly at window end: warm.
	tr2 := mkTrace(time.Hour, 0, 900)
	res2 := Simulate(tr2, prewarmPolicy{pw: 10 * time.Minute, ka: 5 * time.Minute})
	if res2.Apps[0].ColdStarts != 1 {
		t.Fatalf("cold = %d, want 1 (arrival at window end warm)", res2.Apps[0].ColdStarts)
	}
}

func TestTrailingPreWarmBeyondHorizonNoWaste(t *testing.T) {
	// Load would happen after the horizon: no memory cost.
	tr := mkTrace(10*time.Minute, 300)
	res := Simulate(tr, prewarmPolicy{pw: 20 * time.Minute, ka: 5 * time.Minute})
	if res.Apps[0].WastedSeconds != 0 {
		t.Fatalf("wasted = %v, want 0", res.Apps[0].WastedSeconds)
	}
}

func TestEmptyAppNoResults(t *testing.T) {
	tr := mkTrace(time.Hour)
	res := Simulate(tr, policy.NoUnloading{})
	a := res.Apps[0]
	if a.Invocations != 0 || a.ColdStarts != 0 || a.WastedSeconds != 0 {
		t.Fatalf("empty app result = %+v", a)
	}
	if len(res.ColdPercents()) != 0 {
		t.Fatal("empty apps must be excluded from cold percents")
	}
}

func TestHybridBeatsFixedOnPeriodicApp(t *testing.T) {
	// An app invoked every 30 min: fixed-10min gets all cold starts;
	// hybrid should learn the period and serve warm starts with less
	// memory than fixed-60min would use.
	var times []float64
	horizon := 48 * time.Hour
	for ts := 0.0; ts < horizon.Seconds(); ts += 1800 {
		times = append(times, ts)
	}
	tr := mkTrace(horizon, times...)

	fixed := Simulate(tr, policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	hybrid := Simulate(tr, policy.NewHybrid(policy.DefaultHybridConfig()))

	if fixed.Apps[0].ColdStarts != len(times) {
		t.Fatalf("fixed cold = %d, want all %d", fixed.Apps[0].ColdStarts, len(times))
	}
	if hybrid.Apps[0].ColdStarts > len(times)/4 {
		t.Fatalf("hybrid cold = %d/%d, should learn the period",
			hybrid.Apps[0].ColdStarts, len(times))
	}
	// Hybrid with pre-warming must waste far less than keeping the app
	// alive through every 30-min gap.
	if hybrid.Apps[0].WastedSeconds > 0.5*horizon.Seconds() {
		t.Fatalf("hybrid wasted = %v, too high", hybrid.Apps[0].WastedSeconds)
	}
}

func TestModeCountsAttribution(t *testing.T) {
	var times []float64
	for ts := 0.0; ts < 86400; ts += 1800 {
		times = append(times, ts)
	}
	tr := mkTrace(24*time.Hour, times...)
	res := Simulate(tr, policy.NewHybrid(policy.DefaultHybridConfig()))
	mc := res.Apps[0].ModeCounts
	if mc[policy.ModeStandard] == 0 {
		t.Fatal("expected some standard decisions while learning")
	}
	if mc[policy.ModeHistogram] == 0 {
		t.Fatal("expected histogram decisions after learning")
	}
	var total int
	for _, c := range mc {
		total += c
	}
	if total != len(times) {
		t.Fatalf("mode counts sum %d != invocations %d", total, len(times))
	}
}

func TestUseExecTimeAffectsIdleAndWaste(t *testing.T) {
	tr := mkTrace(time.Hour, 0, 600)
	tr.Apps[0].Functions[0].ExecStats.AvgSeconds = 60
	p := policy.FixedKeepAlive{KeepAlive: 10 * time.Minute}

	noExec := Simulate(tr, p)
	withExec := Simulate(tr, p, WithExecTime(true))
	// With exec time, the first window starts at 60s, so only 540s of
	// idle-in-memory accrues before the warm hit at 600.
	if math.Abs(noExec.Apps[0].WastedSeconds-(600+600)) > 1e-6 {
		t.Fatalf("noExec wasted = %v", noExec.Apps[0].WastedSeconds)
	}
	if math.Abs(withExec.Apps[0].WastedSeconds-(540+600)) > 1e-6 {
		t.Fatalf("withExec wasted = %v", withExec.Apps[0].WastedSeconds)
	}
}

func TestResultAggregates(t *testing.T) {
	tr := &trace.Trace{
		Duration: time.Hour,
		Apps: []*trace.App{
			{ID: "a", Functions: []*trace.Function{{ID: "f1", Invocations: []float64{0, 1200}}}},
			{ID: "b", Functions: []*trace.Function{{ID: "f2", Invocations: []float64{0}}}},
			{ID: "c", Functions: []*trace.Function{{ID: "f3"}}},
		},
	}
	res := Simulate(tr, policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	var inv, cold int
	for _, a := range res.Apps {
		inv += a.Invocations
		cold += a.ColdStarts
	}
	if inv != 3 || cold != 3 { // app a: both cold; app b: 1 cold
		t.Fatalf("invocations = %d, cold = %d, want 3 and 3", inv, cold)
	}
	if got := len(res.ColdPercents()); got != 2 {
		t.Fatalf("cold percents len = %d", got)
	}
	if res.TotalWastedSeconds() <= 0 {
		t.Fatal("expected wasted time")
	}
}

func TestSimulateDeterministicAcrossWorkerCounts(t *testing.T) {
	var apps []*trace.App
	for i := 0; i < 20; i++ {
		times := []float64{float64(i) * 10, float64(i)*10 + 700, float64(i)*10 + 2000}
		apps = append(apps, &trace.App{
			ID:        string(rune('a' + i)),
			Functions: []*trace.Function{{ID: string(rune('A' + i)), Invocations: times}},
		})
	}
	tr := &trace.Trace{Duration: time.Hour, Apps: apps}
	p := policy.FixedKeepAlive{KeepAlive: 10 * time.Minute}
	r1 := simulateAt(1, tr, p)
	r8 := simulateAt(8, tr, p)
	for i := range r1.Apps {
		if r1.Apps[i] != r8.Apps[i] {
			t.Fatalf("app %d differs across worker counts: %+v vs %+v",
				i, r1.Apps[i], r8.Apps[i])
		}
	}
}

func TestSimultaneousInvocations(t *testing.T) {
	// Two invocations at the same instant with PW=0 policy: second warm.
	tr := mkTrace(time.Hour, 100, 100)
	res := Simulate(tr, policy.FixedKeepAlive{KeepAlive: time.Minute})
	if res.Apps[0].ColdStarts != 1 {
		t.Fatalf("cold = %d, want 1", res.Apps[0].ColdStarts)
	}
}
