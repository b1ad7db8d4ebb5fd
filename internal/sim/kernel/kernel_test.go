package kernel

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
)

// flipPolicy is a non-SequencePolicy whose decisions change on every
// call, exercising the per-call fallback and run boundaries.
type flipPolicy struct{ n int }

func (p *flipPolicy) NextWindows(idle time.Duration, first bool) policy.Decision {
	p.n++
	ka := 10 * time.Minute
	if p.n%3 == 0 {
		ka = 20 * time.Minute
	}
	var pw time.Duration
	if p.n%5 == 0 {
		pw = time.Minute
	}
	return policy.Decision{PreWarm: pw, KeepAlive: ka, Mode: policy.ModeStandard}
}

func TestDecideRunsMatchesPerCallWalk(t *testing.T) {
	idles := make([]time.Duration, 200)
	r := rand.New(rand.NewSource(1))
	for i := range idles {
		idles[i] = time.Duration(r.Intn(3600)) * time.Second
	}

	var s Scratch
	runs := s.DecideRuns(&flipPolicy{}, idles)

	// Expand runs and compare with a fresh per-call walk.
	ref := &flipPolicy{}
	var i int
	for _, run := range runs {
		for k := int32(0); k < run.N; k++ {
			want := ref.NextWindows(idles[i], i == 0)
			if run.D != want {
				t.Fatalf("invocation %d: run decision %+v, per-call %+v", i, run.D, want)
			}
			i++
		}
	}
	if i != len(idles) {
		t.Fatalf("runs cover %d invocations, want %d", i, len(idles))
	}
	// Runs must be maximal: consecutive runs differ.
	for j := 1; j < len(runs); j++ {
		if runs[j].D == runs[j-1].D {
			t.Fatalf("runs %d and %d share decision %+v", j-1, j, runs[j].D)
		}
	}
}

func TestDecideRunsEmptyIdles(t *testing.T) {
	var s Scratch
	// Both the SequencePolicy path (fixedApp) and the per-call
	// fallback must yield no runs for an empty idle sequence — an
	// N == 0 run would wedge a RunCursor.
	if runs := s.DecideRuns(policy.FixedKeepAlive{KeepAlive: time.Minute}.NewApp("a"), nil); len(runs) != 0 {
		t.Fatalf("sequence path: %d runs for empty idles", len(runs))
	}
	if runs := s.DecideRuns(&flipPolicy{}, nil); len(runs) != 0 {
		t.Fatalf("fallback path: %d runs for empty idles", len(runs))
	}
}

func TestRunCursorStepsEveryDecisionOnce(t *testing.T) {
	runs := []policy.DecisionRun{
		{D: policy.Decision{KeepAlive: time.Minute, Mode: policy.ModeStandard}, N: 3},
		{D: policy.Decision{KeepAlive: 2 * time.Minute, Mode: policy.ModeHistogram}, N: 1},
		{D: policy.Decision{Forever: true, Mode: policy.ModeNoUnload}, N: 2},
	}
	var cur RunCursor
	cur.Reset(runs)
	var modes [policy.NumModes]int
	var got []policy.Decision
	for i := 0; i < 6; i++ {
		cur.Step(&modes)
		got = append(got, cur.D)
		if cur.PwSec != cur.D.PreWarm.Seconds() || cur.KaSec != cur.D.KeepAlive.Seconds() {
			t.Fatalf("step %d: cached windows diverge from decision", i)
		}
	}
	want := []policy.Decision{runs[0].D, runs[0].D, runs[0].D, runs[1].D, runs[2].D, runs[2].D}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if modes[policy.ModeStandard] != 3 || modes[policy.ModeHistogram] != 1 || modes[policy.ModeNoUnload] != 2 {
		t.Fatalf("mode counts %v", modes)
	}
}

func TestIdleTimesClampsOverlap(t *testing.T) {
	var s Scratch
	times := []float64{0, 10, 12, 100}
	execs := []float64{5, 30, 1, 0} // invocation 2 arrives mid-execution of 1
	idles := s.IdleTimes(times, execs)
	want := []time.Duration{0, 5 * time.Second, 0, 87 * time.Second}
	for i := range want {
		if idles[i] != want[i] {
			t.Fatalf("idle %d: got %v want %v", i, idles[i], want[i])
		}
	}
	// Without exec times, gaps are arrival differences.
	idles = s.IdleTimes(times, nil)
	want = []time.Duration{0, 10 * time.Second, 2 * time.Second, 88 * time.Second}
	for i := range want {
		if idles[i] != want[i] {
			t.Fatalf("no-exec idle %d: got %v want %v", i, idles[i], want[i])
		}
	}
}

func TestExecSecondsMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	app := &trace.App{ID: "a"}
	type pair struct {
		t, exec float64
		fn      int
	}
	var all []pair
	for f := 0; f < 4; f++ {
		fn := &trace.Function{ID: string(rune('a' + f)), ExecStats: trace.ExecStats{AvgSeconds: float64(f + 1)}}
		for k := 0; k < 25; k++ {
			ts := float64(r.Intn(50)) // collisions likely
			fn.Invocations = append(fn.Invocations, ts)
		}
		sort.Float64s(fn.Invocations)
		app.Functions = append(app.Functions, fn)
		for _, ts := range fn.Invocations {
			all = append(all, pair{t: ts, exec: float64(f + 1), fn: f})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].t < all[j].t })

	var s Scratch
	execs := s.ExecSeconds(app)
	if len(execs) != len(all) {
		t.Fatalf("got %d execs, want %d", len(execs), len(all))
	}
	for i := range all {
		if execs[i] != all[i].exec {
			t.Fatalf("exec %d: got %v want %v", i, execs[i], all[i].exec)
		}
	}
}

func TestClassifyAndTrailingWaste(t *testing.T) {
	ka := policy.Decision{KeepAlive: 10 * time.Minute}
	pw := policy.Decision{PreWarm: 5 * time.Minute, KeepAlive: 10 * time.Minute}
	forever := policy.Decision{Forever: true}

	cases := []struct {
		name       string
		d          policy.Decision
		prevEnd, t float64
		warm       bool
		wasted     float64
	}{
		{"ka-warm", ka, 0, 300, true, 300},
		{"ka-edge", ka, 0, 600, true, 600},
		{"ka-cold", ka, 0, 601, false, 600},
		{"pw-before-load", pw, 0, 200, false, 0},
		{"pw-load-edge", pw, 0, 300, true, 0},
		{"pw-warm", pw, 0, 400, true, 100},
		{"pw-window-end", pw, 0, 900, true, 600},
		{"pw-cold", pw, 0, 901, false, 600},
		{"forever", forever, 50, 5000, true, 4950},
	}
	for _, c := range cases {
		warm, wasted := Classify(c.d, c.d.PreWarm.Seconds(), c.d.KeepAlive.Seconds(), c.prevEnd, c.t)
		if warm != c.warm || wasted != c.wasted {
			t.Errorf("%s: got (%v, %v) want (%v, %v)", c.name, warm, wasted, c.warm, c.wasted)
		}
	}

	trailing := []struct {
		name             string
		d                policy.Decision
		prevEnd, horizon float64
		want             float64
	}{
		{"ka-truncated", ka, 100, 400, 300},
		{"ka-full", ka, 100, 10000, 600},
		{"past-horizon", ka, 400, 400, 0},
		{"pw-load-past-horizon", pw, 200, 400, 0},
		{"pw-truncated", pw, 0, 400, 100},
		{"forever", forever, 100, 400, 300},
	}
	for _, c := range trailing {
		got := TrailingWaste(c.d, c.d.PreWarm.Seconds(), c.d.KeepAlive.Seconds(), c.prevEnd, c.horizon)
		if got != c.want {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
	}
}

// countingPolicy hands out Releasable app state and counts both ends
// of its life cycle.
type countingPolicy struct{ acquired, released int }

func (p *countingPolicy) Name() string { return "counting" }

func (p *countingPolicy) NewApp(string) policy.AppPolicy {
	p.acquired++
	return &countingApp{pol: p}
}

type countingApp struct {
	flipPolicy
	pol *countingPolicy
}

func (a *countingApp) Release() { a.pol.released++ }

// TestWalkReleasesEveryAppExactlyOnce pins the pool-hygiene contract
// where it now lives: Decide, which Walk calls, is the only place the
// batch engines (internal/sim, internal/cluster) acquire per-app policy
// state, and it hands each acquisition back exactly once — the
// zero-invocation app included — with and without exec times.
func TestWalkReleasesEveryAppExactlyOnce(t *testing.T) {
	apps := []*trace.App{
		{ID: "busy", Functions: []*trace.Function{
			{ID: "f", Invocations: []float64{0, 60, 120}, ExecStats: trace.ExecStats{AvgSeconds: 1}},
			{ID: "g", Invocations: []float64{30, 90}, ExecStats: trace.ExecStats{AvgSeconds: 2}},
		}},
		{ID: "once", Functions: []*trace.Function{{ID: "f", Invocations: []float64{5}}}},
		{ID: "never", Functions: []*trace.Function{{ID: "f"}}},
	}
	pol := &countingPolicy{}
	var s Scratch
	for _, useExec := range []bool{false, true} {
		for _, app := range apps {
			before := pol.released
			times, execs, runs := s.Walk(pol, app, useExec)
			if pol.released != before+1 || pol.acquired != pol.released {
				t.Fatalf("%s (exec=%v): %d acquired, %d released after the walk", app.ID, useExec, pol.acquired, pol.released)
			}
			var covered int32
			for _, r := range runs {
				covered += r.N
			}
			if int(covered) != len(times) || len(times) != app.TotalInvocations() {
				t.Fatalf("%s: runs cover %d of %d invocations (app has %d)", app.ID, covered, len(times), app.TotalInvocations())
			}
			if useExec != (execs != nil) || (useExec && len(execs) != len(times)) {
				t.Fatalf("%s (exec=%v): %d exec times for %d invocations", app.ID, useExec, len(execs), len(times))
			}
		}
	}
}
