package replay

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// cfg is two invokers with the default 500 ms cold start + 10 ms init.
var cfg = platform.Config{NumInvokers: 2}

func smallTrace() *trace.Trace {
	return &trace.Trace{
		Duration: 10 * time.Minute,
		Apps: []*trace.App{
			{ID: "a", Owner: "o", MemoryMB: 100, Functions: []*trace.Function{
				{ID: "f1", Trigger: trace.TriggerHTTP,
					Invocations: []float64{0, 60, 120, 180, 240},
					ExecStats:   trace.ExecStats{AvgSeconds: 0.5}},
			}},
			{ID: "b", Owner: "o", MemoryMB: 50, Functions: []*trace.Function{
				{ID: "f2", Trigger: trace.TriggerTimer,
					Invocations: []float64{30, 330},
					ExecStats:   trace.ExecStats{AvgSeconds: 0.1}},
			}},
		},
	}
}

func TestReplayFixedPolicy(t *testing.T) {
	rep, err := Replay(context.Background(), cfg, policy.FixedKeepAlive{KeepAlive: 3 * time.Minute}, smallTrace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invocations != 7 {
		t.Fatalf("invocations = %d", rep.Invocations)
	}
	if len(rep.Apps) != 2 {
		t.Fatalf("apps = %d", len(rep.Apps))
	}
	// App a: invocations 1 min apart with 3-min keep-alive → only first
	// cold. App b: 5-min gap → both cold.
	if a, b := rep.Apps[0], rep.Apps[1]; a.ColdStarts != 1 || b.ColdStarts != 2 {
		t.Fatalf("cold starts: %+v, want a 1 and b 2", rep.Apps)
	}
	// Three cold starts of 510 ms, four warm zero-length executions.
	if want := 3 * 510 * time.Millisecond / 7; rep.MeanLatency != want || rep.P99Latency < 510*time.Millisecond {
		t.Fatalf("latencies: mean=%v p99=%v, want mean %v", rep.MeanLatency, rep.P99Latency, want)
	}
	// The replay ends with b's last cold start, at 330.51 s. By then a
	// has been loaded since 0.51 s (330 s × 100 MB), and b's first
	// container stayed 180 s (× 50 MB) until its keep-alive ran out.
	if rep.Cluster.MemoryMBSeconds != 330*100+180*50 {
		t.Fatalf("memory = %v MB·s, want %v", rep.Cluster.MemoryMBSeconds, 330*100+180*50)
	}
}

func TestReplayLimit(t *testing.T) {
	rep, err := Replay(context.Background(), cfg, policy.FixedKeepAlive{KeepAlive: time.Minute}, smallTrace(), Options{Limit: 90 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Events at t<=90: a@0, a@60, b@30 → 3.
	if rep.Invocations != 3 {
		t.Fatalf("invocations = %d, want 3", rep.Invocations)
	}
}

func TestReplayWithExecTime(t *testing.T) {
	rep, err := Replay(context.Background(), cfg, policy.FixedKeepAlive{KeepAlive: 2 * time.Minute}, smallTrace(), Options{UseExecTime: true})
	if err != nil {
		t.Fatal(err)
	}
	// a: one cold start (510 + 500 ms), four warm 500 ms executions;
	// b: two cold starts (510 + 100 ms) 5 minutes apart.
	if want := (1010 + 4*500 + 2*610) * time.Millisecond / 7; rep.MeanLatency != want {
		t.Fatalf("mean latency = %v, want %v", rep.MeanLatency, want)
	}
}

func TestReplayHybridReducesColdStarts(t *testing.T) {
	// Periodic app at 3-min intervals over 2 virtual hours.
	var times []float64
	for ts := 0.0; ts < 7200; ts += 180 {
		times = append(times, ts)
	}
	tr := &trace.Trace{
		Duration: 2 * time.Hour,
		Apps: []*trace.App{{ID: "p", Owner: "o", MemoryMB: 100,
			Functions: []*trace.Function{{ID: "f", Trigger: trace.TriggerTimer, Invocations: times}}}},
	}

	fixedRep, err := Replay(context.Background(), cfg, policy.FixedKeepAlive{KeepAlive: time.Minute}, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hybridRep, err := Replay(context.Background(), cfg, policy.NewHybrid(policy.DefaultHybridConfig()), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fixedRep.Apps[0].ColdStarts <= hybridRep.Apps[0].ColdStarts {
		t.Fatalf("hybrid cold=%d should beat fixed-1m cold=%d",
			hybridRep.Apps[0].ColdStarts, fixedRep.Apps[0].ColdStarts)
	}
}

// TestReplayRepeats: a replay is a function of its inputs. The same
// hybrid replay, with execution times, run three times under
// GOMAXPROCS 1 and 2, gives equal reports field by field; only the
// policy overhead, measured in real time, may differ.
func TestReplayRepeats(t *testing.T) {
	pop, err := workload.Generate(workload.Config{
		Seed: 3, NumApps: 60, Duration: 6 * time.Hour,
		MaxDailyRate: 2000, MaxEventsPerFunction: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var first *Report
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for i := 0; i < 3; i++ {
			rep, err := Replay(context.Background(), platform.Config{NumInvokers: 4},
				policy.NewHybrid(policy.DefaultHybridConfig()), pop.Trace, Options{UseExecTime: true})
			if err != nil {
				t.Fatal(err)
			}
			rep.PolicyOverheadMean = 0
			if first == nil {
				first = rep
			} else if !reflect.DeepEqual(rep, first) {
				t.Errorf("GOMAXPROCS %d run %d differs:\n got %+v\nwant %+v", procs, i, rep, first)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	if first.Invocations == 0 || first.Cluster.ColdStarts == 0 || first.Cluster.WarmStarts == 0 {
		t.Fatalf("degenerate replay: %+v", first)
	}
}

func TestSelectMidPopularity(t *testing.T) {
	tr := &trace.Trace{Duration: time.Hour}
	for i := 0; i < 100; i++ {
		n := i + 1 // popularity rank: app i has i+1 invocations
		times := make([]float64, n)
		for j := range times {
			times[j] = float64(j)
		}
		tr.Apps = append(tr.Apps, &trace.App{
			ID:        string(rune('a'+i/26)) + string(rune('a'+i%26)),
			Functions: []*trace.Function{{ID: string(rune('A'+i/26)) + string(rune('A'+i%26)), Invocations: times}},
		})
	}
	sel := SelectMidPopularity(tr, 20, 7)
	if len(sel.Apps) != 20 {
		t.Fatalf("selected %d apps", len(sel.Apps))
	}
	for _, a := range sel.Apps {
		inv := a.TotalInvocations()
		// The [0.55, 0.92] band of 1..100 is 56..92.
		if inv < 56 || inv > 92 {
			t.Fatalf("app with %d invocations is not mid-popularity", inv)
		}
	}
	// Deterministic.
	sel2 := SelectMidPopularity(tr, 20, 7)
	for i := range sel.Apps {
		if sel.Apps[i].ID != sel2.Apps[i].ID {
			t.Fatal("selection not deterministic")
		}
	}
}

func TestSelectMidPopularityFewApps(t *testing.T) {
	tr := smallTrace()
	sel := SelectMidPopularity(tr, 50, 1)
	if len(sel.Apps) > 2 {
		t.Fatalf("selected %d from 2-app trace", len(sel.Apps))
	}
}

// policyFunc is a policy whose every app decides with f.
type policyFunc func() policy.Decision

func (f policyFunc) Name() string                                    { return "test-func" }
func (f policyFunc) NewApp(string) policy.AppPolicy                  { return f }
func (f policyFunc) NextWindows(time.Duration, bool) policy.Decision { return f() }

// TestReplayCancellation: a replay canceled mid-flight, here by its
// policy's 3rd decision, returns context.Canceled and fires no arrival
// after the cancellation.
func TestReplayCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	decisions := 0
	pol := policyFunc(func() policy.Decision {
		if decisions++; decisions == 3 {
			cancel()
		}
		return policy.Decision{Forever: true}
	})
	if _, err := Replay(ctx, cfg, pol, smallTrace(), Options{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if decisions != 3 {
		t.Fatalf("%d decisions, want the replay to stop at the 3rd of 7", decisions)
	}
}

// TestReplayPreCanceled pins the immediate-return path.
func TestReplayPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Replay(ctx, cfg, policy.NoUnloading{}, smallTrace(), Options{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestScheduleOrdersTiesByAppAndFunction: the dataset CSV's canonical
// timestamps (60m + 60k/n) give every function with the same count in
// the same minute the same times, so two apps can share every
// timestamp. The firing order of such ties must be (app, fn) — a
// property of the trace, not of the order apps are listed in or of
// what an unstable sort leaves behind.
func TestScheduleOrdersTiesByAppAndFunction(t *testing.T) {
	var times []float64
	for m := 0; m < 40; m++ {
		times = append(times, float64(60*m), float64(60*m+30))
	}
	app := func(id string) *trace.App {
		return &trace.App{ID: id, MemoryMB: 64, Functions: []*trace.Function{
			{ID: "f", Invocations: times},
			{ID: "g", Invocations: times},
		}}
	}
	fwd := &trace.Trace{Duration: time.Hour, Apps: []*trace.App{app("a"), app("b")}}
	rev := &trace.Trace{Duration: time.Hour, Apps: []*trace.App{app("b"), app("a")}}

	got := schedule(fwd, Options{})
	if len(got) != 4*len(times) {
		t.Fatalf("scheduled %d events, want %d", len(got), 4*len(times))
	}
	for i, ev := range got {
		want := event{t: times[i/4], app: "ab"[i/2%2 : i/2%2+1], fn: "fg"[i%2 : i%2+1], mem: 64}
		if ev != want {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want)
		}
	}
	for i, ev := range schedule(rev, Options{}) {
		if ev != got[i] {
			t.Fatalf("listing the apps in the other order changed event %d: %+v, want %+v", i, ev, got[i])
		}
	}
}
