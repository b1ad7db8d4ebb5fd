package replay

import (
	"context"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/trace"
)

func fastPlatform(pol policy.Policy) *platform.Platform {
	return scaledPlatform(pol, 2000)
}

// scaledPlatform runs the platform's clock at scale× wall time. Tests
// asserting warm/cold outcomes need the keep-alive's distance from the
// nearest gap to be far above scheduler jitter in *wall* time.
func scaledPlatform(pol policy.Policy, scale float64) *platform.Platform {
	return platform.NewPlatform(platform.Config{
		NumInvokers:      2,
		ColdStartDelay:   500 * time.Millisecond,
		RuntimeInitDelay: 10 * time.Millisecond,
		Clock:            platform.NewScaledClock(scale),
	}, pol)
}

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
	// A 3-minute keep-alive sits 2 virtual minutes from both app a's
	// 1-minute gaps and app b's 5-minute gap; at 500x that is 240 ms of
	// wall clock on either side, where 30 ms is within a loaded 2-vCPU
	// box's scheduling jitter.
	p := scaledPlatform(policy.FixedKeepAlive{KeepAlive: 3 * time.Minute}, 500)
	defer p.Stop()
	rep, err := Replay(context.Background(), p, smallTrace(), Options{})
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
	var a, b platform.AppOutcome
	for _, ao := range rep.Apps {
		switch ao.App {
		case "a":
			a = ao
		case "b":
			b = ao
		}
	}
	if a.ColdStarts != 1 {
		t.Fatalf("app a cold = %d, want 1", a.ColdStarts)
	}
	if b.ColdStarts != 2 {
		t.Fatalf("app b cold = %d, want 2", b.ColdStarts)
	}
	if rep.MeanLatency <= 0 || rep.P99Latency < rep.MeanLatency {
		t.Fatalf("latencies: mean=%v p99=%v", rep.MeanLatency, rep.P99Latency)
	}
	if rep.Cluster.MemoryMBSeconds <= 0 {
		t.Fatal("expected memory accounting")
	}
}

func TestReplayLimit(t *testing.T) {
	p := fastPlatform(policy.FixedKeepAlive{KeepAlive: time.Minute})
	defer p.Stop()
	rep, err := Replay(context.Background(), p, smallTrace(), Options{Limit: 90 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Events at t<=90: a@0, a@60, b@30 → 3.
	if rep.Invocations != 3 {
		t.Fatalf("invocations = %d, want 3", rep.Invocations)
	}
}

func TestReplayWithExecTime(t *testing.T) {
	p := fastPlatform(policy.FixedKeepAlive{KeepAlive: 2 * time.Minute})
	defer p.Stop()
	rep, err := Replay(context.Background(), p, smallTrace(), Options{UseExecTime: true})
	if err != nil {
		t.Fatal(err)
	}
	// Warm latencies now include ~0.5 virtual seconds of execution.
	if rep.MeanLatency < 100*time.Millisecond {
		t.Fatalf("mean latency = %v, want >= exec time", rep.MeanLatency)
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

	pf := fastPlatform(policy.FixedKeepAlive{KeepAlive: time.Minute})
	fixedRep, err := Replay(context.Background(), pf, tr, Options{})
	pf.Stop()
	if err != nil {
		t.Fatal(err)
	}
	ph := fastPlatform(policy.NewHybrid(policy.DefaultHybridConfig()))
	hybridRep, err := Replay(context.Background(), ph, tr, Options{})
	ph.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if fixedRep.Apps[0].ColdStarts <= hybridRep.Apps[0].ColdStarts {
		t.Fatalf("hybrid cold=%d should beat fixed-1m cold=%d",
			hybridRep.Apps[0].ColdStarts, fixedRep.Apps[0].ColdStarts)
	}
}

func TestReplayAfterStopErrors(t *testing.T) {
	p := fastPlatform(policy.FixedKeepAlive{KeepAlive: time.Minute})
	p.Stop()
	if _, err := Replay(context.Background(), p, smallTrace(), Options{}); err == nil {
		t.Fatal("expected error replaying on stopped platform")
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

// TestReplayCancellation proves a replay blocked on the virtual clock
// returns promptly when its context is canceled — the previously
// unstoppable long-run case. The platform runs at 1x real time with
// events minutes apart, so only cancellation can end the replay fast.
func TestReplayCancellation(t *testing.T) {
	p := platform.NewPlatform(platform.Config{NumInvokers: 1}, policy.NoUnloading{})
	defer p.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Replay(ctx, p, smallTrace(), Options{})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the replay park on the clock
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replay did not return after cancellation")
	}
}

// TestReplayPreCanceled pins the immediate-return path.
func TestReplayPreCanceled(t *testing.T) {
	p := fastPlatform(policy.NoUnloading{})
	defer p.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Replay(ctx, p, smallTrace(), Options{}); err != context.Canceled {
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
