package platform

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
)

// virtualPlatform builds a two-invoker platform with the default
// delays (500 ms cold start + 10 ms runtime init) on a virtual clock
// starting at the zero time, which the test steps.
func virtualPlatform(pol policy.Policy) (*Platform, *VirtualClock) {
	clk := &VirtualClock{}
	return NewPlatform(Config{NumInvokers: 2, Clock: clk}, pol), clk
}

// at is the virtual time d after the clock's start.
func at(d time.Duration) time.Time { return time.Time{}.Add(d) }

// invoke runs one invocation of app to completion, stepping clk until
// it finishes.
func invoke(t *testing.T, p *Platform, clk *VirtualClock, app string, exec time.Duration, mem float64) Outcome {
	t.Helper()
	var out *Outcome
	p.InvokeAsync(app, "fn", exec, mem, func(o Outcome, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = &o
	})
	for out == nil && clk.Step() {
	}
	if out == nil {
		t.Fatalf("invocation of %s never completed", app)
	}
	return *out
}

func TestColdThenWarm(t *testing.T) {
	p, clk := virtualPlatform(policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	defer p.Stop()

	if out := invoke(t, p, clk, "app1", 100*time.Millisecond, 128); !out.Cold || out.Latency != 610*time.Millisecond {
		t.Fatalf("first invocation: cold=%v latency=%v, want cold in 610ms", out.Cold, out.Latency)
	}
	if out := invoke(t, p, clk, "app1", 100*time.Millisecond, 128); out.Cold || out.Latency != 100*time.Millisecond {
		t.Fatalf("second invocation: cold=%v latency=%v, want warm in 100ms", out.Cold, out.Latency)
	}
}

func TestKeepAliveExpiryCausesCold(t *testing.T) {
	p, clk := virtualPlatform(policy.FixedKeepAlive{KeepAlive: time.Minute})
	defer p.Stop()

	first := invoke(t, p, clk, "app1", 0, 128)
	clk.RunUntil(first.End.Add(3 * time.Minute))
	if out := invoke(t, p, clk, "app1", 0, 128); !out.Cold {
		t.Fatal("invocation after keep-alive expiry must be cold")
	}
	if s := p.ClusterStats(); s.Unloads != 1 {
		t.Fatalf("unloads = %d, want 1", s.Unloads)
	}
}

// TestWindowEdgesAreInclusive pins the platform to the simulator's
// order at equal times (kernel.Classify): a pre-warm due at an
// arrival's instant loads first, and a keep-alive ending at it expires
// after. One nanosecond outside either window is cold.
func TestWindowEdgesAreInclusive(t *testing.T) {
	const ka = time.Minute
	p, clk := virtualPlatform(policy.FixedKeepAlive{KeepAlive: ka})
	defer p.Stop()
	edge := invoke(t, p, clk, "edge", 0, 64)
	late := invoke(t, p, clk, "late", 0, 64)
	clk.RunUntil(edge.End.Add(ka))
	if out := invoke(t, p, clk, "edge", 0, 64); out.Cold {
		t.Fatal("arrival exactly keep-alive after the execution was cold")
	}
	clk.RunUntil(late.End.Add(ka + time.Nanosecond))
	if out := invoke(t, p, clk, "late", 0, 64); !out.Cold {
		t.Fatal("arrival 1ns past the keep-alive was warm")
	}

	const pw = 5 * time.Minute
	p, clk = virtualPlatform(alwaysPrewarmPolicy{pw: pw, ka: 2 * time.Minute})
	defer p.Stop()
	edge = invoke(t, p, clk, "edge", 0, 64)
	early := invoke(t, p, clk, "early", 0, 64)
	clk.RunUntil(edge.End.Add(pw))
	if out := invoke(t, p, clk, "edge", 0, 64); out.Cold {
		t.Fatal("arrival exactly at the pre-warm did not find the pre-warmed container")
	}
	clk.RunUntil(early.End.Add(pw - time.Nanosecond))
	if out := invoke(t, p, clk, "early", 0, 64); !out.Cold {
		t.Fatal("arrival 1ns before the pre-warm was warm")
	}
	if s := p.ClusterStats(); s.Prewarms != 1 {
		t.Fatalf("pre-warms = %d, want 1", s.Prewarms)
	}
}

func TestAppsPinnedToInvoker(t *testing.T) {
	p, clk := virtualPlatform(policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	defer p.Stop()
	var invokers []int
	for i := 0; i < 3; i++ {
		invokers = append(invokers, invoke(t, p, clk, "pinned", 0, 64).Invoker)
	}
	if invokers[0] != invokers[1] || invokers[1] != invokers[2] {
		t.Fatalf("app moved invokers: %v", invokers)
	}
}

func TestDistinctAppsIsolatedContainers(t *testing.T) {
	p, clk := virtualPlatform(policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	defer p.Stop()
	invoke(t, p, clk, "a", 0, 64)
	if out := invoke(t, p, clk, "b", 0, 64); !out.Cold {
		t.Fatal("first invocation of a different app must be cold")
	}
}

func TestPrewarmProducesWarmStart(t *testing.T) {
	// Hybrid policy with a pattern: invoke every 2 virtual minutes so
	// the histogram learns; only the first invocation may be cold.
	p, clk := virtualPlatform(policy.NewHybrid(policy.DefaultHybridConfig()))
	defer p.Stop()

	var colds int
	const rounds = 12
	for i := 0; i < rounds; i++ {
		clk.RunUntil(at(time.Duration(i) * 2 * time.Minute))
		if invoke(t, p, clk, "periodic", 0, 100).Cold {
			colds++
		}
	}
	if colds != 1 {
		t.Fatalf("cold starts = %d/%d, want only the first", colds, rounds)
	}
}

func TestUnloadAfterExecWithPrewarmWindow(t *testing.T) {
	// A policy that always returns PW=5min, KA=2min: the container is
	// dropped right after execution, then pre-warmed exactly 5 virtual
	// minutes later.
	const pw = 5 * time.Minute
	p, clk := virtualPlatform(alwaysPrewarmPolicy{pw: pw, ka: 2 * time.Minute})
	defer p.Stop()

	end := invoke(t, p, clk, "app", 0, 256).End
	loaded := func() bool { return p.ClusterStats().LoadedContainers == 1 }
	if loaded() {
		t.Fatal("container should be unloaded right after execution")
	}
	clk.RunUntil(end.Add(pw))
	if loaded() {
		t.Fatal("container pre-warmed before the window ended")
	}
	if !clk.Step() || !clk.Now().Equal(end.Add(pw)) || !loaded() {
		t.Fatalf("container not pre-warmed at the window's end (clock at %v)", clk.Now().Sub(end))
	}
	// An invocation now is warm (middle scenario of Figure 9).
	if out := invoke(t, p, clk, "app", 0, 256); out.Cold {
		t.Fatal("invocation after pre-warm must be warm")
	}
	if s := p.ClusterStats(); s.Prewarms != 1 {
		t.Fatalf("pre-warms = %d, want 1", s.Prewarms)
	}
}

// TestOverlappingExecutionsKeepOnePrewarm: when two executions of one
// app overlap, each completion schedules a pre-warm, and the later one
// must replace the earlier, or the next arrival cannot cancel it.
func TestOverlappingExecutionsKeepOnePrewarm(t *testing.T) {
	const pw = 5 * time.Minute
	p, clk := virtualPlatform(alwaysPrewarmPolicy{pw: pw, ka: 2 * time.Minute})
	defer p.Stop()

	p.InvokeAsync("app", "a", 2*time.Minute, 64, func(Outcome, error) {})
	clk.RunUntil(at(time.Minute))
	invoke(t, p, clk, "app", 0, 64) // warm on a's container, pre-warm due at 6m
	clk.RunUntil(at(5 * time.Minute))
	end := invoke(t, p, clk, "app", 0, 64).End
	clk.RunUntil(end.Add(pw))
	if s := p.ClusterStats(); s.Prewarms != 0 {
		t.Fatalf("%d pre-warm(s) fired before the last execution's, due at %v", s.Prewarms, end.Add(pw).Sub(at(0)))
	}
	if !clk.Step() || p.ClusterStats().Prewarms != 1 {
		t.Fatal("the last execution's pre-warm did not fire")
	}
}

// alwaysPrewarmPolicy is a test policy with constant windows.
type alwaysPrewarmPolicy struct{ pw, ka time.Duration }

func (p alwaysPrewarmPolicy) Name() string { return "test-always-prewarm" }
func (p alwaysPrewarmPolicy) NewApp(string) policy.AppPolicy {
	return alwaysPrewarmApp{p.pw, p.ka}
}

type alwaysPrewarmApp struct{ pw, ka time.Duration }

func (a alwaysPrewarmApp) NextWindows(time.Duration, bool) policy.Decision {
	return policy.Decision{PreWarm: a.pw, KeepAlive: a.ka, Mode: policy.ModeHistogram}
}

func TestMemoryAccounting(t *testing.T) {
	p, clk := virtualPlatform(policy.FixedKeepAlive{KeepAlive: time.Minute})
	defer p.Stop()
	end := invoke(t, p, clk, "app", 0, 100).End
	clk.RunUntil(end.Add(30 * time.Second)) // half the keep-alive
	if s := p.ClusterStats(); s.MemoryMBSeconds != 3000 {
		t.Fatalf("memory integral = %v MB·s, want 100 MB for 30 s", s.MemoryMBSeconds)
	}
}

func TestAppOutcomesAggregation(t *testing.T) {
	p, clk := virtualPlatform(policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	defer p.Stop()
	for i := 0; i < 3; i++ {
		invoke(t, p, clk, "x", 0, 64)
	}
	invoke(t, p, clk, "y", 0, 64)
	outs := p.AppOutcomes()
	if len(outs) != 2 {
		t.Fatalf("apps = %d", len(outs))
	}
	if outs[0].App != "x" || outs[0].Invocations != 3 || outs[0].ColdStarts != 1 {
		t.Fatalf("x outcome = %+v", outs[0])
	}
	if cp := outs[1].ColdPercent(); cp != 100 {
		t.Fatalf("y cold%% = %v", cp)
	}
	if n := p.controller.latHist.Count(); n != 4 {
		t.Fatalf("latencies = %d", n)
	}
	// Two cold starts of 510 ms and two warm zero-length executions.
	if mean, p99 := p.LatencyStats(); mean != 255*time.Millisecond || p99 < 510*time.Millisecond {
		t.Fatalf("latency stats: mean=%v p99=%v", mean, p99)
	}
}

func TestPolicyOverheadMeasured(t *testing.T) {
	p, clk := virtualPlatform(policy.NewHybrid(policy.DefaultHybridConfig()))
	defer p.Stop()
	for i := 0; i < 5; i++ {
		invoke(t, p, clk, "app", 0, 64)
	}
	mean, count := p.Controller().PolicyOverhead()
	if count != 5 {
		t.Fatalf("decision count = %d", count)
	}
	// §5.3 reports ~836µs in Scala; our Go histogram update should be
	// well under a millisecond.
	if mean > time.Millisecond {
		t.Fatalf("policy overhead = %v, want < 1ms", mean)
	}
}

func TestStopIdempotent(t *testing.T) {
	p, _ := virtualPlatform(policy.FixedKeepAlive{KeepAlive: time.Minute})
	p.Stop()
	p.Stop() // must not panic
}

func TestInvokeAfterStopErrors(t *testing.T) {
	p, _ := virtualPlatform(policy.FixedKeepAlive{KeepAlive: time.Minute})
	p.Stop()
	if _, err := p.Invoke("app", "fn", 0, 64); err == nil {
		t.Fatal("expected error after Stop")
	}
}

func TestScaledClock(t *testing.T) {
	c := NewScaledClock(100)
	start := c.Now()
	time.Sleep(20 * time.Millisecond)
	elapsed := c.Now().Sub(start)
	// 20ms real at 100x → ~2s virtual.
	if elapsed < time.Second || elapsed > 5*time.Second {
		t.Fatalf("virtual elapsed = %v, want ~2s", elapsed)
	}
}

func TestScaledClockClampsScale(t *testing.T) {
	c := NewScaledClock(0.1)
	start := c.Now()
	time.Sleep(5 * time.Millisecond)
	if c.Now().Sub(start) <= 0 {
		t.Fatal("clock not advancing")
	}
}

func TestStopWaitsForInFlightInvoke(t *testing.T) {
	p, clk := virtualPlatform(policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	var stopped atomic.Bool
	completed := false
	p.InvokeAsync("app", "fn", time.Minute, 128, func(_ Outcome, err error) {
		completed = err == nil && !stopped.Load()
	})
	clk.Step() // the cold start: the execution is now in flight

	stopDone := make(chan struct{})
	go func() {
		p.Stop()
		stopped.Store(true)
		close(stopDone)
	}()
	for c := p.controller; ; runtime.Gosched() {
		c.life.RLock()
		closed := c.stopped
		c.life.RUnlock()
		if closed {
			break
		}
	}
	clk.Step() // the execution ends; only now may Stop return
	<-stopDone
	if !completed {
		t.Fatal("the in-flight invocation failed, or completed after Stop returned")
	}
	if s := p.ClusterStats(); s.LoadedContainers != 0 || s.Unloads != 1 {
		t.Fatalf("after Stop: %d containers loaded, %d unloads; want 0 and 1", s.LoadedContainers, s.Unloads)
	}
	if _, err := p.Invoke("app", "fn", 0, 128); err == nil {
		t.Fatal("Invoke after Stop succeeded")
	}
}

func TestStopCancelsPendingPrewarm(t *testing.T) {
	p, clk := virtualPlatform(alwaysPrewarmPolicy{pw: time.Minute, ka: 2 * time.Minute})
	invoke(t, p, clk, "app", 0, 256)
	p.Stop()
	for clk.Step() { // past the pre-warm window
	}
	if s := p.ClusterStats(); s.Prewarms != 0 || s.LoadedContainers != 0 {
		t.Fatalf("pre-warm scheduled before Stop ran after it: %+v", s)
	}
}
