package platform

import (
	"testing"
	"time"

	"repro/internal/policy"
)

// fastCfg is a platform config with tiny real-time delays suited to
// unit tests: virtual time is 1000x real time, so a virtual minute
// passes in 60ms.
func fastCfg() Config {
	return Config{
		NumInvokers:      2,
		ColdStartDelay:   500 * time.Millisecond, // 0.5ms real
		RuntimeInitDelay: 10 * time.Millisecond,
		Clock:            NewScaledClock(1000),
	}
}

func TestColdThenWarm(t *testing.T) {
	p := NewPlatform(fastCfg(), policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	defer p.Stop()

	out1, err := p.Invoke("app1", "fn", 100*time.Millisecond, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !out1.Cold {
		t.Fatal("first invocation must be cold")
	}
	out2, err := p.Invoke("app1", "fn", 100*time.Millisecond, 128)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Cold {
		t.Fatal("second invocation within keep-alive must be warm")
	}
	if out2.Latency >= out1.Latency {
		t.Fatalf("warm latency %v should beat cold %v", out2.Latency, out1.Latency)
	}
}

func TestKeepAliveExpiryCausesCold(t *testing.T) {
	p := NewPlatform(fastCfg(), policy.FixedKeepAlive{KeepAlive: time.Minute})
	defer p.Stop()

	if _, err := p.Invoke("app1", "fn", 0, 128); err != nil {
		t.Fatal(err)
	}
	// Wait 3 virtual minutes (3ms real * 60... = 180ms real).
	p.cfg.Clock.Sleep(3 * time.Minute)
	out, err := p.Invoke("app1", "fn", 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cold {
		t.Fatal("invocation after keep-alive expiry must be cold")
	}
	stats := p.ClusterStats()
	if stats.Unloads == 0 {
		t.Fatal("expected at least one container unload")
	}
}

func TestAppsPinnedToInvoker(t *testing.T) {
	p := NewPlatform(fastCfg(), policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	defer p.Stop()
	var invokers []int
	for i := 0; i < 3; i++ {
		out, err := p.Invoke("pinned", "fn", 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		invokers = append(invokers, out.Invoker)
	}
	if invokers[0] != invokers[1] || invokers[1] != invokers[2] {
		t.Fatalf("app moved invokers: %v", invokers)
	}
}

func TestDistinctAppsIsolatedContainers(t *testing.T) {
	p := NewPlatform(fastCfg(), policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	defer p.Stop()
	if _, err := p.Invoke("a", "f", 0, 64); err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke("b", "f", 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cold {
		t.Fatal("first invocation of a different app must be cold")
	}
}

func TestPrewarmProducesWarmStart(t *testing.T) {
	// Hybrid policy with a pattern: invoke every 2 virtual minutes so
	// the histogram learns, then check a later invocation is warm via
	// pre-warming (or kept alive), not cold.
	cfg := policy.DefaultHybridConfig()
	cfg.MinObservations = 2
	p := NewPlatform(fastCfg(), policy.NewHybrid(cfg))
	defer p.Stop()

	clock := p.cfg.Clock
	var colds int
	const rounds = 12
	for i := 0; i < rounds; i++ {
		out, err := p.Invoke("periodic", "fn", 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if out.Cold {
			colds++
		}
		clock.Sleep(2 * time.Minute)
	}
	// The first is necessarily cold; the policy should keep the rest
	// warm (standard keep-alive covers a 2-minute gap trivially).
	if colds > 2 {
		t.Fatalf("cold starts = %d/%d, policy failed to keep app warm", colds, rounds)
	}
}

func TestUnloadAfterExecWithPrewarmWindow(t *testing.T) {
	// A policy that always returns PW=5min, KA=2min: container must be
	// dropped right after execution, then prewarmed ~5 virtual minutes
	// later.
	p := NewPlatform(fastCfg(), alwaysPrewarmPolicy{pw: 5 * time.Minute, ka: 2 * time.Minute})
	defer p.Stop()

	if _, err := p.Invoke("app", "fn", 0, 256); err != nil {
		t.Fatal(err)
	}
	inv := p.controller.invokers[p.controller.state("app", 256).invoker]
	// The unload happens before Invoke returns.
	if inv.Loaded("app") {
		t.Fatal("container should be unloaded right after execution")
	}
	// After the pre-warm window it must be loaded again.
	p.cfg.Clock.Sleep(6 * time.Minute)
	time.Sleep(20 * time.Millisecond)
	if !inv.Loaded("app") {
		t.Fatal("container should be pre-warmed after the window")
	}
	// An invocation now is warm (middle scenario of Figure 9).
	out, err := p.Invoke("app", "fn", 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cold {
		t.Fatal("invocation after pre-warm must be warm")
	}
	s := p.ClusterStats()
	if s.Prewarms == 0 {
		t.Fatal("expected prewarm count > 0")
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
	p := NewPlatform(fastCfg(), policy.FixedKeepAlive{KeepAlive: time.Minute})
	if _, err := p.Invoke("app", "fn", 0, 100); err != nil {
		t.Fatal(err)
	}
	p.cfg.Clock.Sleep(30 * time.Second) // half the keep-alive
	s := p.ClusterStats()               // settles memory
	// ~30 virtual seconds at 100MB → ~3000 MB·s; generous tolerance for
	// scheduler jitter at 1000x.
	if s.MemoryMBSeconds < 1000 || s.MemoryMBSeconds > 12000 {
		t.Fatalf("memory integral = %v MB·s", s.MemoryMBSeconds)
	}
	p.Stop()
}

func TestAppOutcomesAggregation(t *testing.T) {
	p := NewPlatform(fastCfg(), policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	defer p.Stop()
	for i := 0; i < 3; i++ {
		if _, err := p.Invoke("x", "f", 0, 64); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Invoke("y", "f", 0, 64); err != nil {
		t.Fatal(err)
	}
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
	if n := p.latHist.Count(); n != 4 {
		t.Fatalf("latencies = %d", n)
	}
	if mean, p99 := p.LatencyStats(); mean <= 0 || p99 < mean {
		t.Fatalf("latency stats: mean=%v p99=%v", mean, p99)
	}
}

func TestPolicyOverheadMeasured(t *testing.T) {
	p := NewPlatform(fastCfg(), policy.NewHybrid(policy.DefaultHybridConfig()))
	defer p.Stop()
	for i := 0; i < 5; i++ {
		if _, err := p.Invoke("app", "fn", 0, 64); err != nil {
			t.Fatal(err)
		}
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
	p := NewPlatform(fastCfg(), policy.FixedKeepAlive{KeepAlive: time.Minute})
	p.Stop()
	p.Stop() // must not panic
}

func TestInvokeAfterStopErrors(t *testing.T) {
	p := NewPlatform(fastCfg(), policy.FixedKeepAlive{KeepAlive: time.Minute})
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

// sleepSignalClock is a ScaledClock that announces every Sleep it
// starts, so a test can act while an invocation is mid-execution.
type sleepSignalClock struct {
	*ScaledClock
	sleeps chan time.Duration
}

func (c sleepSignalClock) Sleep(d time.Duration) {
	c.sleeps <- d
	c.ScaledClock.Sleep(d)
}

func TestStopWaitsForInFlightInvoke(t *testing.T) {
	cfg := fastCfg()
	// Sized to the invocation's two sleeps (cold start, execution).
	clock := sleepSignalClock{NewScaledClock(1000), make(chan time.Duration, 2)}
	cfg.Clock = clock
	p := NewPlatform(cfg, policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})

	const exec = time.Minute // 60ms real
	type result struct {
		out Outcome
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := p.Invoke("app", "fn", exec, 128)
		done <- result{out, err}
	}()
	for d := range clock.sleeps {
		if d == exec {
			break // the execution has started
		}
	}
	p.Stop()
	stoppedAt := clock.Now()

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight Invoke failed: %v", r.err)
	}
	if r.out.End.After(stoppedAt) {
		t.Fatalf("Stop returned at %v, before the in-flight execution ended at %v", stoppedAt, r.out.End)
	}
	if s := p.ClusterStats(); s.LoadedContainers != 0 || s.Unloads != 1 {
		t.Fatalf("after Stop: %d containers loaded, %d unloads; want 0 and 1", s.LoadedContainers, s.Unloads)
	}
	if _, err := p.Invoke("app", "fn", 0, 128); err == nil {
		t.Fatal("Invoke after Stop succeeded")
	}
}

func TestStopCancelsPendingPrewarm(t *testing.T) {
	p := NewPlatform(fastCfg(), alwaysPrewarmPolicy{pw: time.Minute, ka: 2 * time.Minute})
	if _, err := p.Invoke("app", "fn", 0, 256); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	// The pre-warm may have fired before Stop on a loaded box; it must
	// not fire after.
	before := p.ClusterStats().Prewarms
	p.cfg.Clock.Sleep(2 * time.Minute) // past the pre-warm window
	if s := p.ClusterStats(); s.Prewarms != before || s.LoadedContainers != 0 {
		t.Fatalf("pre-warm scheduled before Stop ran after it: %d pre-warms at Stop, then %+v", before, s)
	}
}
