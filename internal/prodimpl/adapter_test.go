package prodimpl

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestAdapterImplementsPolicy(t *testing.T) {
	var _ policy.Policy = NewPolicyAdapter(DefaultConfig())
}

func TestAdapterLearnsPattern(t *testing.T) {
	p := NewPolicyAdapter(DefaultConfig())
	a := p.NewApp("app")
	var d policy.Decision
	first := true
	for i := 0; i < 30; i++ {
		d = a.NextWindows(30*time.Minute, first)
		first = false
	}
	if d.Mode != policy.ModeHistogram {
		t.Fatalf("mode = %v", d.Mode)
	}
	// Pre-warm = 27min minus the 90s lead.
	want := 27*time.Minute - 90*time.Second
	if d.PreWarm != want {
		t.Fatalf("preWarm = %v, want %v", d.PreWarm, want)
	}
	// Window must still cover the actual 30-minute idle time.
	if d.PreWarm > 30*time.Minute || d.PreWarm+d.KeepAlive < 30*time.Minute {
		t.Fatalf("window [%v, %v] misses the 30m IT", d.PreWarm, d.PreWarm+d.KeepAlive)
	}
}

func TestAdapterFirstDecisionStandard(t *testing.T) {
	p := NewPolicyAdapter(DefaultConfig())
	d := p.NewApp("x").NextWindows(0, true)
	if d.Mode != policy.ModeStandard || d.KeepAlive != 4*time.Hour {
		t.Fatalf("decision = %+v", d)
	}
}

func TestAdapterInSimulatorComparableToHybrid(t *testing.T) {
	pop, err := workload.Generate(workload.Config{
		Seed: 11, NumApps: 80, Duration: 48 * time.Hour,
		MaxDailyRate: 500, MaxEventsPerFunction: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The production adapter mutates shared daily state; run the
	// simulator single-threaded for a deterministic comparison.
	prod := sim.Simulate(pop.Trace, NewPolicyAdapter(DefaultConfig()), sim.Options{Workers: 1})
	hybrid := sim.Simulate(pop.Trace, policy.NewHybrid(policy.DefaultHybridConfig()), sim.Options{Workers: 1})
	fixed := sim.Simulate(pop.Trace, policy.FixedKeepAlive{KeepAlive: 10 * time.Minute}, sim.Options{Workers: 1})

	q3 := func(r *sim.Result) float64 {
		cold := metrics.NewColdStartSink()
		for i, a := range r.Apps {
			cold.Consume(i, a)
		}
		return cold.ThirdQuartile()
	}
	pq, hq, fq := q3(prod), q3(hybrid), q3(fixed)
	// The production variant must clearly beat fixed and track the
	// plain hybrid (no ARIMA path, daily decay → small gap allowed).
	if pq >= fq {
		t.Fatalf("prod Q3 %.1f should beat fixed %.1f", pq, fq)
	}
	if pq > hq+15 {
		t.Fatalf("prod Q3 %.1f too far from hybrid %.1f", pq, hq)
	}
}

func TestAdapterDayRotationInSim(t *testing.T) {
	p := NewPolicyAdapter(DefaultConfig())
	a := p.NewApp("app")
	first := true
	// 30 idle periods of 3h: virtual time crosses several day
	// boundaries.
	for i := 0; i < 30; i++ {
		a.NextWindows(3*time.Hour, first)
		first = false
	}
	if days := p.Manager().DayCount("app"); days < 3 {
		t.Fatalf("day count = %d, want >= 3 after ~3.75 virtual days", days)
	}
}
