package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/trace"
)

// randomTrace builds a random single-app trace from a seed.
func randomTrace(seed uint64) *trace.Trace {
	r := stats.NewRNG(seed)
	horizon := 24 * time.Hour
	n := r.Intn(200)
	times := make([]float64, n)
	for i := range times {
		times[i] = r.Float64() * horizon.Seconds()
	}
	sort.Float64s(times)
	return &trace.Trace{
		Duration: horizon,
		Apps: []*trace.App{{
			ID: "app", Owner: "o",
			Functions: []*trace.Function{{ID: "fn", Invocations: times}},
		}},
	}
}

// TestSimInvariants checks universal invariants across random traces
// and policies: cold starts bounded by invocations, at least one cold
// start when invoked, non-negative wasted time bounded by the horizon,
// and mode counts summing to invocations.
func TestSimInvariants(t *testing.T) {
	pols := []policy.Policy{
		policy.FixedKeepAlive{KeepAlive: 10 * time.Minute},
		policy.NoUnloading{},
		policy.NewHybrid(policy.DefaultHybridConfig()),
	}
	check := func(seed uint64) bool {
		tr := randomTrace(seed)
		for _, p := range pols {
			res := Simulate(tr, p)
			a := res.Apps[0]
			if a.ColdStarts < 0 || a.ColdStarts > a.Invocations {
				return false
			}
			if a.Invocations > 0 && a.ColdStarts == 0 {
				return false // first invocation is always cold
			}
			if a.WastedSeconds < 0 || a.WastedSeconds > tr.Duration.Seconds()+1e-6 {
				return false
			}
			var modes int
			for _, c := range a.ModeCounts {
				modes += c
			}
			if modes != a.Invocations {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestNoUnloadingIsColdLowerBound verifies no policy beats the
// no-unloading policy on cold starts (it only pays the first one).
func TestNoUnloadingIsColdLowerBound(t *testing.T) {
	check := func(seed uint64) bool {
		tr := randomTrace(seed)
		nu := Simulate(tr, policy.NoUnloading{})
		for _, p := range []policy.Policy{
			policy.FixedKeepAlive{KeepAlive: time.Minute},
			policy.FixedKeepAlive{KeepAlive: 2 * time.Hour},
			policy.NewHybrid(policy.DefaultHybridConfig()),
		} {
			res := Simulate(tr, p)
			if res.Apps[0].ColdStarts < nu.Apps[0].ColdStarts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestFixedKeepAliveMonotone verifies a longer fixed keep-alive never
// increases cold starts and never decreases wasted memory.
func TestFixedKeepAliveMonotone(t *testing.T) {
	kas := []time.Duration{time.Minute, 10 * time.Minute, time.Hour, 4 * time.Hour}
	check := func(seed uint64) bool {
		tr := randomTrace(seed)
		prevCold := 1 << 30
		prevWaste := -1.0
		for _, ka := range kas {
			res := Simulate(tr, policy.FixedKeepAlive{KeepAlive: ka})
			if res.Apps[0].ColdStarts > prevCold {
				return false
			}
			if res.Apps[0].WastedSeconds < prevWaste-1e-6 {
				return false
			}
			prevCold = res.Apps[0].ColdStarts
			prevWaste = res.Apps[0].WastedSeconds
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestWastedTimeConservation: for the fixed policy, wasted time equals
// the sum over gaps of min(keepAlive, gap) plus the trailing window —
// an independent closed-form recomputation.
func TestWastedTimeConservation(t *testing.T) {
	const ka = 600.0
	check := func(seed uint64) bool {
		tr := randomTrace(seed)
		times := tr.Apps[0].Functions[0].Invocations
		res := Simulate(tr, policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
		if len(times) == 0 {
			return res.Apps[0].WastedSeconds == 0
		}
		var want float64
		for i := 1; i < len(times); i++ {
			gap := times[i] - times[i-1]
			if gap < ka {
				want += gap
			} else {
				want += ka
			}
		}
		trailing := tr.Duration.Seconds() - times[len(times)-1]
		if trailing < ka {
			want += trailing
		} else {
			want += ka
		}
		diff := res.Apps[0].WastedSeconds - want
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
