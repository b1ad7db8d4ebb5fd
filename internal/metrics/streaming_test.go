package metrics

import (
	"math"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fakeResults builds a deterministic spread of per-app outcomes.
func fakeResults(n int) []sim.AppResult {
	r := stats.NewRNG(99)
	apps := make([]sim.AppResult, n)
	for i := range apps {
		inv := 1 + int(r.Float64()*200)
		cold := int(r.Float64() * float64(inv+1))
		if cold > inv {
			cold = inv
		}
		apps[i] = sim.AppResult{
			AppID:         "app",
			Invocations:   inv,
			ColdStarts:    cold,
			WastedSeconds: r.Float64() * 1e4,
		}
	}
	// A few zero-invocation apps, which the distribution must skip.
	apps = append(apps, sim.AppResult{AppID: "idle"}, sim.AppResult{AppID: "idle2"})
	return apps
}

func batchResult(apps []sim.AppResult) *sim.Result {
	return &sim.Result{Policy: "p", HorizonSeconds: 3600, Apps: apps}
}

// TestColdStartSinkMatchesBatchQuantiles pins the streaming quantiles
// to the exact batch computation within the sink's 0.01-point bin
// resolution.
func TestColdStartSinkMatchesBatchQuantiles(t *testing.T) {
	apps := fakeResults(500)
	sink := NewColdStartSink()
	for i, a := range apps {
		sink.Consume(i, a)
	}
	res := batchResult(apps)
	if got, want := sink.count, int64(len(res.ColdPercents())); got != want {
		t.Fatalf("app count = %d, want %d", got, want)
	}
	exactAll := res.ColdPercents()
	const tol = 0.011 // one bin of slack
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
		got := sink.Quantile(p)
		want := stats.Percentile(exactAll, p)
		if math.Abs(got-want) > tol {
			t.Errorf("Quantile(%g) = %v, exact %v (diff %v)", p, got, want, got-want)
		}
	}
	if want := stats.Percentile(exactAll, 75); math.Abs(sink.ThirdQuartile()-want) > tol {
		t.Errorf("ThirdQuartile = %v, exact %v", sink.ThirdQuartile(), want)
	}
}

func TestColdStartSinkEmpty(t *testing.T) {
	sink := NewColdStartSink()
	if q := sink.Quantile(75); q != 0 {
		t.Fatalf("empty Quantile = %v", q)
	}
}

func TestWastedMemorySinkMatchesBatch(t *testing.T) {
	apps := fakeResults(400)
	res := batchResult(apps)
	sink := NewWastedMemorySink()
	for i, a := range apps {
		sink.Consume(i, a)
	}
	if got, want := sink.TotalWastedSeconds(), res.TotalWastedSeconds(); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("wasted %v, want %v", got, want)
	}
	var invocations, coldStarts int64
	for _, a := range apps {
		invocations += int64(a.Invocations)
		coldStarts += int64(a.ColdStarts)
	}
	if got := sink.TotalInvocations(); got != invocations {
		t.Fatalf("invocations %d, want %d", got, invocations)
	}
	if got := sink.TotalColdStarts(); got != coldStarts {
		t.Fatalf("cold starts %d, want %d", got, coldStarts)
	}
	if got, want := sink.Apps(), int64(len(apps)); got != want {
		t.Fatalf("apps %d, want %d", got, want)
	}

}

func TestThirdQuartile(t *testing.T) {
	sink := NewColdStartSink()
	for i := 0; i <= 10; i++ {
		sink.Consume(i, sim.AppResult{Invocations: 100, ColdStarts: 10 * i})
	}
	if got := sink.ThirdQuartile(); math.Abs(got-75) > 1e-9 {
		t.Fatalf("q3 = %v, want 75", got)
	}
}

func TestThirdQuartileEmpty(t *testing.T) {
	sink := NewColdStartSink()
	sink.Consume(0, sim.AppResult{AppID: "idle"})
	if got := sink.ThirdQuartile(); got != 0 {
		t.Fatalf("q3 of empty = %v", got)
	}
}

func TestNormalizedWastedMemory(t *testing.T) {
	sink := NewWastedMemorySink()
	sink.Consume(0, sim.AppResult{Invocations: 100, ColdStarts: 10, WastedSeconds: 150})
	if got := sink.NormalizedTo(100); math.Abs(got-150) > 1e-9 {
		t.Fatalf("normalized = %v, want 150", got)
	}
	if got := sink.NormalizedTo(0); got != 0 {
		t.Fatalf("zero baseline should yield 0, got %v", got)
	}
}

// TestAlwaysColdFraction runs Figure 19's always-cold fractions
// through the simulator into the sink, whole and as a two-shard merge,
// and through the state codec.
func TestAlwaysColdFraction(t *testing.T) {
	tr := &trace.Trace{
		Duration: time.Hour,
		Apps: []*trace.App{
			// Always cold, multi-invocation (gap > KA).
			{ID: "a", Functions: []*trace.Function{{ID: "f1", Invocations: []float64{0, 2400}}}},
			// Single invocation: always cold by definition.
			{ID: "b", Functions: []*trace.Function{{ID: "f2", Invocations: []float64{0}}}},
			// Warm after first.
			{ID: "c", Functions: []*trace.Function{{ID: "f3", Invocations: []float64{0, 60}}}},
			// Never invoked: skipped.
			{ID: "d", Functions: []*trace.Function{{ID: "f4"}}},
		},
	}
	res := sim.Simulate(tr, policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	whole := NewColdStartSink()
	shards := []*ColdStartSink{NewColdStartSink(), NewColdStartSink()}
	for i, a := range res.Apps {
		whole.Consume(i, a)
		shards[i%2].Consume(i, a)
	}
	merged := NewColdStartSink()
	for _, s := range shards {
		merged.Merge(s)
	}
	state, err := whole.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	decoded := NewColdStartSink()
	if err := decoded.UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*ColdStartSink{"whole": whole, "merged": merged, "decoded": decoded} {
		if got := s.AlwaysColdFraction(false); math.Abs(got-2.0/3) > 1e-9 {
			t.Errorf("%s: always-cold (all) = %v, want 2/3", name, got)
		}
		if got := s.AlwaysColdFraction(true); math.Abs(got-0.5) > 1e-9 {
			t.Errorf("%s: always-cold (excl single) = %v, want 1/2", name, got)
		}
	}
	if got := NewColdStartSink().AlwaysColdFraction(true); got != 0 {
		t.Errorf("empty sink always-cold = %v, want 0", got)
	}
}

// TestColdStartStateOmitsZeroCounters pins the wire form of a sink
// without always-cold or single-invocation apps to the bytes it had
// before those counters existed.
func TestColdStartStateOmitsZeroCounters(t *testing.T) {
	sink := NewColdStartSink()
	sink.Consume(0, sim.AppResult{Invocations: 4, ColdStarts: 1})
	state, err := sink.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(state), `{"bins":{"2500":1},"count":1}`; got != want {
		t.Fatalf("state = %s, want %s", got, want)
	}
}
