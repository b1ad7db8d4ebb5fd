package metrics

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/trace"
)

func TestSinkMerge(t *testing.T) {
	apps := fakeResults(400)
	whole := NewColdStartSink()
	wholeW := NewWastedMemorySink()
	merged := NewColdStartSink()
	mergedW := NewWastedMemorySink()
	shards := []*ColdStartSink{NewColdStartSink(), NewColdStartSink(), NewColdStartSink()}
	shardWs := []*WastedMemorySink{NewWastedMemorySink(), NewWastedMemorySink(), NewWastedMemorySink()}
	for i, a := range apps {
		whole.Consume(i, a)
		wholeW.Consume(i, a)
		shards[i%3].Consume(i, a)
		shardWs[i%3].Consume(i, a)
	}
	for _, s := range shards {
		merged.Merge(s)
	}
	for _, s := range shardWs {
		mergedW.Merge(s)
	}
	if merged.count != whole.count {
		t.Fatalf("merged apps %d, whole %d", merged.count, whole.count)
	}
	// The distribution bins are integers: quantiles must agree exactly.
	for _, p := range []float64{0, 25, 50, 75, 99, 100} {
		if g, w := merged.Quantile(p), whole.Quantile(p); g != w {
			t.Errorf("Quantile(%g): merged %v, whole %v", p, g, w)
		}
	}
	if mergedW.TotalInvocations() != wholeW.TotalInvocations() ||
		mergedW.TotalColdStarts() != wholeW.TotalColdStarts() ||
		mergedW.Apps() != wholeW.Apps() {
		t.Errorf("merged counters diverge from whole")
	}
	if g, w := mergedW.TotalWastedSeconds(), wholeW.TotalWastedSeconds(); math.Abs(g-w) > 1e-9*math.Abs(w) {
		t.Errorf("merged waste %v, whole %v", g, w)
	}
}

func clusterFixture() *cluster.Result {
	appA := &trace.App{ID: "a", MemoryMB: 150, Functions: []*trace.Function{
		{ID: "fa", Invocations: []float64{0, 200, 400}},
	}}
	appB := &trace.App{ID: "b", MemoryMB: 150, Functions: []*trace.Function{
		{ID: "fb", Invocations: []float64{100, 300}},
	}}
	tr := &trace.Trace{Duration: 1000 * time.Second, Apps: []*trace.App{appA, appB}}
	return cluster.Simulate(tr, policy.FixedKeepAlive{KeepAlive: 600 * time.Second},
		cluster.Config{Nodes: 1, NodeMemMB: 200})
}

// TestClusterAttributionSink checks the cause split on the
// hand-computed ping-pong fixture (3 eviction-induced cold starts out
// of 5 total, 4 evictions).
func TestClusterAttributionSink(t *testing.T) {
	res := clusterFixture()
	sink := NewClusterAttributionSink()
	for i, a := range res.Apps {
		sink.Consume(i, a)
	}
	if sink.apps != 2 || sink.invocations != 5 {
		t.Fatalf("apps=%d invocations=%d, want 2/5", sink.apps, sink.invocations)
	}
	if sink.coldStarts != 5 || sink.EvictionColdStarts() != 3 || sink.PolicyColdStarts() != 2 {
		t.Errorf("attribution %s, want cold=5 policy=2 eviction=3", sink)
	}
	if sink.Evictions() != 4 {
		t.Errorf("evictions %d, want 4", sink.Evictions())
	}
	if got, want := sink.EvictionColdPercent(), 100*3.0/5.0; got != want {
		t.Errorf("eviction cold percent %v, want %v", got, want)
	}

	// Merge doubles every counter exactly.
	twin := NewClusterAttributionSink()
	for i, a := range res.Apps {
		twin.Consume(i, a)
	}
	twin.Merge(sink)
	if twin.coldStarts != 10 || twin.EvictionColdStarts() != 6 || twin.Evictions() != 8 {
		t.Errorf("merged attribution %s", twin)
	}
}

// TestClusterSinksThroughRun feeds both sink kinds a cluster.Run's
// per-app outcomes, as the scenario runner does, and cross-checks them
// against the returned result's totals.
func TestClusterSinksThroughRun(t *testing.T) {
	appA := &trace.App{ID: "a", MemoryMB: 150, Functions: []*trace.Function{
		{ID: "fa", Invocations: []float64{0, 200, 400}},
	}}
	appB := &trace.App{ID: "b", MemoryMB: 150, Functions: []*trace.Function{
		{ID: "fb", Invocations: []float64{100, 300}},
	}}
	tr := &trace.Trace{Duration: 1000 * time.Second, Apps: []*trace.App{appA, appB}}
	attr := NewClusterAttributionSink()
	wasted := NewWastedMemorySink()
	res, err := cluster.Run(t.Context(), trace.NewTraceSource(tr),
		policy.FixedKeepAlive{KeepAlive: 600 * time.Second},
		cluster.Config{Nodes: 1, NodeMemMB: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Apps {
		attr.Consume(i, a)
		wasted.Consume(i, a.AppResult)
	}
	if int(attr.coldStarts) != res.TotalColdStarts() {
		t.Errorf("attribution sink cold %d, result %d", attr.coldStarts, res.TotalColdStarts())
	}
	if int(attr.EvictionColdStarts()) != res.TotalEvictionColdStarts() {
		t.Errorf("attribution sink eviction cold %d, result %d",
			attr.EvictionColdStarts(), res.TotalEvictionColdStarts())
	}
	var want float64
	for _, a := range res.Apps {
		want += a.WastedSeconds
	}
	if wasted.TotalWastedSeconds() != want {
		t.Errorf("sim sink waste %v, result %v", wasted.TotalWastedSeconds(), want)
	}
}
