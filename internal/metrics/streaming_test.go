package metrics

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
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
	if math.Abs(sink.ThirdQuartile()-ThirdQuartileColdPercent(res)) > tol {
		t.Errorf("ThirdQuartile = %v, exact %v", sink.ThirdQuartile(), ThirdQuartileColdPercent(res))
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

	baseline := res.TotalWastedSeconds() * 2
	got := sink.NormalizedTo(baseline)
	want := NormalizedWastedMemory(res, &sim.Result{Apps: []sim.AppResult{{WastedSeconds: baseline}}})
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("NormalizedTo = %v, batch %v", got, want)
	}
	if sink.NormalizedTo(0) != 0 {
		t.Fatal("NormalizedTo(0) should be 0")
	}
}
