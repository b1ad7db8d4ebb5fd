package metrics

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func mkResult(policy string, wasted float64, coldPercents ...float64) *sim.Result {
	r := &sim.Result{Policy: policy, HorizonSeconds: 3600}
	for i, cp := range coldPercents {
		inv := 100
		r.Apps = append(r.Apps, sim.AppResult{
			AppID:       string(rune('a' + i)),
			Invocations: inv,
			ColdStarts:  int(cp),
		})
	}
	if len(r.Apps) > 0 {
		r.Apps[0].WastedSeconds = wasted
	}
	return r
}

func TestThirdQuartile(t *testing.T) {
	r := mkResult("p", 0, 0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
	got := ThirdQuartileColdPercent(r)
	if math.Abs(got-75) > 1e-9 {
		t.Fatalf("q3 = %v, want 75", got)
	}
}

func TestThirdQuartileEmpty(t *testing.T) {
	if got := ThirdQuartileColdPercent(&sim.Result{}); got != 0 {
		t.Fatalf("q3 of empty = %v", got)
	}
}

func TestNormalizedWastedMemory(t *testing.T) {
	a := mkResult("a", 150, 10)
	b := mkResult("b", 100, 10)
	if got := NormalizedWastedMemory(a, b); math.Abs(got-150) > 1e-9 {
		t.Fatalf("normalized = %v, want 150", got)
	}
	if got := NormalizedWastedMemory(a, mkResult("z", 0, 10)); got != 0 {
		t.Fatalf("zero baseline should yield 0, got %v", got)
	}
}
