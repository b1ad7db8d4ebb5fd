package forecast

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingForecaster predicts the series' last value and counts calls.
// gate, when set, holds every call until it is closed.
type countingForecaster struct {
	calls atomic.Int64
	gate  chan struct{}
}

func (*countingForecaster) Name() string { return "counting" }

func (c *countingForecaster) PredictNext(series []float64) (float64, bool) {
	c.calls.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	return series[len(series)-1], true
}

// TestMemoKeysByExactBits: series that compare equal as floats but
// differ in bits (+0 and -0), or that sit one ulp apart, are separate
// entries; a repeat of the same bits, in a different slice, is a hit.
func TestMemoKeysByExactBits(t *testing.T) {
	inner := &countingForecaster{}
	m := NewMemo(inner)
	base := []float64{360, 360, 359.99999999998334, 360}
	ulp := []float64{360, 360, 359.99999999998334, math.Nextafter(360, 400)}
	pos := []float64{1, 2, 0}
	neg := []float64{1, 2, math.Copysign(0, -1)}
	for i, s := range [][]float64{base, ulp, pos, neg} {
		if _, ok := m.PredictNext(s); !ok {
			t.Fatalf("series %d: no prediction", i)
		}
		if got := inner.calls.Load(); got != int64(i+1) {
			t.Fatalf("after series %d: %d inner calls, want %d", i, got, i+1)
		}
	}
	// The caller's slice is scratch: overwriting it must not alter the
	// stored key.
	scratch := []float64{7, 8, 9, 10}
	m.PredictNext(scratch)
	scratch[3] = 1
	for _, s := range [][]float64{base, ulp, pos, neg, {360, 360, 359.99999999998334, 360}, {7, 8, 9, 10}} {
		m.PredictNext(s)
	}
	if got := inner.calls.Load(); got != 5 {
		t.Fatalf("%d inner calls, want 5: 5 distinct series, then only repeats", got)
	}
	if pred, _ := m.PredictNext(scratch); pred != 1 || inner.calls.Load() != 6 {
		t.Fatalf("overwritten scratch slice: pred %v after %d calls, want its own fit (1) as call 6", pred, inner.calls.Load())
	}
	if pred, _ := m.PredictNext(base); pred != 360 {
		t.Fatalf("base series replayed %v, want 360", pred)
	}
	if pred, _ := m.PredictNext(ulp); pred != math.Nextafter(360, 400) {
		t.Fatalf("ulp series replayed %v, want its own prediction", pred)
	}
	// Two series whose hashes collide are still two entries.
	a := []float64{1, 2}
	x1 := (hashBits(nil) ^ math.Float64bits(1)) * 1099511628211
	x2 := (hashBits(nil) ^ math.Float64bits(3)) * 1099511628211
	b := []float64{3, math.Float64frombits(x1 ^ math.Float64bits(2) ^ x2)}
	if hashBits(a) != hashBits(b) {
		t.Fatal("the constructed series do not collide")
	}
	predA, _ := m.PredictNext(a)
	predB, _ := m.PredictNext(b)
	if math.Float64bits(predA) != math.Float64bits(2) || math.Float64bits(predB) != math.Float64bits(b[1]) {
		t.Fatalf("colliding series predicted %v and %v, want their own last values 2 and %v", predA, predB, b[1])
	}
	if m.Name() != "counting" {
		t.Fatalf("Name() = %q, want the inner model's", m.Name())
	}
}

// TestMemoSingleFlight: N goroutines asking for one series while the
// first fit is still running call the inner forecaster once and all
// get its result.
func TestMemoSingleFlight(t *testing.T) {
	const n = 16
	inner := &countingForecaster{gate: make(chan struct{})}
	m := NewMemo(inner)
	series := []float64{3, 1, 4, 1, 5, 9}
	var wg sync.WaitGroup
	var started atomic.Int64
	preds := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := append([]float64(nil), series...)
			started.Add(1)
			preds[i], _ = m.PredictNext(own)
		}()
	}
	// Give the goroutines time to reach the memo while the first fit
	// is held; any that arrive later are plain hits, and the count is
	// the same.
	for started.Load() < n || inner.calls.Load() == 0 {
		runtime.Gosched()
	}
	time.Sleep(20 * time.Millisecond)
	close(inner.gate)
	wg.Wait()
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("%d inner calls for one series, want 1", got)
	}
	for i, p := range preds {
		if p != 9 {
			t.Fatalf("goroutine %d got %v, want 9", i, p)
		}
	}
}

// panickingForecaster holds its first call until gate closes and then
// panics; later calls predict 7.
type panickingForecaster struct {
	calls atomic.Int64
	gate  chan struct{}
}

func (*panickingForecaster) Name() string { return "panicking" }

func (p *panickingForecaster) PredictNext([]float64) (float64, bool) {
	if p.calls.Add(1) == 1 {
		<-p.gate
		panic("fit failed")
	}
	return 7, true
}

// TestMemoPanicReleasesWaiters: a fit that panics propagates to its
// caller, a request waiting on it wakes and fits the series itself, and
// the memo then holds that result.
func TestMemoPanicReleasesWaiters(t *testing.T) {
	inner := &panickingForecaster{gate: make(chan struct{})}
	m := NewMemo(inner)
	series := []float64{1, 2, 3, 4}
	panicked := make(chan bool)
	go func() {
		defer func() { panicked <- recover() != nil }()
		m.PredictNext(series)
	}()
	for inner.calls.Load() == 0 {
		runtime.Gosched()
	}
	waited := make(chan float64)
	go func() {
		pred, _ := m.PredictNext(series)
		waited <- pred
	}()
	close(inner.gate)
	if !<-panicked {
		t.Fatal("the inner panic did not reach the fitting caller")
	}
	if pred := <-waited; pred != 7 {
		t.Fatalf("the waiter got %v, want 7 from its own fit", pred)
	}
	if pred, ok := m.PredictNext(series); !ok || pred != 7 || inner.calls.Load() != 2 {
		t.Fatalf("after the panic: pred %v ok %v after %d calls, want 7 true after 2", pred, ok, inner.calls.Load())
	}
}
