package policy

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/ithist"
	"repro/internal/stats"
)

// TestAppStateIsWholeCacheLines pins the padding of the two objects an
// app's state is made of. Each is written on every decision, and the
// pool hands neighbouring ones to different goroutines; sized in whole
// 64-byte lines, no two apps share one. On serve-hot's two callers (a
// 2-vCPU box) a 176-byte layout, whose neighbours shared lines, was
// slower than the previous layout in 9 of 10 pairs.
func TestAppStateIsWholeCacheLines(t *testing.T) {
	for name, size := range map[string]uintptr{
		"hybridApp":        unsafe.Sizeof(hybridApp{}),
		"ithist.Histogram": unsafe.Sizeof(ithist.Histogram{}),
	} {
		if size%64 != 0 || size > 192 {
			t.Errorf("%s is %d B, want a multiple of 64 and at most 192", name, size)
		}
	}
}

// TestNextWindowsSteadyStateAllocs pins the per-invocation decision
// cost of the hybrid policy to zero allocations once the app reaches
// steady state (ring buffer at capacity, scratch buffers grown). This
// is the §5.3 overhead budget: a decision runs on every invocation of
// every app, so any allocation here multiplies across the fleet.
func TestNextWindowsSteadyStateAllocs(t *testing.T) {
	p := NewHybrid(DefaultHybridConfig())
	ap := p.NewApp("app")
	r := stats.NewRNG(3)
	// Warm past the ring capacity (ARIMAMaxSeries) with in-bounds idle
	// times so the histogram regime, not the ARIMA path, is active.
	for i := 0; i <= ARIMAMaxSeries+16; i++ {
		ap.NextWindows(time.Duration(r.Float64()*float64(30*time.Minute)), i == 0)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		ap.NextWindows(17*time.Minute, false)
	})
	if allocs != 0 {
		t.Fatalf("steady-state NextWindows allocs/op = %v, want 0", allocs)
	}
}

// TestNextWindowsSeqSteadyStateAllocs does the same for the batch
// path: with reused buffers, a whole-app decision sequence in the
// histogram regime allocates nothing beyond the caller-provided run
// slice.
func TestNextWindowsSeqSteadyStateAllocs(t *testing.T) {
	p := NewHybrid(DefaultHybridConfig())
	r := stats.NewRNG(4)
	idles := make([]time.Duration, 512)
	for i := range idles {
		idles[i] = time.Duration(r.Float64() * float64(30*time.Minute))
	}
	runs := make([]DecisionRun, 0, 64)
	// Warm one app's scratch, then measure on that retained app with an
	// in-place reset per round. (Round-tripping through NewApp/Release
	// here would measure sync.Pool behavior, which legitimately drops
	// puts under the race detector and across GCs.)
	a := p.NewApp("app").(*hybridApp)
	runs = a.NextWindowsSeq(idles, runs[:0])
	allocs := testing.AllocsPerRun(200, func() {
		a.reset(a.pol)
		runs = a.NextWindowsSeq(idles, runs[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state NextWindowsSeq allocs/op = %v, want 0", allocs)
	}
}

// TestSeqOnPreObservedAppFallsBack drives an app through some
// per-call decisions first and then a batch call, and checks the
// batch output and the post-call state match an app driven purely
// per-call (the batch kernel requires a fresh app; pre-observed apps
// must take the per-call fallback rather than dropping state).
func TestSeqOnPreObservedAppFallsBack(t *testing.T) {
	r := stats.NewRNG(9)
	pre := make([]time.Duration, 40)
	for i := range pre {
		pre[i] = time.Duration(r.Float64() * float64(5*time.Hour))
	}
	batchIdles := make([]time.Duration, 60)
	for i := range batchIdles {
		batchIdles[i] = time.Duration(r.Float64() * float64(5*time.Hour))
	}

	p := NewHybrid(DefaultHybridConfig())
	mixed := p.NewApp("mixed").(*hybridApp)
	pure := p.NewApp("pure")
	for i, d := range pre {
		mixed.NextWindows(d, i == 0)
		pure.NextWindows(d, i == 0)
	}
	runs := mixed.NextWindowsSeq(batchIdles, nil)
	j := 0
	for _, run := range runs {
		for k := int32(0); k < run.N; k++ {
			// Batch continues the app's history: idles[0] repeats the
			// first=true protocol, the rest observe.
			want := pure.NextWindows(batchIdles[j], j == 0)
			if run.D != want {
				t.Fatalf("decision %d: batch %+v per-call %+v", j, run.D, want)
			}
			j++
		}
	}
	if j != len(batchIdles) {
		t.Fatalf("runs expand to %d decisions, want %d", j, len(batchIdles))
	}
}

// TestSeqMatchesStepwiseDecisions expands the batch path's runs and
// compares them decision by decision with a fresh app driven through
// the per-call path, across mixed in-bounds/out-of-bounds sequences
// (the ARIMA regime included). The configurations after the default
// are ones the batch kernel's integer forms cannot represent, where
// NextWindowsSeq must take the per-call walk itself.
func TestSeqMatchesStepwiseDecisions(t *testing.T) {
	for _, spec := range []string{"hybrid", "hybrid?cv=0.5", "hybrid?head=2.5", "hybrid?range=2048m"} {
		p := MustFromSpec(spec)
		t.Run(spec, func(t *testing.T) { testSeqMatchesStepwise(t, p) })
	}
}

func testSeqMatchesStepwise(t *testing.T, p Policy) {
	for seed := uint64(0); seed < 12; seed++ {
		r := stats.NewRNG(seed)
		n := 2 + r.Intn(200)
		idles := make([]time.Duration, n)
		for i := range idles {
			if r.Intn(3) == 0 {
				idles[i] = 4*time.Hour + time.Duration(r.Float64()*float64(2*time.Hour))
			} else {
				idles[i] = time.Duration(r.Float64() * float64(time.Hour))
			}
		}
		seqApp := p.NewApp("a").(*hybridApp)
		runs := seqApp.NextWindowsSeq(idles, nil)

		stepApp := p.NewApp("b")
		var flat []Decision
		for i := range idles {
			flat = append(flat, stepApp.NextWindows(idles[i], i == 0))
		}

		j := 0
		for _, run := range runs {
			for k := int32(0); k < run.N; k++ {
				if j >= len(flat) {
					t.Fatalf("seed %d: runs expand past %d decisions", seed, len(flat))
				}
				if run.D != flat[j] {
					t.Fatalf("seed %d decision %d: batch %+v stepwise %+v", seed, j, run.D, flat[j])
				}
				j++
			}
		}
		if j != len(flat) {
			t.Fatalf("seed %d: runs expand to %d decisions, want %d", seed, j, len(flat))
		}
	}
}
