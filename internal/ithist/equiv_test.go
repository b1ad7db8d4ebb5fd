package ithist

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stats"
)

// binCounts reads every bin through Count, so brute-force checks see
// the same counts whichever form the histogram is in.
func binCounts(h *Histogram) []int64 {
	c := make([]int64, h.cfg.NumBins)
	for i := range c {
		c[i] = h.Count(i)
	}
	return c
}

// bruteWindows recomputes the windows from scratch with the reference
// full-scan percentileBin, bypassing the cursors and the memo.
func bruteWindows(h *Histogram) (preWarm, keepAlive time.Duration, ok bool) {
	if h.total == 0 {
		return 0, 0, false
	}
	headBin := h.percentileBin(h.cfg.HeadPercentile)
	tailBin := h.percentileBin(h.cfg.TailPercentile)
	pw, ka := marginWindows(h.cfg.NumBins, headBin, tailBin)
	return pw, ka, true
}

// randomIT draws an idle time spanning in-bounds bins, the OOB region,
// and occasionally negative values.
func randomIT(r *stats.RNG, rng time.Duration) time.Duration {
	switch r.Intn(10) {
	case 0:
		return rng + time.Duration(r.Float64()*float64(time.Hour)) // OOB
	case 1:
		return -time.Duration(r.Float64() * float64(time.Minute)) // negative
	default:
		return time.Duration(r.Float64() * float64(rng)) // in-bounds
	}
}

// TestWindowsMatchesBruteForce drives random observation sequences —
// including a Reset mid-stream — and asserts after every observation
// that the memoized, cursor-maintained Windows agrees exactly with a
// brute-force recompute from the raw counts.
func TestWindowsMatchesBruteForce(t *testing.T) {
	cfgs := []Config{
		DefaultConfig(),
		{NumBins: 60, HeadPercentile: 5, TailPercentile: 99},
		{NumBins: 17, HeadPercentile: 0, TailPercentile: 100},
		{NumBins: 240, HeadPercentile: 50, TailPercentile: 50},
	}
	check := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		cfg := cfgs[r.Intn(len(cfgs))]
		h := New(cfg)
		steps := 100 + r.Intn(400)
		resetAt := -1
		if r.Intn(2) == 0 {
			resetAt = r.Intn(steps)
		}
		for i := 0; i < steps; i++ {
			if i == resetAt {
				h.Reset()
			}
			h.Observe(randomIT(r, h.Range()))
			pw, ka, ok := h.Windows()
			bpw, bka, bok := bruteWindows(h)
			if ok != bok || pw != bpw || ka != bka {
				t.Logf("seed %d step %d: got (%v,%v,%v) want (%v,%v,%v)",
					seed, i, pw, ka, ok, bpw, bka, bok)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowsLazySyncMatchesBruteForce interleaves stretches where
// Windows is not consulted (the cursors fall behind and must catch up
// by walking) with consultations, and checks exact agreement.
func TestWindowsLazySyncMatchesBruteForce(t *testing.T) {
	check := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		h := New(DefaultConfig())
		for i := 0; i < 50; i++ {
			burst := 1 + r.Intn(40)
			for j := 0; j < burst; j++ {
				h.Observe(randomIT(r, h.Range()))
			}
			pw, ka, ok := h.Windows()
			bpw, bka, bok := bruteWindows(h)
			if ok != bok || pw != bpw || ka != bka {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// bruteRegime is the written semantics (SEMANTICS.md) evaluated from
// the raw counts alone: no cursors, no memo, no incremental moment.
func bruteRegime(h *Histogram, minObs int64, oobThr, cvThr float64) WindowRun {
	var sumSq, total float64
	counts := binCounts(h)
	for _, c := range counts {
		sumSq += float64(c) * float64(c)
		total += float64(c)
	}
	oob := float64(h.oob)
	cnt := total + oob
	std := WindowRun{Regime: RegimeStandard, Count: 1}
	if cnt >= float64(minObs) && oob > oobThr*cnt {
		return WindowRun{Regime: RegimeOOB, Count: 1}
	}
	if cnt < float64(minObs) || total == 0 {
		return std
	}
	if float64(len(counts))*sumSq < (1+cvThr*cvThr)*total*total {
		return std
	}
	pw, ka, _ := bruteWindows(h)
	return WindowRun{PreWarm: pw, KeepAlive: ka, Regime: RegimeWindows, Count: 1}
}

// stepRegime is DecideSeq's per-observation evaluation spelled out
// with the per-call methods.
func stepRegime(h *Histogram, minObs int64, oobThr, cvThr float64) WindowRun {
	cnt := h.Total() + h.OutOfBounds()
	if cnt >= minObs && h.OOBHeavy(oobThr) {
		return WindowRun{Regime: RegimeOOB, Count: 1}
	}
	if cnt >= minObs && !h.CVBelow(cvThr) {
		if pw, ka, ok := h.Windows(); ok {
			return WindowRun{PreWarm: pw, KeepAlive: ka, Regime: RegimeWindows, Count: 1}
		}
	}
	return WindowRun{Regime: RegimeStandard, Count: 1}
}

// TestDecideSeqMatchesStepwise feeds the same idle sequence to the
// batch kernel and to a step-by-step Observe/OOBHeavy/CVBelow/Windows
// replica on an independent histogram, asserting the expanded runs
// agree observation by observation with each other and with the
// brute-force evaluation of the written semantics, and that the two
// histograms end in states that keep agreeing on subsequent windows.
// The cases past the first three sit on DecideSeq's dispatch guards:
// there the kernel must decline without observing anything, and the
// per-call path alone must match the brute force.
func TestDecideSeqMatchesStepwise(t *testing.T) {
	with := func(f func(*Config)) Config {
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name          string
		cfg           Config
		oobThr, cvThr float64
		preload       int64 // per-bin count filled into two bins first
		batched       bool
	}{
		{"default", DefaultConfig(), 0.5, 2, 0, true},
		{"cv=5", DefaultConfig(), 0.5, 5, 0, true},
		{"bins=10", with(func(c *Config) { c.NumBins = 10 }), 0.5, 2, 0, true},
		{"cv=0.5", DefaultConfig(), 0.5, 0.5, 0, false},
		{"oob=0.3", DefaultConfig(), 0.3, 2, 0, false},
		{"head=2.5", with(func(c *Config) { c.HeadPercentile = 2.5 }), 0.5, 2, 0, false},
		{"bins=2048", with(func(c *Config) { c.NumBins = 2048 }), 0.5, 2, 0, false},
		// 2^26 observations are crossed in the middle of the batch.
		{"straddle-2^26", DefaultConfig(), 0.5, 2, 1<<25 - 25, false},
	}
	const minObs = 2
	for _, tc := range cases {
		fresh := func() *Histogram {
			h := New(tc.cfg)
			if tc.preload > 0 {
				fillBin(h, 3, tc.preload)
				fillBin(h, 17, tc.preload)
			}
			return h
		}
		check := func(seed uint64) bool {
			r := stats.NewRNG(seed)
			n := 100 + r.Intn(200)
			idles := make([]time.Duration, n)
			for i := range idles {
				idles[i] = randomIT(r, BinWidth*time.Duration(tc.cfg.NumBins))
			}

			batch := fresh()
			before := batch.Total()
			runs, ok := batch.DecideSeq(idles, minObs, tc.oobThr, tc.cvThr, nil)
			if ok != tc.batched {
				t.Logf("seed %d: DecideSeq ok = %v, want %v", seed, ok, tc.batched)
				return false
			}
			if !ok && (len(runs) != 0 || batch.Total() != before || batch.OutOfBounds() != 0) {
				t.Logf("seed %d: declined batch touched the histogram", seed)
				return false
			}

			// Expand runs to one entry per observation.
			var flat []WindowRun
			for _, run := range runs {
				for k := int32(0); k < run.Count; k++ {
					flat = append(flat, WindowRun{PreWarm: run.PreWarm, KeepAlive: run.KeepAlive, Regime: run.Regime, Count: 1})
				}
			}
			if ok && len(flat) != n-1 {
				t.Logf("seed %d: runs cover %d observations, want %d", seed, len(flat), n-1)
				return false
			}

			step := fresh()
			for i := 1; i < n; i++ {
				step.Observe(idles[i])
				got := stepRegime(step, minObs, tc.oobThr, tc.cvThr)
				if want := bruteRegime(step, minObs, tc.oobThr, tc.cvThr); got != want {
					t.Logf("seed %d obs %d: stepwise %+v brute force %+v", seed, i, got, want)
					return false
				}
				if ok && flat[i-1] != got {
					t.Logf("seed %d obs %d: batch %+v stepwise %+v", seed, i, flat[i-1], got)
					return false
				}
			}
			if !ok {
				return true
			}

			// The spilled state must continue to agree with the stepwise
			// histogram on further observations.
			for i := 0; i < 20; i++ {
				it := randomIT(r, 4*time.Hour)
				batch.Observe(it)
				step.Observe(it)
				bpw, bka, bok := batch.Windows()
				spw, ska, sok := step.Windows()
				if bok != sok || bpw != spw || bka != ska ||
					batch.Total() != step.Total() ||
					batch.OutOfBounds() != step.OutOfBounds() ||
					batch.sumSq != step.sumSq {
					return false
				}
			}
			return true
		}
		t.Run(tc.name, func(t *testing.T) {
			if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestObserveAllocs pins the steady-state per-observation cost of the
// histogram update to zero allocations.
func TestObserveAllocs(t *testing.T) {
	h := New(DefaultConfig())
	r := stats.NewRNG(11)
	for i := 0; i < 1000; i++ {
		h.Observe(randomIT(r, h.Range()))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(37 * time.Minute)
		h.Windows()
	})
	if allocs != 0 {
		t.Fatalf("Observe+Windows allocs/op = %v, want 0", allocs)
	}
}

// TestSmallFormMatchesDense feeds the same idle sequences to a fresh
// histogram, which starts in the small form and promotes itself on its
// ninth in-bounds observation, and to one forced dense from the start.
// After every observation the two must agree on every observable: T,
// S, oob, each bin's count, the synced cursors, CVBelow, Windows and
// the regime. A third, small-form histogram is consulted only now and
// then, so its cursors lag across the promotion and catch up by a
// walk. Each case then reuses all three after Reset, as the sim and
// cluster pools do: a promoted histogram stays dense, a small one
// stays small, and both still agree.
func TestSmallFormMatchesDense(t *testing.T) {
	cfgs := []Config{
		DefaultConfig(),
		{NumBins: 10, HeadPercentile: 5, TailPercentile: 99},
		{NumBins: 17, HeadPercentile: 0, TailPercentile: 100},
		{NumBins: 240, HeadPercentile: 2.5, TailPercentile: 50},
	}
	// idles draws a sequence crossing the promotion point: all in one
	// bin, from two or three bins, or spread with OOB and negative idles.
	idles := func(r *stats.RNG, cfg Config) []time.Duration {
		rng := BinWidth * time.Duration(cfg.NumBins)
		seq := make([]time.Duration, r.Intn(3*smallCap))
		bins := []time.Duration{
			time.Duration(r.Float64() * float64(rng)),
			time.Duration(r.Float64() * float64(rng)),
			time.Duration(r.Float64() * float64(rng)),
		}
		mode := r.Intn(3)
		for i := range seq {
			switch mode {
			case 0:
				seq[i] = bins[0]
			case 1:
				seq[i] = bins[r.Intn(len(bins))]
			default:
				seq[i] = randomIT(r, rng)
			}
		}
		return seq
	}
	check := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		cfg := cfgs[r.Intn(len(cfgs))]
		small, lazy, dense := New(cfg), New(cfg), New(cfg)
		dense.dense()
		for round := 0; round < 2; round++ {
			if round == 1 {
				wasDense := small.counts != nil
				small.Reset()
				lazy.Reset()
				dense.Reset()
				if (small.counts != nil) != wasDense || dense.counts == nil {
					t.Logf("seed %d: Reset changed the form", seed)
					return false
				}
			}
			for i, it := range idles(r, cfg) {
				small.Observe(it)
				lazy.Observe(it)
				dense.Observe(it)
				if small.Total() > smallCap && small.counts == nil {
					t.Logf("seed %d obs %d: %d in-bounds observations and no bin array", seed, i, small.Total())
					return false
				}
				if msg := sameState(small, dense); msg != "" {
					t.Logf("seed %d round %d obs %d: %s", seed, round, i, msg)
					return false
				}
				if r.Intn(4) == 0 {
					if msg := sameState(lazy, dense); msg != "" {
						t.Logf("seed %d round %d obs %d, lazy: %s", seed, round, i, msg)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// sameState compares every observable of a and b, syncing both
// histograms' cursors, and describes the first difference.
func sameState(a, b *Histogram) string {
	if a.Total() != b.Total() || a.sumSq != b.sumSq || a.OutOfBounds() != b.OutOfBounds() {
		return fmt.Sprintf("T, S, oob = %d, %d, %d vs %d, %d, %d",
			a.Total(), a.sumSq, a.OutOfBounds(), b.Total(), b.sumSq, b.OutOfBounds())
	}
	for i := 0; i < a.cfg.NumBins; i++ {
		if a.Count(i) != b.Count(i) {
			return fmt.Sprintf("bin %d: %d vs %d", i, a.Count(i), b.Count(i))
		}
	}
	for _, thr := range []float64{0, 0.5, 1, 2, 5} {
		if a.CVBelow(thr) != b.CVBelow(thr) {
			return fmt.Sprintf("CVBelow(%v) differs", thr)
		}
	}
	apw, aka, aok := a.Windows()
	bpw, bka, bok := b.Windows()
	if apw != bpw || aka != bka || aok != bok {
		return fmt.Sprintf("windows (%v, %v, %v) vs (%v, %v, %v)", apw, aka, aok, bpw, bka, bok)
	}
	if aok && (a.head != b.head || a.tail != b.tail) {
		return fmt.Sprintf("cursors %+v %+v vs %+v %+v", a.head, a.tail, b.head, b.tail)
	}
	for _, minObs := range []int64{2, 5} {
		if ar, br := stepRegime(a, minObs, 0.5, 2), stepRegime(b, minObs, 0.5, 2); ar != br {
			return fmt.Sprintf("regime %+v vs %+v", ar, br)
		}
	}
	return ""
}

// TestSmallFormAllocs pins the small form's allocations: the first
// smallCap in-bounds observations allocate nothing beyond the
// Histogram itself, the next one allocates the bin array, and a reused
// histogram that has one allocates nothing at all.
func TestSmallFormAllocs(t *testing.T) {
	var h *Histogram
	observe := func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(i) * 7 * time.Minute)
			h.Windows()
		}
	}
	for _, tc := range []struct{ n, allocs int }{{smallCap, 1}, {smallCap + 1, 2}} {
		a := testing.AllocsPerRun(20, func() {
			h = New(DefaultConfig())
			observe(tc.n)
		})
		if a != float64(tc.allocs) {
			t.Errorf("New + %d observations: %v allocs, want %d", tc.n, a, tc.allocs)
		}
	}
	if a := testing.AllocsPerRun(20, func() { h.Reset(); observe(3 * smallCap) }); a != 0 || h.counts == nil {
		t.Errorf("reused dense histogram: %v allocs, want 0", a)
	}
}
