package ithist

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stats"
)

func defaultHist() *Histogram { return New(DefaultConfig()) }

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	h := New(cfg)
	if h.Range() != 4*time.Hour {
		t.Fatalf("range = %v, want 4h", h.Range())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumBins: 0},
		{NumBins: -1},
		{NumBins: 10, HeadPercentile: -1},
		{NumBins: 10, TailPercentile: 101},
		{NumBins: 10, HeadPercentile: 50, TailPercentile: 40},
		{NumBins: 10, HeadPercentile: math.NaN(), TailPercentile: 99},
		{NumBins: 10, TailPercentile: math.NaN()},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

func TestObserveBinsAndOOB(t *testing.T) {
	h := defaultHist()
	h.Observe(30 * time.Second) // bin 0
	h.Observe(90 * time.Second) // bin 1
	h.Observe(5 * time.Hour)    // OOB
	h.Observe(-time.Second)     // OOB (defensive)
	if h.Total() != 2 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.OutOfBounds() != 2 {
		t.Fatalf("oob = %d", h.OutOfBounds())
	}
	if h.Count(0) != 1 || h.Count(1) != 1 {
		t.Fatal("wrong bins")
	}
}

func TestObserveExactRangeBoundaryIsOOB(t *testing.T) {
	h := defaultHist()
	h.Observe(4 * time.Hour) // == range → OOB
	if h.Total() != 0 || h.OutOfBounds() != 1 {
		t.Fatalf("total=%d oob=%d", h.Total(), h.OutOfBounds())
	}
}

func TestWindowsEmptyNotOK(t *testing.T) {
	if _, _, ok := defaultHist().Windows(); ok {
		t.Fatal("empty histogram should not produce windows")
	}
}

func TestWindowsConcentratedDistribution(t *testing.T) {
	// All ITs ~ 10 minutes: head and tail in bin 10.
	h := defaultHist()
	for i := 0; i < 100; i++ {
		h.Observe(10*time.Minute + 30*time.Second)
	}
	pw, ka, ok := h.Windows()
	if !ok {
		t.Fatal("expected windows")
	}
	// Head = bin 10 lower edge = 10min, minus 10% margin = 9min.
	if pw != 9*time.Minute {
		t.Fatalf("preWarm = %v, want 9m", pw)
	}
	// Tail = bin 10 upper edge = 11min, plus 10% = 12.1min; KA = 12.1 - 9 = 3.1min.
	wantKA := time.Duration(float64(11*time.Minute)*1.1) - 9*time.Minute
	if ka != wantKA {
		t.Fatalf("keepAlive = %v, want %v", ka, wantKA)
	}
}

func TestWindowsHeadRoundsDownToZero(t *testing.T) {
	// ITs under one minute: head bin 0 → pre-warm window 0 (the
	// "don't unload" cases in the center column of Figure 12).
	h := defaultHist()
	for i := 0; i < 50; i++ {
		h.Observe(20 * time.Second)
	}
	pw, ka, ok := h.Windows()
	if !ok || pw != 0 {
		t.Fatalf("preWarm = %v ok=%v, want 0", pw, ok)
	}
	if ka <= 0 {
		t.Fatalf("keepAlive = %v", ka)
	}
}

func TestWindowsSpreadDistribution(t *testing.T) {
	// ITs spread 5..60 min: head near 5min, tail near 60min.
	h := defaultHist()
	for m := 5; m <= 60; m++ {
		h.Observe(time.Duration(m)*time.Minute + time.Second)
	}
	pw, ka, ok := h.Windows()
	if !ok {
		t.Fatal("expected windows")
	}
	// 56 observations; 5th pct ≈ index 2.8 → within first few bins (5-7min).
	if pw < 4*time.Minute || pw > 8*time.Minute {
		t.Fatalf("preWarm = %v", pw)
	}
	// Tail covers ~60min; KA = tail*1.1 - pw ≈ 61min.
	if ka < 50*time.Minute || ka > 70*time.Minute {
		t.Fatalf("keepAlive = %v", ka)
	}
}

func TestWindowsTailClampedToRange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumBins = 10 // 10-minute range
	h := New(cfg)
	for i := 0; i < 100; i++ {
		h.Observe(9*time.Minute + 30*time.Second) // last bin
	}
	pw, ka, ok := h.Windows()
	if !ok {
		t.Fatal("expected windows")
	}
	if pw+ka > h.Range() {
		t.Fatalf("pw+ka = %v exceeds range %v", pw+ka, h.Range())
	}
}

func TestReset(t *testing.T) {
	h := defaultHist()
	h.Observe(time.Minute)
	h.Observe(10 * time.Hour)
	h.Reset()
	if h.Total() != 0 || h.OutOfBounds() != 0 {
		t.Fatal("Reset did not clear counts")
	}
	if h.sumSq != 0 {
		t.Fatal("Reset did not clear CV state")
	}
	if _, _, ok := h.Windows(); ok {
		t.Fatal("Windows after Reset should not be ok")
	}
}

func TestWindowsMonotoneTailWithPercentile(t *testing.T) {
	// A higher tail percentile must never shorten pw+ka coverage.
	mk := func(tail float64) time.Duration {
		cfg := DefaultConfig()
		cfg.TailPercentile = tail
		h := New(cfg)
		r := stats.NewRNG(5)
		for i := 0; i < 500; i++ {
			h.Observe(time.Duration(r.Float64() * float64(2*time.Hour)))
		}
		pw, ka, _ := h.Windows()
		return pw + ka
	}
	if mk(99) < mk(95) {
		t.Fatal("coverage should grow with tail percentile")
	}
}

func TestPercentileBinProperty(t *testing.T) {
	// percentileBin via Windows must track the underlying distribution:
	// feeding only bin k concentrates head and tail at k.
	check := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		bin := r.Intn(240)
		h := defaultHist()
		for i := 0; i < 20; i++ {
			h.Observe(time.Duration(bin)*time.Minute + 15*time.Second)
		}
		pw, ka, ok := h.Windows()
		if !ok {
			return false
		}
		wantPW := time.Duration(float64(time.Duration(bin)*time.Minute) * (1 - Margin))
		wantEnd := time.Duration(bin+1) * time.Minute
		if wantEnd > h.Range() {
			wantEnd = h.Range()
		}
		return pw == wantPW && pw+ka >= wantEnd
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// fillBin adds n to bin's count, as n observations there would, by
// writing the count, T and S directly: the cap sits billions of
// Observe calls away.
func fillBin(h *Histogram, bin int, n int64) {
	counts := h.dense()
	c := int64(counts[bin])
	counts[bin] = uint32(c + n)
	h.total += n
	h.sumSq += (c+n)*(c+n) - c*c
	h.invalidateCursors()
}

// fillOOB adds n to the out-of-bounds count, as n out-of-bounds
// observations would.
func fillOOB(h *Histogram, n int64) { h.oob += n }

// checkRecount compares T, S and the synced cursors with a brute-force
// recount of the bins, S in big integers so that a wrapped S cannot
// agree by wrapping the same way.
func checkRecount(t *testing.T, h *Histogram) {
	t.Helper()
	var total int64
	sumSq := new(big.Int)
	for _, c := range binCounts(h) {
		total += c
		sumSq.Add(sumSq, new(big.Int).Mul(big.NewInt(c), big.NewInt(c)))
	}
	if h.Total() != total || !sumSq.IsInt64() || h.sumSq != sumSq.Int64() {
		t.Fatalf("T, S = %d, %d; recount %d, %v", h.Total(), h.sumSq, total, sumSq)
	}
	if h.Total() > maxCount || h.OutOfBounds() > maxCount {
		t.Fatalf("T, oob = %d, %d past the cap %d", h.Total(), h.OutOfBounds(), maxCount)
	}
	pw, ka, ok := h.Windows()
	bpw, bka, bok := bruteWindows(h)
	if pw != bpw || ka != bka || ok != bok {
		t.Fatalf("windows (%v, %v, %v), recount (%v, %v, %v)", pw, ka, ok, bpw, bka, bok)
	}
	if ok && (h.head.bin != h.percentileBin(h.cfg.HeadPercentile) || h.tail.bin != h.percentileBin(h.cfg.TailPercentile)) {
		t.Fatalf("cursor bins %d, %d; recount %d, %d", h.head.bin, h.tail.bin,
			h.percentileBin(h.cfg.HeadPercentile), h.percentileBin(h.cfg.TailPercentile))
	}
}

// TestSaturation drives one bin, and then oob, to the cap
// (SEMANTICS.md, Saturation) and checks that no later Observe wraps T,
// S or T + oob: past the cap an observation is not recorded.
func TestSaturation(t *testing.T) {
	h := New(DefaultConfig())
	for i := 0; i < 20; i++ {
		h.Observe(3 * time.Minute)
		h.Windows() // keep the cursors synced, so later walks start from them
	}
	fillBin(h, 3, maxCount-21)
	checkRecount(t, h)
	h.Observe(3 * time.Minute) // the last count that fits
	if h.Count(3) != maxCount || h.Total() != maxCount {
		t.Fatalf("bin 3 holds %d, T = %d; want both at the cap %d", h.Count(3), h.Total(), maxCount)
	}
	checkRecount(t, h)
	h.Observe(3 * time.Minute)
	h.Observe(200 * time.Minute)
	if h.Count(3) != maxCount || h.Count(200) != 0 || h.Total() != maxCount {
		t.Fatalf("saturated histogram recorded an in-bounds observation")
	}
	checkRecount(t, h)
	// All mass in one of 240 bins: CV = √239 ≈ 15.46.
	if h.CVBelow(15) || !h.CVBelow(16) {
		t.Fatal("CVBelow at the cap: want CV between 15 and 16")
	}

	// oob saturates the same way, so T + oob cannot wrap either.
	fillOOB(h, maxCount-1)
	h.Observe(5 * time.Hour) // the last out-of-bounds count that fits
	h.Observe(-time.Second)
	if h.OutOfBounds() != maxCount || h.Total()+h.OutOfBounds() < 0 {
		t.Fatalf("oob = %d, want the cap %d", h.OutOfBounds(), maxCount)
	}
	checkRecount(t, h)
	if !h.OOBHeavy(0.49) || h.OOBHeavy(0.5) {
		t.Fatal("OOBHeavy at the cap: an even split is not above 0.5")
	}
}
