package policy

import (
	"testing"
	"time"

	"repro/internal/ithist"
	"repro/internal/stats"
)

// FuzzPolicySpec: whatever FromSpec accepts is a usable policy. A
// hybrid's Config passes a domain check written here independently of
// Validate (percentiles in [0, 100], head ≤ tail, cv ≥ 0, each a
// comparison NaN fails); a script of 64 decisions, its idle times drawn
// from seed, gives the same decisions through NextWindows and
// NextWindowsSeq; and no decision has a negative window. Specs whose
// histogram passes 2^16 bins are skipped, so an input cannot make the
// target allocate without bound. The seed corpus under testdata/fuzz
// holds the three NaN specs that once passed every range check.
func FuzzPolicySpec(f *testing.F) {
	for _, s := range []string{"hybrid", "fixed?ka=10m", "nounload", "hybrid?range=10m&head=0&tail=100",
		"hybrid?cv=0&prewarm=off", "hybrid?exact=off&refit=1m&forecaster=ses", "hybrid?arima=off&range=1h"} {
		f.Add(s, uint64(1))
	}
	f.Fuzz(func(t *testing.T, s string, seed uint64) {
		p, err := FromSpec(s)
		if err != nil {
			return
		}
		histRange := 4 * time.Hour
		if h, ok := p.(*Hybrid); ok {
			cfg := h.Config()
			hc := cfg.Histogram
			if !(hc.HeadPercentile >= 0 && hc.HeadPercentile <= hc.TailPercentile && hc.TailPercentile <= 100) ||
				!(cfg.CVThreshold >= 0) || hc.NumBins <= 0 {
				t.Fatalf("%q: accepted config %+v", s, cfg)
			}
			if hc.NumBins > 1<<16 {
				return
			}
			histRange = ithist.BinWidth * time.Duration(hc.NumBins)
		}

		// The script mixes in-range, out-of-range, sub-bin and zero
		// idle times, so every regime of the hybrid policy is reached.
		r := stats.NewRNG(seed)
		idles := make([]time.Duration, 64)
		for i := range idles {
			switch r.Intn(4) {
			case 0:
				idles[i] = time.Duration(r.Float64() * float64(histRange))
			case 1:
				idles[i] = histRange + time.Duration(r.Float64()*float64(10*histRange))
			case 2:
				idles[i] = time.Duration(r.Float64() * float64(ithist.BinWidth))
			}
		}
		stepwise := p.NewApp("stepwise")
		want := make([]Decision, len(idles))
		for i, it := range idles {
			d := stepwise.NextWindows(it, i == 0)
			if d.PreWarm < 0 || d.KeepAlive < 0 {
				t.Fatalf("%q, seed %d: decision %d has a negative window: %+v", s, seed, i, d)
			}
			want[i] = d
		}
		release(stepwise)
		batch, ok := p.NewApp("batch").(SequencePolicy)
		if !ok {
			return
		}
		var got []Decision
		for _, run := range batch.NextWindowsSeq(idles, nil) {
			for range run.N {
				got = append(got, run.D)
			}
		}
		release(batch.(AppPolicy))
		if len(got) != len(want) {
			t.Fatalf("%q, seed %d: NextWindowsSeq gave %d decisions, NextWindows %d", s, seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q, seed %d: decision %d: NextWindowsSeq %+v, NextWindows %+v", s, seed, i, got[i], want[i])
			}
		}
	})
}

// release hands a's state back to its policy's pool, if it has one.
func release(a AppPolicy) {
	if r, ok := a.(Releasable); ok {
		r.Release()
	}
}
