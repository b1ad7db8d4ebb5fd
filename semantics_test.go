package wild

import (
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/serve"
)

// TestCVTieIsRepresentative pins the tie rule of the written
// semantics (internal/ithist/SEMANTICS.md): the gate is the strict
// inequality n·Σc² < (1+thr²)·T², so a bin-count CV landing exactly on
// the threshold is *not* below it and the histogram windows apply.
// Each case keeps the CV on the threshold from the second observation
// on — all mass in one of 1+thr² bins, or split evenly over two of ten
// bins at thr=2 — and the batch kernel, the per-call path and the
// serving controller must all answer ModeHistogram there.
func TestCVTieIsRepresentative(t *testing.T) {
	cases := []struct {
		name string
		bins int
		cv   float64
		gaps []time.Duration // idle pattern, cycled
	}{
		{"cv=2/one-of-5-bins", 5, 2, []time.Duration{90 * time.Second}},
		{"cv=5/one-of-26-bins", 26, 5, []time.Duration{90 * time.Second}},
		{"cv=2/two-of-10-bins", 10, 2, []time.Duration{90 * time.Second, 150 * time.Second}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := policy.DefaultHybridConfig()
			cfg.Histogram.NumBins = tc.bins
			cfg.CVThreshold = tc.cv
			pol := policy.NewHybrid(cfg)

			const n = 200
			idles := make([]time.Duration, n)
			for i := 1; i < n; i++ {
				idles[i] = tc.gaps[(i-1)%len(tc.gaps)]
			}
			// The CV sits on the threshold whenever the occupied bins hold
			// equal counts: after every full cycle of the gap pattern.
			onTie := func(i int) bool { return i >= 2 && i%len(tc.gaps) == 0 }

			var batch []policy.Decision
			for _, run := range pol.NewApp("batch").(policy.SequencePolicy).NextWindowsSeq(idles, nil) {
				for k := int32(0); k < run.N; k++ {
					batch = append(batch, run.D)
				}
			}
			if len(batch) != n {
				t.Fatalf("batch kernel produced %d decisions, want %d", len(batch), n)
			}
			perCall := pol.NewApp("per-call")
			ctl := serve.NewController(pol, serve.Config{})
			at := time.Unix(0, 0)
			ties := 0
			for i := 0; i < n; i++ {
				at = at.Add(idles[i])
				pc := perCall.NextWindows(idles[i], i == 0)
				sv := ctl.Decide("served", at)
				if batch[i] != pc || sv != pc {
					t.Fatalf("invocation %d: batch %+v, per-call %+v, serve %+v", i, batch[i], pc, sv)
				}
				if onTie(i) {
					ties++
					if pc.Mode != policy.ModeHistogram {
						t.Fatalf("invocation %d: CV == %g decided %v, want histogram windows", i, tc.cv, pc.Mode)
					}
				}
			}
			if ties == 0 {
				t.Fatal("no invocation landed on the threshold (vacuous)")
			}
		})
	}
}
