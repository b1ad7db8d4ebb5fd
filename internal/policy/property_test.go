package policy

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ithist"
	"repro/internal/stats"
)

// TestHybridDecisionInvariants checks every decision the hybrid
// policy can emit under random idle-time streams: non-negative
// windows, keep-alive at least one bin, never Forever, and coverage
// never exceeding head-start plus the histogram range by more than
// the margins allow.
func TestHybridDecisionInvariants(t *testing.T) {
	cfg := DefaultHybridConfig()
	maxCover := time.Duration(float64(ithist.BinWidth)*float64(cfg.Histogram.NumBins)*(1+ithist.Margin)) + time.Minute
	check := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		a := NewHybrid(cfg).NewApp("app")
		first := true
		for i := 0; i < 150; i++ {
			// Mix of in-range, OOB and tiny idle times.
			var idle time.Duration
			switch r.Intn(3) {
			case 0:
				idle = time.Duration(r.Float64() * float64(4*time.Hour))
			case 1:
				idle = time.Duration(r.Float64() * float64(30*time.Hour))
			default:
				idle = time.Duration(r.Float64() * float64(2*time.Minute))
			}
			d := a.NextWindows(idle, first)
			first = false
			if d.Forever {
				return false
			}
			if d.PreWarm < 0 || d.KeepAlive < ithist.BinWidth {
				return false
			}
			switch d.Mode {
			case ModeStandard:
				if d.PreWarm != 0 || d.KeepAlive != 4*time.Hour {
					return false
				}
			case ModeHistogram:
				if d.PreWarm+d.KeepAlive > maxCover {
					return false
				}
			case ModeARIMA:
				// ARIMA windows scale with the prediction; both must be
				// positive and proportioned by the margin.
				if d.PreWarm <= 0 {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestHybridDeterministicPerStream: identical idle-time streams must
// produce identical decision streams.
func TestHybridDeterministicPerStream(t *testing.T) {
	check := func(seed uint64) bool {
		r1 := stats.NewRNG(seed)
		r2 := stats.NewRNG(seed)
		a1 := NewHybrid(DefaultHybridConfig()).NewApp("a")
		a2 := NewHybrid(DefaultHybridConfig()).NewApp("b")
		first := true
		for i := 0; i < 60; i++ {
			it1 := time.Duration(r1.Float64() * float64(6*time.Hour))
			it2 := time.Duration(r2.Float64() * float64(6*time.Hour))
			if it1 != it2 {
				return false
			}
			d1 := a1.NextWindows(it1, first)
			d2 := a2.NextWindows(it2, first)
			first = false
			if d1 != d2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestHybridCoversObservedIT: once a constant in-range IT pattern is
// learned, the emitted window must cover that IT (so the next
// invocation is warm).
func TestHybridCoversObservedIT(t *testing.T) {
	check := func(raw uint64) bool {
		minutes := int(raw%235) + 2 // constant IT of 2..236 minutes
		it := time.Duration(minutes) * time.Minute
		a := NewHybrid(DefaultHybridConfig()).NewApp("app")
		var d Decision
		first := true
		for i := 0; i < 25; i++ {
			d = a.NextWindows(it, first)
			first = false
		}
		if d.Mode != ModeHistogram {
			return false
		}
		// The IT must fall inside [PreWarm, PreWarm+KeepAlive].
		return d.PreWarm <= it && it <= d.PreWarm+d.KeepAlive
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
