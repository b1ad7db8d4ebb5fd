package cluster

import (
	"testing"
	"time"

	"repro/internal/policy"
)

// FuzzBuildStream: for arbitrary per-app invocation times, exec times,
// decision runs and horizon, the stream builder's stream — whole, and
// split into k epochs — equals the brute-force reference (refStream)
// entry by entry, and every derived event sorts inside its own window
// — after the invocation opening it and before the app's next arrival
// (checkStream). The input bytes are read as a small program: app
// count, then per app its invocation gaps, exec mode and run sequence,
// on a lattice of horizon/16 so that arrivals, reloads and unloads
// collide; pre-warms of 1 ns and long horizons reach the float-absorbed
// pre-warm that must not be derived. The bytes left over pick k and
// the epoch boundaries: lattice points, invocations inside a decision
// run, and runs' ends (epochCuts). The seed corpus under testdata/fuzz
// holds a lattice of ties, a zero horizon, exec times past the
// horizon, an absorbed pre-warm, and multi-epoch splits.
func FuzzBuildStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, horizon float64, data []byte) {
		if !(horizon >= 0 && horizon <= 1e9) {
			// Trace horizons are finite and non-negative, and the
			// lattice's windows must fit a time.Duration.
			return
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		unit := horizon / 16
		if unit == 0 {
			unit = 1
		}
		// span picks one of 0, 1 ns, unit/4, unit/2, unit: the lattice,
		// plus the smallest positive duration.
		span := func() float64 {
			switch next() % 5 {
			case 1:
				return 1e-9
			case 2:
				return unit / 4
			case 3:
				return unit / 2
			case 4:
				return unit
			}
			return 0
		}
		dur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
		walks := make([]appWalk, 1+next()%6)
		for i := range walks {
			w := &walks[i]
			at := 0.0
			for range next() % 24 {
				at += span() * float64(1+next()%3)
				w.times = append(w.times, at)
			}
			switch next() % 3 {
			case 1:
				w.exec = span()
			case 2:
				w.execs = make([]float64, len(w.times))
				for j := range w.execs {
					w.execs[j] = span()
				}
			}
			for left := len(w.times); left > 0; {
				n := 1 + next()%left
				left -= n
				var d policy.Decision
				switch next() % 3 {
				case 0:
					d.Forever = true
				case 1:
					d.KeepAlive = dur(span())
				default:
					d.PreWarm = max(dur(span()), 1)
					d.KeepAlive = dur(span())
				}
				w.runs = append(w.runs, policy.DecisionRun{D: d, N: int32(n)})
			}
		}
		e, apps := streamEngine(horizon, walks)
		checkStream(t, e, apps, epochCuts(walks, unit, horizon, 1+next()%8, next))
	})
}
