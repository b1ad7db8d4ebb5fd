package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/policy"
	"repro/internal/serve"
)

// decideWorkers is the closed-loop caller count of serve-hot and
// serve-wide: one per core of the 2-core runner.
const decideWorkers = 2

// decideInputs is the request schedule of a Decide workload: the app
// names, split in disjoint halves between the workers, and a table of
// exponential idle gaps (mean 2 minutes) that advance each app's own
// virtual clock. No wall-clock value reaches the controller, so every
// decision — and the digest over them — is a function of the seed.
type decideInputs struct {
	pol   policy.Policy
	names []string
	gaps  []time.Duration // length is a power of two
	calls int             // per worker per rep
}

func buildDecide(w *workload, sz sizes, seed uint64) (*decideInputs, error) {
	pol, err := policy.FromSpec("hybrid")
	if err != nil {
		return nil, err
	}
	in := &decideInputs{pol: pol, calls: w.calls(sz)}
	n := w.apps(sz)
	in.names = make([]string, n)
	for i := range in.names {
		in.names[i] = fmt.Sprintf("app-%07d", i)
	}
	rng := rand.New(rand.NewSource(int64(subSeed(seed, 4))))
	in.gaps = make([]time.Duration, 1<<20)
	for i := range in.gaps {
		in.gaps[i] = time.Duration(rng.ExpFloat64() * float64(2*time.Minute))
	}
	return in, nil
}

// decideRep is one fixed-work window on a fresh controller: every worker
// walks its own apps round-robin for in.calls decisions. A fresh
// controller per rep makes serve-wide pay first-touch registration, pool
// acquisition and map growth every time, which is its point; serve-hot's
// 256 apps per worker are registered within the first microseconds.
//
// Traced, every 8th call is timed on its own (and every first touch of an
// app separately) for the per-layer decide latencies; the end-to-end run
// never reads the clock inside the loop.
//
//wildlint:allow wallclock
func decideRep(in *decideInputs, traced bool) (repResult, error) {
	c := serve.NewController(in.pol, serve.Config{})
	defer c.Release()

	type workerOut struct {
		sum     uint64
		sampled []float64 // traced: ns of individually timed calls
		first   []float64 // traced: ns of first-touch calls
	}
	outs := make([]workerOut, decideWorkers)
	half := len(in.names) / decideWorkers
	epoch := time.Unix(1_600_000_000, 0)
	mask := len(in.gaps) - 1

	var wg sync.WaitGroup
	tm, _ := timed(traced, func() error {
		for g := 0; g < decideWorkers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				out := &outs[g]
				names := in.names[g*half : (g+1)*half]
				vt := make([]time.Duration, half)
				if traced {
					out.sampled = make([]float64, 0, in.calls/8+1)
					out.first = make([]float64, 0, half)
				}
				for k := 0; k < in.calls; k++ {
					i := k % half
					vt[i] += in.gaps[(k+g*7919)&mask]
					at := epoch.Add(vt[i])
					var d policy.Decision
					if traced && (k < half || k%8 == 0) {
						s0 := time.Now()
						d = c.Decide(names[i], at)
						ns := float64(time.Since(s0).Nanoseconds())
						if k < half {
							out.first = append(out.first, ns)
						} else {
							out.sampled = append(out.sampled, ns)
						}
					} else {
						d = c.Decide(names[i], at)
					}
					out.sum = (out.sum ^ (uint64(d.KeepAlive) + 3*uint64(d.PreWarm) + uint64(d.Mode))) * 1099511628211 // FNV-1a step
				}
			}(g)
		}
		wg.Wait()
		return nil
	})

	r := repResult{timing: tm, Ops: int64(decideWorkers * in.calls)}
	var sampled, first []float64
	var sum uint64
	for g := range outs {
		sum = (sum ^ outs[g].sum) * 1099511628211
		sampled = append(sampled, outs[g].sampled...)
		first = append(first, outs[g].first...)
	}
	r.Digest = fmt.Sprintf("%016x", sum)
	if traced {
		r.Extra = map[string]float64{
			"decide_p50_ns":      percentiles(sampled, 50)[0],
			"first_touch_p50_ns": percentiles(first, 50)[0],
		}
	}
	if got, want := c.Decisions(), r.Ops; got != want {
		r.Failed, r.Problem = want, fmt.Sprintf("controller counted %d decisions, driver made %d", got, want)
	} else if got, want := c.Apps(), half*decideWorkers; got != want {
		r.Failed, r.Problem = r.Ops, fmt.Sprintf("controller registered %d apps, driver used %d", got, want)
	}
	return r, nil
}
