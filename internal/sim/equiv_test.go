package sim

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/trace"
)

// stepOnly wraps a policy so its apps expose only the one-at-a-time
// AppPolicy surface, forcing Simulate onto the per-invocation fallback
// path (no SequencePolicy batch, no Releasable pooling).
type stepOnly struct{ p policy.Policy }

func (s stepOnly) Name() string { return s.p.Name() }
func (s stepOnly) NewApp(id string) policy.AppPolicy {
	return stepOnlyApp{ap: s.p.NewApp(id)}
}

type stepOnlyApp struct{ ap policy.AppPolicy }

func (a stepOnlyApp) NextWindows(idle time.Duration, first bool) policy.Decision {
	return a.ap.NextWindows(idle, first)
}

// multiFnTrace builds a random multi-app, multi-function trace, with
// exec stats so the UseExecTime merge path is exercised.
func multiFnTrace(seed uint64) *trace.Trace {
	r := stats.NewRNG(seed)
	horizon := 24 * time.Hour
	apps := 1 + r.Intn(6)
	tr := &trace.Trace{Duration: horizon}
	for a := 0; a < apps; a++ {
		app := &trace.App{ID: "app" + string(rune('a'+a)), Owner: "o"}
		fns := 1 + r.Intn(4)
		for f := 0; f < fns; f++ {
			n := r.Intn(120)
			times := make([]float64, n)
			for i := range times {
				// Coarse grid so cross-function timestamp ties occur,
				// exercising the merge's stable tie-breaking.
				times[i] = float64(r.Intn(int(horizon.Seconds()) / 60 * 60))
			}
			sort.Float64s(times)
			app.Functions = append(app.Functions, &trace.Function{
				ID: app.ID + "fn" + string(rune('0'+f)), Invocations: times,
				ExecStats: trace.ExecStats{AvgSeconds: r.Float64() * 10},
			})
		}
		tr.Apps = append(tr.Apps, app)
	}
	return tr
}

func resultsEqual(a, b *Result) bool {
	if a.Policy != b.Policy || len(a.Apps) != len(b.Apps) ||
		math.Float64bits(a.HorizonSeconds) != math.Float64bits(b.HorizonSeconds) {
		return false
	}
	for i := range a.Apps {
		x, y := a.Apps[i], b.Apps[i]
		if x.AppID != y.AppID || x.Invocations != y.Invocations ||
			x.ColdStarts != y.ColdStarts || x.ModeCounts != y.ModeCounts ||
			math.Float64bits(x.WastedSeconds) != math.Float64bits(y.WastedSeconds) {
			return false
		}
	}
	return true
}

// TestBatchPathMatchesStepwisePath proves the SequencePolicy batch
// pipeline (idle precomputation, run-length-encoded decisions, policy
// state pooling) produces byte-identical Results to the plain
// per-invocation AppPolicy path, across random traces, policies, and
// worker counts, with and without exec times.
func TestBatchPathMatchesStepwisePath(t *testing.T) {
	nopw := policy.DefaultHybridConfig()
	nopw.DisablePreWarm = true
	nopw.Histogram.NumBins = 60
	pols := []policy.Policy{
		policy.FixedKeepAlive{KeepAlive: 10 * time.Minute},
		policy.NoUnloading{},
		policy.NewHybrid(policy.DefaultHybridConfig()),
		policy.NewHybrid(nopw),
	}
	check := func(seed uint64) bool {
		tr := multiFnTrace(seed)
		for pi, p := range pols {
			for i, procs := range []int{1, 3, 1} {
				exec := i == 2 // the last single-worker run adds exec times
				batch := simulateAt(procs, tr, p, WithExecTime(exec))
				step := simulateAt(procs, tr, stepOnly{p}, WithExecTime(exec))
				if !resultsEqual(batch, step) {
					t.Logf("seed %d policy %d workers %d exec %v: batch and stepwise results differ", seed, pi, procs, exec)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestLargestFirstOrderingIsInvisible verifies that the order in which
// workers finish multi-function apps of uneven sizes, and the worker
// count, do not leak into results.
func TestLargestFirstOrderingIsInvisible(t *testing.T) {
	tr := multiFnTrace(99)
	base := simulateAt(1, tr, policy.NewHybrid(policy.DefaultHybridConfig()))
	for w := 2; w <= 8; w++ {
		got := simulateAt(w, tr, policy.NewHybrid(policy.DefaultHybridConfig()))
		if !resultsEqual(base, got) {
			t.Fatalf("results differ at %d workers", w)
		}
	}
}

// TestWorkersGuard runs more workers than apps and the empty trace.
func TestWorkersGuard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	tr := multiFnTrace(7)
	res := Simulate(tr, policy.FixedKeepAlive{KeepAlive: time.Minute})
	if len(res.Apps) != len(tr.Apps) {
		t.Fatalf("apps = %d, want %d", len(res.Apps), len(tr.Apps))
	}
	empty := &trace.Trace{Duration: time.Hour}
	if got := Simulate(empty, policy.NoUnloading{}); len(got.Apps) != 0 {
		t.Fatalf("empty trace produced %d apps", len(got.Apps))
	}
}

// simulateAt runs Simulate on procs workers (GOMAXPROCS sizes the pool).
func simulateAt(procs int, tr *trace.Trace, pol policy.Policy, opts ...Option) *Result {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return Simulate(tr, pol, opts...)
}
