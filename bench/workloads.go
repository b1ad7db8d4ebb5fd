package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/trace"
)

type kind int

const (
	kindBatch  kind = iota // a scenario sweep over a generated population
	kindDecide             // serve.Controller.Decide called back to back
	kindHTTP               // the platform's REST API over loopback TCP
)

// workload is one named set of inputs. Why lives in BENCHMARK.json and the
// README; this table is what runs.
type workload struct {
	Name string
	kind kind

	// Batch workloads: the population, the file it is replayed from (empty:
	// handed over in memory as a fixed trace) and the scenario grid.
	pop    func(sizes) popSpec
	file   string
	encode func(io.Writer, *trace.Trace) error
	grid   func(sz sizes, path string) string

	// Decide workloads: registered apps and calls per worker per rep.
	apps  func(sizes) int
	calls func(sizes) int
}

var workloads = []workload{
	{
		Name: "sweep-dense", kind: kindBatch,
		pop: func(sz sizes) popSpec { return sz.Dense },
		grid: func(sizes, string) string {
			return "policy=[fixed?ka=10m,fixed?ka=1h,hybrid,hybrid?range=2h,hybrid?arima=off,hybrid?exact=off&refit=1m]"
		},
	},
	{
		Name: "replay-csv", kind: kindBatch,
		pop:  func(sz sizes) popSpec { return sz.Mid },
		file: "mid.csv", encode: trace.WriteInvocationsCSV,
		grid: func(_ sizes, path string) string {
			return "source=csv:" + path + "; policy=[fixed?ka=10m,hybrid]"
		},
	},
	{
		Name: "cluster-sparse", kind: kindBatch,
		pop:  func(sz sizes) popSpec { return sz.Sparse },
		file: "sparse.bin", encode: trace.WriteBinary,
		grid: func(sz sizes, path string) string {
			return fmt.Sprintf("source=tracec:%s; policy=hybrid; cluster.nodes=%d; cluster.mem=65536", path, sz.SparseNodes)
		},
	},
	{
		Name: "cluster-chaos", kind: kindBatch,
		pop: func(sz sizes) popSpec { return sz.Mid },
		grid: func(sz sizes, _ string) string {
			return fmt.Sprintf("policy=hybrid; cluster.nodes=%d; cluster.mem=8192; cluster.place=least-loaded; "+
				"cluster.events=fail@20h:node=3,join@30h:node=3,drain@40h:node=0,join@50h:node=0,resize@60h:node=1&mem=2048; "+
				"sinks=coldstart,waste,attribution,util; exectime=on", sz.ChaosNodes)
		},
	},
	{Name: "serve-http", kind: kindHTTP},
	{
		Name: "serve-hot", kind: kindDecide,
		apps:  func(sz sizes) int { return sz.HotApps },
		calls: func(sz sizes) int { return sz.HotCalls },
	},
	{
		Name: "serve-wide", kind: kindDecide,
		apps:  func(sz sizes) int { return sz.WideApps },
		calls: func(sz sizes) int { return sz.WidePasses * sz.WideApps / decideWorkers },
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// repResult is one timed repetition (batch: one whole sweep; serving: one
// fixed-work window).
type repResult struct {
	timing
	Ops       int64   `json:"ops"`    // simulated invocations, or requests served
	Failed    int64   `json:"failed"` // ops that failed a correctness check
	Digest    string  `json:"digest"` // hash of the rep's simulated outputs
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Problem   string  `json:"problem,omitempty"`
	// Extra carries sampled per-call numbers (tail latencies, traced
	// per-call timings) that only the per-layer metrics use.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// timing is what was measured around one call: the fields of a span.
type timing struct {
	StartNs int64  `json:"start_ns"` // Unix time
	WallNs  int64  `json:"wall_ns"`
	CPUNs   int64  `json:"cpu_ns"`            // user+sys of the whole process
	Mallocs uint64 `json:"mallocs,omitempty"` // heap allocations; traced runs only
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timed runs fn and returns its wall time, the process CPU it burned and,
// when traced, the heap allocations it made. The allocation count costs a
// stop-the-world, so the end-to-end run never asks for it.
//
//wildlint:allow wallclock
func timed(traced bool, fn func() error) (timing, error) {
	var m0 uint64
	if traced {
		m0 = mallocsNow()
	}
	c0, t0 := cpuNow(), time.Now()
	err := fn()
	tm := timing{StartNs: t0.UnixNano(), WallNs: time.Since(t0).Nanoseconds(), CPUNs: cpuNow() - c0}
	if traced {
		tm.Mallocs = mallocsNow() - m0
	}
	return tm, err
}

// measureLoop runs one untimed warm-up rep (caches fill, pools populate),
// then timed reps for about `seconds`, at least minReps of them. The heap
// is collected between reps so each starts from the same state and peak
// RSS is one rep's, not an accident of GC phase.
//
//wildlint:allow wallclock
func measureLoop(seconds float64, minReps int, rep func(i int) (repResult, error)) ([]repResult, error) {
	if _, err := rep(0); err != nil {
		return nil, err
	}
	budget := time.Duration(seconds * float64(time.Second))
	var reps []repResult
	start := time.Now()
	for i := 1; ; i++ {
		runtime.GC()
		resetPeakRSS()
		r, err := rep(i)
		if err != nil {
			return nil, err
		}
		if r.PeakRSSMB, err = peakRSSMB(); err != nil {
			return nil, err
		}
		reps = append(reps, r)
		elapsed := time.Since(start)
		if len(reps) >= minReps && elapsed+elapsed/time.Duration(2*len(reps)) >= budget {
			return reps, nil
		}
	}
}

// batchInputs is what a batch workload's measured loop reads.
type batchInputs struct {
	pop   popInfo
	cells []scenario.Scenario
	opts  []scenario.Option
}

// buildBatch is a batch workload's whole set-up: generate the population
// and, for the replayed workloads, encode it to dir. It returns the
// in-memory trace too, which the fixed-trace workloads run over.
func buildBatch(w *workload, sz sizes, seed uint64, dir string) (*batchInputs, *trace.Trace, error) {
	tr, info, err := generate(w.pop(sz), seed)
	if err != nil {
		return nil, nil, err
	}
	path := ""
	if w.file != "" {
		if path, _, err = writeFile(dir, w.file, tr, w.encode); err != nil {
			return nil, nil, err
		}
	}
	in, err := openBatch(w, sz, info, path)
	if err != nil {
		return nil, nil, err
	}
	if w.file == "" {
		in.opts = []scenario.Option{scenario.WithFixedTrace(tr)}
	}
	return in, tr, nil
}

// openBatch expands the workload's grid over an already written file (or,
// with path empty, for a fixed trace the caller attaches).
func openBatch(w *workload, sz sizes, info popInfo, path string) (*batchInputs, error) {
	g, err := scenario.ParseGrid(w.grid(sz, path))
	if err != nil {
		return nil, err
	}
	cells, err := g.Scenarios()
	if err != nil {
		return nil, err
	}
	return &batchInputs{pop: info, cells: cells}, nil
}

// batchRep runs the sweep once through the scenario engine and checks it.
func batchRep(in *batchInputs, traced bool) (repResult, error) {
	var rep *scenario.SweepReport
	tm, err := timed(traced, func() (err error) {
		rep, err = scenario.RunSweep(context.Background(), in.cells, in.opts...)
		return err
	})
	if err != nil {
		return repResult{}, err
	}
	r := repResult{
		timing: tm,
		Ops:    in.pop.Invocations * int64(len(in.cells)),
		Digest: digestReport(rep),
	}
	if problems := checkReport(rep, in.pop); len(problems) > 0 {
		r.Failed, r.Problem = r.Ops, problems[0]
	}
	return r, nil
}

// digestReport hashes every cell's policy name and metric values. Values
// are rounded to 9 significant digits: the streaming engine feeds its
// sinks in completion order, so float sums differ in their last bits from
// run to run on more than one core, and nothing below that is a result.
func digestReport(rep *scenario.SweepReport) string {
	h := fnv.New64a()
	for _, c := range rep.Cells {
		fmt.Fprintf(h, "%s|", c.PolicyName)
		for _, m := range c.Metrics() {
			fmt.Fprintf(h, "%s=%.9g|", m.Name, m.Value)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkReport verifies what must hold of any correct sweep over pop: every
// cell saw every invocation, and a cluster cell's cold starts are exactly
// its policy, eviction and failure cold starts.
func checkReport(rep *scenario.SweepReport, pop popInfo) []string {
	var problems []string
	for i, c := range rep.Cells {
		get := func(name string) float64 {
			v, ok := c.Metric(name)
			if !ok {
				return math.NaN()
			}
			return v
		}
		if inv := get("invocations"); inv != float64(pop.Invocations) {
			problems = append(problems, fmt.Sprintf("cell %d (%s): %v invocations, population has %d", i, c.Scenario, inv, pop.Invocations))
		}
		if c.Scenario.Cluster == nil {
			continue
		}
		cold, parts := get("cold_starts"), get("policy_cold_starts")+get("eviction_cold_starts")+get("failure_cold_starts")
		if cold != parts {
			problems = append(problems, fmt.Sprintf("cell %d (%s): cold_starts %v != policy+eviction+failure %v", i, c.Scenario, cold, parts))
		}
	}
	return problems
}
