package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/arima"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// The traced run prices every layer from outside: one span around each
// call into a layer's public functions, with the counts (apps,
// invocations, bytes, allocations, CPU) taken at the same boundary. A
// layer's self time is its span minus its measured children; what no
// public function isolates stays in a named residual until spans move
// inside the program (ROADMAP item 1). Every traced run emits every
// per-layer metric, whichever workload it was asked for; the workload
// decides only whose tracing overhead is measured at the end.

// perLayerUnits declares every per-layer metric and its unit.
var perLayerUnits = map[string]string{
	"workload.generate_ns_per_inv":       "ns",
	"trace.write_csv_s":                  "s",
	"trace.write_tracec_s":               "s",
	"trace.csv_stream_ns_per_inv":        "ns",
	"trace.csv_stream_mb_per_s":          "MB/s",
	"trace.csv_stream_allocs_per_app":    "count",
	"trace.bundle_stream_ns_per_inv":     "ns",
	"trace.tracec_decode_ns_per_inv":     "ns",
	"trace.tracec_decode_us_per_app":     "us",
	"kernel.walk_ns_per_inv.hybrid":      "ns",
	"kernel.walk_ns_per_inv.hybrid-fast": "ns",
	"kernel.walk_ns_per_inv.fixed":       "ns",
	"kernel.walk_us_per_app.sparse":      "us",
	"kernel.runs_per_kinv":               "count",
	"policy.mode_share.histogram":        "share",
	"policy.mode_share.fixed":            "share",
	"policy.mode_share.arima":            "share",
	"policy.decide_ns":                   "ns",
	"arima.fit_us":                       "us",
	"sim.run_ns_per_inv.hybrid":          "ns",
	"sim.self_ns_per_inv":                "ns",
	"sim.allocs_per_app":                 "count",
	"cluster.run_ns_per_inv.sharded":     "ns",
	"cluster.run_ns_per_inv.global":      "ns",
	"cluster.us_per_app.sparse":          "us",
	"cluster.allocs_per_app":             "count",
	"cluster.evictions_per_kinv":         "count",
	"cluster.eviction_cold_share":        "share",
	"cluster.residual_ns_per_inv":        "ns",
	"metrics.consume_ns_per_app":         "ns",
	"metrics.state_roundtrip_us":         "us",
	"scenario.parse_grid_us":             "us",
	"scenario.fanout2_wall_ratio":        "ratio",
	"serve.decide_hot_ns":                "ns",
	"serve.decide_wide_ns":               "ns",
	"serve.decide_first_touch_ns":        "ns",
	"serve.bytes_per_app":                "B",
	"platform.invoke_direct_us":          "us",
	"platform.handler_us":                "us",
	"platform.http_roundtrip_us":         "us",
	"platform.dispatch_self_us":          "us",
	"platform.api_self_us":               "us",
	"platform.http_stack_self_us":        "us",
	"platform.http_p99_us":               "us",
	"platform.http_p999_us":              "us",
	"platform.policy_overhead_ns":        "ns",
	"platform.cold_share":                "share",
	"trace_overhead_share":               "share",
}

// writeMetric names the per-layer metric each replayed file's encoding is
// reported under.
var writeMetric = map[string]string{"mid.csv": "trace.write_csv_s", "sparse.bin": "trace.write_tracec_s"}

// span is one traced call into a layer.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload,omitempty"`
	Rep      int    `json:"rep,omitempty"`
	timing
	counts
}

// counts is the work a span did, measured where it happened.
type counts struct {
	Apps        int64 `json:"apps,omitempty"`
	Invocations int64 `json:"invocations,omitempty"`
	Bytes       int64 `json:"bytes,omitempty"`
}

func (s span) perInv() float64    { return float64(s.WallNs) / float64(s.Invocations) }
func (s span) cpuPerInv() float64 { return float64(s.CPUNs) / float64(s.Invocations) }

// probes is one traced run's state: the populations every probe shares,
// the spans recorded so far and the metrics derived from them.
type probes struct {
	o     options
	sz    sizes
	dir   string
	spans []span
	m     map[string]float64
	lines []string // reconciliation lines, printed after the metrics
	err   error    // first failure; later probes are skipped
	bad   []string // correctness problems found on the way

	pop    map[string]*trace.Trace // dense, mid, sparse
	info   map[string]popInfo
	path   map[string]string       // file per replayed workload
	inputs map[string]*batchInputs // per batch workload
	decode map[string]span         // per replayed workload: draining its file
	walks  map[string]span         // memoized walk spans, by population|policy|exec
	simRun *sim.Result             // dense under hybrid, for the sink probes
	reps   []repResult             // the requested workload's child reps, traced and not
}

// span runs fn as one traced call, recording the counts it returns.
func (p *probes) span(name string, fn func() (counts, error)) span {
	if p.err != nil {
		return span{Name: name}
	}
	s := span{Name: name}
	runtime.GC() // every probe starts from a collected heap
	s.timing, p.err = timed(true, func() (err error) {
		s.counts, err = fn()
		return err
	})
	if p.err != nil {
		p.err = fmt.Errorf("%s: %w", name, p.err)
	}
	p.spans = append(p.spans, s)
	return s
}

// iters scales a fixed iteration count down for the smoke profile.
func (p *probes) iters(n int) int {
	if p.o.quick {
		return n/50 + 1
	}
	return n
}

func runTraced(w *workload, o options) (*record, error) {
	dir, err := os.MkdirTemp(o.tmpRoot, "traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &probes{
		o: o, sz: o.sizes(), dir: dir, m: map[string]float64{},
		pop: map[string]*trace.Trace{}, info: map[string]popInfo{}, path: map[string]string{},
		inputs: map[string]*batchInputs{}, decode: map[string]span{}, walks: map[string]span{},
	}
	// The serving probes go first, on an empty heap: once the populations
	// are resident, every GC cycle they trigger would be priced into them.
	p.serveLayer()
	p.platformLayer()
	p.setUp()
	p.traceLayer()
	p.kernelLayer()
	p.simLayer()
	p.clusterLayer()
	p.sinkLayer()
	p.scenarioLayer()
	p.cellsAndReconcile()
	p.overhead(w)
	if p.err != nil {
		return nil, p.err
	}
	if o.spans != "" {
		data, err := json.MarshalIndent(p.spans, "", " ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(o.spans, data, 0o644); err != nil {
			return nil, err
		}
	}

	rec := &record{Workload: w.Name, Seed: o.seed, Problems: p.bad}
	rec.Metrics = map[string]metric{}
	for name, unit := range perLayerUnits {
		v, ok := p.m[name]
		if !ok {
			return nil, fmt.Errorf("probe suite did not produce %s", name)
		}
		rec.Metrics[name] = metric{v, unit}
	}
	for _, r := range p.reps {
		rec.Attempted += r.Ops
		rec.Failed += r.Failed
		if r.Problem != "" {
			rec.Problems = append(rec.Problems, r.Problem)
		}
	}
	rec.Reps = len(p.reps)
	if len(rec.Problems) > 0 && rec.Failed == 0 {
		rec.Failed = rec.Attempted
	}
	rec.Correct = rec.Failed == 0
	rec.Notes = p.lines
	return rec, nil
}

// setUp generates the three populations and writes the two replayed files,
// one span per layer call. It is the set-up of every batch workload at
// once, so its spans are where setup_s goes.
func (p *probes) setUp() {
	var genNs, genInv int64
	for _, name := range []string{"sweep-dense", "replay-csv", "cluster-sparse", "cluster-chaos"} {
		w := findWorkload(name)
		spec := w.pop(p.sz)
		if p.pop[spec.Name] == nil {
			s := p.span("workload.generate:"+spec.Name, func() (counts, error) {
				tr, info, err := generate(spec, p.o.seed)
				if err != nil {
					return counts{}, err
				}
				tr.WarmCaches() // the walk probes read merged invocation times
				p.pop[spec.Name], p.info[spec.Name] = tr, info
				return counts{Apps: info.Apps, Invocations: info.Invocations}, nil
			})
			genNs, genInv = genNs+s.WallNs, genInv+s.Invocations
		}
		if p.err != nil {
			return
		}
		if w.file != "" {
			s := p.span("trace.write:"+w.file, func() (counts, error) {
				path, size, err := writeFile(p.dir, w.file, p.pop[spec.Name], w.encode)
				p.path[name] = path
				return counts{Apps: p.info[spec.Name].Apps, Invocations: p.info[spec.Name].Invocations, Bytes: size}, err
			})
			p.m[writeMetric[w.file]] = float64(s.WallNs) / 1e9
		}
		if p.err != nil {
			return
		}
		in, err := openBatch(w, p.sz, p.info[spec.Name], p.path[name])
		if err != nil {
			p.err = err
			return
		}
		if w.file == "" {
			in.opts = []scenario.Option{scenario.WithFixedTrace(p.pop[spec.Name])}
		}
		p.inputs[name] = in
	}
	p.m["workload.generate_ns_per_inv"] = float64(genNs) / float64(genInv)
}

// drain pulls src to EOF and counts what came out.
func drain(src trace.Source) (counts, error) {
	var c counts
	for {
		app, err := src.Next()
		if err == io.EOF {
			return c, nil
		}
		if err != nil {
			return c, err
		}
		c.Apps++
		c.Invocations += int64(app.TotalInvocations())
	}
}

// traceLayer drains each on-disk format through its streaming reader.
func (p *probes) traceLayer() {
	if p.err != nil {
		return
	}
	csvPath := p.path["replay-csv"]
	st, err := os.Stat(csvPath)
	if err != nil {
		p.err = err
		return
	}
	s := p.span("trace.csv_stream", func() (counts, error) {
		f, err := os.Open(csvPath)
		if err != nil {
			return counts{}, err
		}
		defer f.Close()
		src, err := trace.StreamInvocationsCSV(f)
		if err != nil {
			return counts{}, err
		}
		c, err := drain(src)
		c.Bytes = st.Size()
		return c, err
	})
	p.decode["replay-csv"] = s
	p.m["trace.csv_stream_ns_per_inv"] = s.perInv()
	p.m["trace.csv_stream_mb_per_s"] = float64(s.Bytes) / 1e6 / (float64(s.WallNs) / 1e9)
	p.m["trace.csv_stream_allocs_per_app"] = float64(s.Mallocs) / float64(s.Apps)

	// An incident bundle is a one-line JSON header in front of the same
	// table, so the bundle reader is priced over the same bytes.
	s = p.span("trace.bundle_stream", func() (counts, error) {
		f, err := os.Open(csvPath)
		if err != nil {
			return counts{}, err
		}
		defer f.Close()
		hdr, err := json.Marshal(serve.BundleMeta{Version: serve.BundleVersion, Name: "bench"})
		if err != nil {
			return counts{}, err
		}
		_, src, err := serve.StreamBundle(io.MultiReader(bytes.NewReader(append(hdr, '\n')), f))
		if err != nil {
			return counts{}, err
		}
		return drain(src)
	})
	p.m["trace.bundle_stream_ns_per_inv"] = s.perInv()

	s = p.span("trace.tracec_decode", func() (counts, error) {
		src, err := trace.OpenBinaryFile(p.path["cluster-sparse"])
		if err != nil {
			return counts{}, err
		}
		defer src.Close()
		return drain(src)
	})
	p.decode["cluster-sparse"] = s
	p.m["trace.tracec_decode_ns_per_inv"] = s.perInv()
	p.m["trace.tracec_decode_us_per_app"] = float64(s.WallNs) / 1e3 / float64(s.Apps)

	for name, want := range map[string]popInfo{"replay-csv": p.info["mid"], "cluster-sparse": p.info["sparse"]} {
		if got := p.decode[name]; p.err == nil && (got.Apps != want.Apps || got.Invocations != want.Invocations) {
			p.bad = append(p.bad, fmt.Sprintf("%s decoded %d apps / %d invocations, wrote %d / %d", name, got.Apps, got.Invocations, want.Apps, want.Invocations))
		}
	}
}

// walk is the per-invocation decision walk alone, on one thread: idle
// times and run-length-encoded decisions for every app of a population
// through kernel.Scratch, pooled policy state released after each app. It
// returns the span and the number of decision runs produced.
func (p *probes) walk(popName, polSpec string, exec bool) (span, int64) {
	key := fmt.Sprintf("%s|%s|%v", popName, polSpec, exec)
	if s, ok := p.walks[key]; ok {
		return s, 0
	}
	var runs int64
	s := p.span("kernel.walk:"+key, func() (counts, error) {
		pol, err := policy.FromSpec(polSpec)
		if err != nil {
			return counts{}, err
		}
		var sc kernel.Scratch
		for _, app := range p.pop[popName].Apps {
			times := app.InvocationTimes()
			if len(times) == 0 {
				continue
			}
			var execs []float64
			if exec {
				execs = sc.ExecSeconds(app)
			}
			ap := pol.NewApp(app.ID)
			runs += int64(len(sc.DecideRuns(ap, sc.IdleTimes(times, execs))))
			release(ap)
		}
		return counts{Apps: p.info[popName].Apps, Invocations: p.info[popName].Invocations}, nil
	})
	p.walks[key] = s
	return s, runs
}

// release returns an app's pooled policy state, if it has any.
func release(ap policy.AppPolicy) {
	if r, ok := ap.(policy.Releasable); ok {
		r.Release()
	}
}

func (p *probes) kernelLayer() {
	if p.err != nil {
		return
	}
	s, runs := p.walk("dense", "hybrid", false)
	p.m["kernel.walk_ns_per_inv.hybrid"] = s.perInv()
	p.m["kernel.runs_per_kinv"] = 1000 * float64(runs) / float64(s.Invocations)
	s, _ = p.walk("dense", "hybrid?exact=off&refit=1m", false)
	p.m["kernel.walk_ns_per_inv.hybrid-fast"] = s.perInv()
	s, _ = p.walk("dense", "fixed?ka=10m", false)
	p.m["kernel.walk_ns_per_inv.fixed"] = s.perInv()
	s, _ = p.walk("sparse", "hybrid", false)
	p.m["kernel.walk_us_per_app.sparse"] = float64(s.WallNs) / 1e3 / float64(s.Apps)

	// One online decision, as the serving path makes it.
	n := p.iters(2_000_000)
	rng := rand.New(rand.NewSource(int64(subSeed(p.o.seed, 8))))
	idles := make([]time.Duration, 1<<16)
	for i := range idles {
		idles[i] = time.Duration(rng.Float64() * float64(30*time.Minute))
	}
	s = p.span("policy.decide", func() (counts, error) {
		pol, err := policy.FromSpec("hybrid")
		if err != nil {
			return counts{}, err
		}
		ap := pol.NewApp("probe")
		for i := 0; i < n; i++ {
			ap.NextWindows(idles[i&(len(idles)-1)], i == 0)
		}
		release(ap)
		return counts{Invocations: int64(n)}, nil
	})
	p.m["policy.decide_ns"] = s.perInv()

	// One ARIMA model search over a 50-point series (§4.2's fallback).
	fits := p.iters(300)
	series := make([]float64, 50)
	for i := range series {
		series[i] = 300 + 20*rng.NormFloat64()
	}
	s = p.span("arima.fit", func() (counts, error) {
		for i := 0; i < fits; i++ {
			if _, err := arima.Fit(series, arima.Options{}); err != nil {
				return counts{}, err
			}
		}
		return counts{Invocations: int64(fits)}, nil
	})
	p.m["arima.fit_us"] = s.perInv() / 1e3
}

// simLayer runs the batch simulator over dense under hybrid; what it
// spends beyond the walk is its own (scheduling, classification,
// collecting).
func (p *probes) simLayer() {
	if p.err != nil {
		return
	}
	info := p.info["dense"]
	s := p.span("sim.run:dense|hybrid", func() (counts, error) {
		pol, err := policy.FromSpec("hybrid")
		if err != nil {
			return counts{}, err
		}
		p.simRun, err = sim.Run(context.Background(), trace.NewTraceSource(p.pop["dense"]), pol)
		return counts{Apps: info.Apps, Invocations: info.Invocations}, err
	})
	if p.err != nil {
		return
	}
	walk, _ := p.walk("dense", "hybrid", false)
	p.m["sim.run_ns_per_inv.hybrid"] = s.perInv()
	p.m["sim.self_ns_per_inv"] = s.cpuPerInv() - walk.cpuPerInv()
	p.m["sim.allocs_per_app"] = float64(s.Mallocs) / float64(s.Apps)

	var modes [policy.NumModes]int
	for _, a := range p.simRun.Apps {
		for m, n := range a.ModeCounts {
			modes[m] += n
		}
	}
	inv := float64(info.Invocations)
	p.m["policy.mode_share.histogram"] = float64(modes[policy.ModeHistogram]) / inv
	p.m["policy.mode_share.fixed"] = float64(modes[policy.ModeStandard]+modes[policy.ModeFixed]) / inv
	p.m["policy.mode_share.arima"] = float64(modes[policy.ModeARIMA]) / inv
}

// clusterRun is one cluster.Run over an in-memory population.
func (p *probes) clusterRun(popName, place string, nodes int, memMB float64) (span, *cluster.Result) {
	var res *cluster.Result
	info := p.info[popName]
	s := p.span(fmt.Sprintf("cluster.run:%s|%s", popName, place), func() (counts, error) {
		pol, err := policy.FromSpec("hybrid")
		if err != nil {
			return counts{}, err
		}
		pl, err := cluster.NewPlacement(place)
		if err != nil {
			return counts{}, err
		}
		res, err = cluster.Run(context.Background(), trace.NewTraceSource(p.pop[popName]), pol,
			cluster.Config{Nodes: nodes, NodeMemMB: memMB, Placement: pl})
		return counts{Apps: info.Apps, Invocations: info.Invocations}, err
	})
	return s, res
}

// clusterLayer runs the same engine down both of its paths over mid (hash
// placement: sharded per-node timelines; least-loaded: one sequential
// global timeline) and down the sharded path over sparse, where cost is
// per app rather than per invocation.
func (p *probes) clusterLayer() {
	if p.err != nil {
		return
	}
	s, _ := p.clusterRun("mid", "hash", p.sz.ChaosNodes, 8192)
	p.m["cluster.run_ns_per_inv.sharded"] = s.perInv()
	s, res := p.clusterRun("mid", "least-loaded", p.sz.ChaosNodes, 8192)
	if p.err != nil {
		return
	}
	p.m["cluster.run_ns_per_inv.global"] = s.perInv()
	p.m["cluster.evictions_per_kinv"] = 1000 * float64(res.TotalEvictions()) / float64(s.Invocations)
	p.m["cluster.eviction_cold_share"] = float64(res.TotalEvictionColdStarts()) / float64(res.TotalColdStarts())
	s, _ = p.clusterRun("sparse", "hash", p.sz.SparseNodes, 65536)
	p.m["cluster.us_per_app.sparse"] = float64(s.CPUNs) / 1e3 / float64(s.Apps)
	p.m["cluster.allocs_per_app"] = float64(s.Mallocs) / float64(s.Apps)
}

// sinkLayer prices the metric sinks: consuming per-app outcomes, and the
// marshal → unmarshal → merge round trip a fanned-out shard's state makes.
func (p *probes) sinkLayer() {
	if p.err != nil {
		return
	}
	apps := p.simRun.Apps
	passes := p.iters(2_000_000)/len(apps) + 1
	cold, waste := metrics.NewColdStartSink(), metrics.NewWastedMemorySink()
	s := p.span("metrics.consume", func() (counts, error) {
		for k := 0; k < passes; k++ {
			for i, a := range apps {
				cold.Consume(i, a)
				waste.Consume(i, a)
			}
		}
		return counts{Apps: int64(passes * len(apps))}, nil
	})
	p.m["metrics.consume_ns_per_app"] = float64(s.WallNs) / float64(s.Apps)

	trips := p.iters(500)
	s = p.span("metrics.state_roundtrip", func() (counts, error) {
		into := metrics.NewColdStartSink()
		for i := 0; i < trips; i++ {
			data, err := cold.MarshalState()
			if err != nil {
				return counts{}, err
			}
			other := metrics.NewColdStartSink()
			if err := other.UnmarshalState(data); err != nil {
				return counts{}, err
			}
			into.Merge(other)
		}
		return counts{Invocations: int64(trips)}, nil
	})
	p.m["metrics.state_roundtrip_us"] = s.perInv() / 1e3
}

// scenarioLayer prices the grammar and the process fan-out. The fan-out
// ratio is one cluster-sparse cell split in two shards, run by two worker
// processes over run in this process; the two must also report the same
// numbers.
func (p *probes) scenarioLayer() {
	if p.err != nil {
		return
	}
	grid := findWorkload("sweep-dense").grid(p.sz, "")
	n := p.iters(5000)
	s := p.span("scenario.parse_grid", func() (counts, error) {
		for i := 0; i < n; i++ {
			g, err := scenario.ParseGrid(grid)
			if err != nil {
				return counts{}, err
			}
			if _, err := g.Scenarios(); err != nil {
				return counts{}, err
			}
		}
		return counts{Invocations: int64(n)}, nil
	})
	p.m["scenario.parse_grid_us"] = s.perInv() / 1e3

	in := p.inputs["cluster-sparse"]
	cells := append([]scenario.Scenario(nil), in.cells...)
	for i := range cells {
		cells[i].Shard = "*/2"
	}
	var digests [2]string
	run := func(name string, i int, sweep func() (*scenario.SweepReport, error)) span {
		return p.span(name, func() (counts, error) {
			rep, err := sweep()
			if err != nil {
				return counts{}, err
			}
			digests[i] = digestReport(rep)
			p.bad = append(p.bad, checkReport(rep, in.pop)...)
			return counts{Apps: in.pop.Apps, Invocations: in.pop.Invocations}, nil
		})
	}
	inproc := run("scenario.shards2_inprocess", 0, func() (*scenario.SweepReport, error) {
		return scenario.RunSweep(context.Background(), cells)
	})
	procs := run("scenario.shards2_procs", 1, func() (*scenario.SweepReport, error) {
		return scenario.RunSweepProcs(context.Background(), cells, 2)
	})
	if p.err != nil {
		return
	}
	p.m["scenario.fanout2_wall_ratio"] = float64(procs.WallNs) / float64(inproc.WallNs)
	if digests[0] != digests[1] {
		p.bad = append(p.bad, fmt.Sprintf("RunSweepProcs(...,2) digest %s, in-process shard=*/2 digest %s", digests[1], digests[0]))
	}
}

// serveLayer times individual Decide calls (which the end-to-end run
// never does) on the serve-hot and serve-wide schedules, and weighs a
// registered app.
func (p *probes) serveLayer() {
	if p.err != nil {
		return
	}
	for _, name := range []string{"serve-hot", "serve-wide"} {
		w := findWorkload(name)
		in, err := buildDecide(w, p.sz, p.o.seed)
		if err != nil {
			p.err = err
			return
		}
		var r repResult
		p.span("serve.decide:"+name, func() (counts, error) {
			r, err = decideRep(in, true)
			return counts{Apps: int64(len(in.names)), Invocations: r.Ops}, err
		})
		if p.err != nil {
			return
		}
		if r.Problem != "" {
			p.bad = append(p.bad, name+": "+r.Problem)
		}
		if name == "serve-hot" {
			p.m["serve.decide_hot_ns"] = r.Extra["decide_p50_ns"]
			continue
		}
		p.m["serve.decide_wide_ns"] = r.Extra["decide_p50_ns"]
		p.m["serve.decide_first_touch_ns"] = r.Extra["first_touch_p50_ns"]

		heap := func() uint64 {
			runtime.GC()
			runtime.GC() // twice: the first only moves sync.Pool contents to the victim cache
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		before := heap()
		c := serve.NewController(in.pol, serve.Config{})
		at := time.Unix(1_600_000_000, 0)
		for _, app := range in.names {
			c.Decide(app, at)
		}
		p.m["serve.bytes_per_app"] = float64(heap()-before) / float64(len(in.names))
		c.Release()
	}
}

// platformLayer enters the serving stack at three depths with the same
// Zipf schedule — Platform.Invoke, API.ServeHTTP into a recorder, and a
// real loopback round trip — so each depth's self time is a subtraction.
//
//wildlint:allow wallclock
func (p *probes) platformLayer() {
	if p.err != nil {
		return
	}
	rig, err := buildHTTP(p.sz, p.o.seed)
	if err != nil {
		p.err = err
		return
	}
	defer rig.close()
	n := p.iters(40000)
	sched := rig.schedule[0]
	each := func(name string, call func(action string) error) float64 {
		lat := make([]float64, 0, n)
		p.span(name, func() (counts, error) {
			for i := 0; i < n; i++ {
				action := rig.actions[sched[i%len(sched)]]
				t0 := time.Now()
				if err := call(action); err != nil {
					return counts{}, err
				}
				lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			return counts{Invocations: int64(n)}, nil
		})
		return percentiles(lat, 50)[0]
	}

	var warm, measured repResult
	p.span("platform.http_roundtrip", func() (counts, error) {
		if warm, err = httpRep(rig, 0); err != nil {
			return counts{}, err
		}
		measured, err = httpRep(rig, 1)
		return counts{Invocations: warm.Ops + measured.Ops}, err
	})
	if p.err != nil {
		return
	}
	if warm.Failed+measured.Failed > 0 {
		p.bad = append(p.bad, "platform.http_roundtrip: "+warm.Problem+measured.Problem)
	}
	handler := each("platform.handler", func(action string) error {
		rec := httptest.NewRecorder()
		rig.api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invoke/"+action, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler returned %d for %s", rec.Code, action)
		}
		return nil
	})
	direct := each("platform.invoke_direct", func(action string) error {
		_, err := rig.plat.Invoke(action, action, 0, 128)
		return err
	})
	if p.err != nil {
		return
	}
	p50 := measured.Extra["p50_us"]
	overhead, _ := rig.plat.Controller().PolicyOverhead()
	decide := float64(overhead.Nanoseconds()) / 1e3
	stats := rig.plat.ClusterStats()

	p.m["platform.http_roundtrip_us"] = p50
	p.m["platform.http_p99_us"] = measured.Extra["p99_us"]
	p.m["platform.http_p999_us"] = measured.Extra["p999_us"]
	p.m["platform.handler_us"] = handler
	p.m["platform.invoke_direct_us"] = direct
	p.m["platform.policy_overhead_ns"] = float64(overhead.Nanoseconds())
	p.m["platform.http_stack_self_us"] = p50 - handler
	p.m["platform.api_self_us"] = handler - direct
	p.m["platform.dispatch_self_us"] = direct - decide
	p.m["platform.cold_share"] = float64(stats.ColdStarts) / float64(stats.ColdStarts+stats.WarmStarts)
	p.lines = append(p.lines, fmt.Sprintf(
		"reconcile serve-http: round trip %.1f us = http_stack %.1f + api %.1f + dispatch %.1f + decide %.2f  (p50 of %d requests)",
		p50, p50-handler, handler-direct, direct-decide, decide, int(measured.Extra["samples"])))
}

// cellsAndReconcile runs each batch workload's sweep once as a span and
// accounts for its CPU: the decode its source did (once per cell), the
// decision walk of each cell's policy, and the residual — engine,
// placement, timeline, sinks, report — that no public call isolates.
func (p *probes) cellsAndReconcile() {
	if p.err != nil {
		return
	}
	names := make([]string, 0, len(p.inputs))
	for name := range p.inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		in := p.inputs[name]
		popName := findWorkload(name).pop(p.sz).Name
		cell := p.span("cell:"+name, func() (counts, error) {
			rep, err := scenario.RunSweep(context.Background(), in.cells, in.opts...)
			if err != nil {
				return counts{}, err
			}
			p.bad = append(p.bad, checkReport(rep, in.pop)...)
			return counts{Apps: in.pop.Apps, Invocations: in.pop.Invocations * int64(len(in.cells))}, nil
		})
		if p.err != nil {
			return
		}
		var decodeNs, walkNs int64
		if d, ok := p.decode[name]; ok {
			decodeNs = d.CPUNs * int64(len(in.cells))
		}
		for _, c := range in.cells {
			s, _ := p.walk(popName, c.Policy, c.ExecTime)
			walkNs += s.CPUNs
		}
		if p.err != nil {
			return
		}
		inv := float64(cell.Invocations)
		residual := float64(cell.CPUNs-decodeNs-walkNs) / inv
		if name == "cluster-sparse" {
			p.m["cluster.residual_ns_per_inv"] = residual
		}
		p.lines = append(p.lines, fmt.Sprintf(
			"reconcile %s: cell CPU %.1f ns/inv = decode %.1f + walk %.1f + residual %.1f  (%d cells x %d invocations)",
			name, float64(cell.CPUNs)/inv, float64(decodeNs)/inv, float64(walkNs)/inv, residual, len(in.cells), in.pop.Invocations))
	}
}

// overhead runs the requested workload's measuring child twice for a
// third of the run length — tracing off, then on — and reports how much
// slower the traced reps were. The traced child's reps become spans.
func (p *probes) overhead(w *workload) {
	if p.err != nil {
		return
	}
	req := childReq{Role: "measure", Workload: w.Name, Seed: p.o.seed, Seconds: p.o.seconds / 3, Quick: p.o.quick, Dir: p.dir}
	if w.kind == kindBatch {
		req.Pop = p.info[w.pop(p.sz).Name] // its file, if any, is already in p.dir
	}
	var walls [2]float64
	for i, traced := range []bool{false, true} {
		req.Traced = traced
		var m measureResp
		if p.err = spawn(req, &m); p.err != nil {
			return
		}
		var vs []float64
		for k, r := range m.Reps {
			vs = append(vs, float64(r.WallNs))
			if traced {
				p.spans = append(p.spans, span{Name: "rep", Workload: w.Name, Rep: k + 1, timing: r.timing, counts: counts{Invocations: r.Ops}})
			}
		}
		walls[i] = median(vs)
		p.reps = append(p.reps, m.Reps...)
	}
	p.m["trace_overhead_share"] = (walls[1] - walls[0]) / walls[0]
}
