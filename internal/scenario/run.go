package scenario

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CellSink pairs a built sink with the spec that selected it.
type CellSink struct {
	Spec string
	Sink Sink
}

// CellResult is the outcome of one executed scenario: the scenario
// itself plus its drained sinks. For a fanned-out shard scenario
// ("*/n") the sinks are the n per-shard sinks merged in shard order.
type CellResult struct {
	Scenario Scenario
	// PolicyName is the built policy's report name.
	PolicyName string
	// Sinks holds the drained sinks in spec order.
	Sinks []CellSink
	// Nodes holds per-node aggregates for cluster cells (nil on batch
	// cells), surfaced in the JSON report alongside the summary metrics.
	Nodes []NodeSummary
	// MemDefaulted counts apps charged the default memory because the
	// cluster.memcsv table did not cover them (0 without a table).
	MemDefaulted int
}

// NodeSummary is one node's aggregate outcome in a cluster cell. For a
// fanned-out shard cell ("*/n") the per-shard cluster runs merge
// element-wise: counters, peaks and mean resident MB all add — each
// shard simulates a disjoint sub-workload over the same horizon, so
// the sums describe the combined load (and summed peaks keep the
// peak >= mean invariant each shard satisfies).
type NodeSummary struct {
	Node           int     `json:"node"`
	Evictions      int     `json:"evictions"`
	FailedLoads    int     `json:"failed_loads"`
	FailureUnloads int     `json:"failure_unloads,omitempty"`
	PeakResidentMB float64 `json:"peak_resident_mb"`
	MeanResidentMB float64 `json:"mean_resident_mb"`
}

// Metric returns the named metric from the cell's sinks (first match
// in sink order).
func (c *CellResult) Metric(name string) (float64, bool) {
	for _, s := range c.Sinks {
		for _, m := range s.Sink.Metrics() {
			if m.Name == name {
				return m.Value, true
			}
		}
	}
	return 0, false
}

// Metrics returns all sink metrics in sink-then-metric order.
func (c *CellResult) Metrics() []Metric {
	var out []Metric
	for _, s := range c.Sinks {
		out = append(out, s.Sink.Metrics()...)
	}
	return out
}

// Option configures RunScenario / RunSweep.
type Option func(*runOptions)

type runOptions struct {
	fixedTrace   *trace.Trace
	sweepWorkers int
}

// WithFixedTrace supplies an already-materialized trace to every
// cell, overriding the cells' Source specs (the Seed field is ignored
// too). This is how callers that hold a trace in memory — the
// experiment harness, tests — drive the scenario path without a
// serializable source. Each function's Invocations must be ascending
// (trace.Trace.Validate checks it): an app's invocation order is merged
// from those lists, not re-sorted. Cells share the trace concurrently.
func WithFixedTrace(tr *trace.Trace) Option {
	return func(o *runOptions) { o.fixedTrace = tr }
}

// WithSweepWorkers bounds how many cells (and fanned-out shard runs)
// execute concurrently (default GOMAXPROCS). Results are independent
// of the bound.
func WithSweepWorkers(n int) Option {
	return func(o *runOptions) { o.sweepWorkers = n }
}

// RunScenario executes one scenario and returns its drained sinks.
func RunScenario(ctx context.Context, sc Scenario, opts ...Option) (*CellResult, error) {
	rep, err := RunSweep(ctx, []Scenario{sc}, opts...)
	if err != nil {
		return nil, err
	}
	return rep.Cells[0], nil
}

// CellError wraps one failing cell's error with the cell's canonical
// scenario string, so sweep drivers (coldsim) can report exactly
// which cell failed — and re-run it in isolation — before exiting
// non-zero. RunSweep returns a *CellError for every per-cell failure
// (validation or mid-run); errors.As recovers it.
type CellError struct {
	// Index is the cell's position in the sweep.
	Index int
	// Scenario is the failing cell.
	Scenario Scenario
	// Err is the underlying failure.
	Err error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %d (%s): %v", e.Index, e.Scenario, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// openFn opens a fresh, full (unsharded) source for one run.
type openFn func() (trace.Source, func() error, error)

// unit is one schedulable run: a cell, or one shard of a fanned-out
// cell.
type unit struct {
	cell     int
	shardIdx int // position among the cell's units
	sc       Scenario
	shardI   int // -1 when unsharded
	shardN   int
	open     openFn
}

// unitResult is what one executed unit contributes to its cell.
type unitResult struct {
	sinks      []CellSink
	nodes      []NodeSummary
	policyName string
	defaulted  int
}

// RunSweep executes the expanded cells of a grid concurrently over a
// bounded worker pool and returns the per-cell sink summaries.
//
// Cells with byte-identical resolved source specs share one
// materialized trace (sources are deterministic, so sharing changes
// nothing but work). A cell with Shard "*/n" fans out into n shard
// runs — scheduled on the same pool — whose sinks are merged in shard
// order via their exact Merges. Every cell's execution is exactly
// RunScenario's, so a sweep's results are bit-identical to running
// each expanded scenario sequentially.
func RunSweep(ctx context.Context, cells []Scenario, opts ...Option) (*SweepReport, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("scenario: empty sweep")
	}

	// Resolve one source factory per distinct resolved spec; identical
	// sources share the factory (and so, for generator sources, the
	// one materialized trace).
	opens := make([]openFn, len(cells))
	if o.fixedTrace != nil {
		tr := o.fixedTrace
		for i := range cells {
			opens[i] = func() (trace.Source, func() error, error) {
				return trace.NewTraceSource(tr), func() error { return nil }, nil
			}
		}
	} else {
		factories := map[string]SourceFactory{}
		for i, sc := range cells {
			f, err := sourceForScenario(sc)
			if err != nil {
				return nil, &CellError{Index: i, Scenario: sc, Err: err}
			}
			key := f.Spec()
			if shared, ok := factories[key]; ok {
				f = shared
			} else {
				factories[key] = f
			}
			opens[i] = f.Open
		}
	}

	units, unitsPerCell, err := expandUnits(cells, opens)
	if err != nil {
		return nil, err
	}

	results, err := runUnits(ctx, units, o.sweepWorkers, runUnit)
	if err != nil {
		return nil, err
	}
	return assembleReport(cells, unitsPerCell, results)
}

// expandUnits expands cells into schedulable units (shard fan-out),
// validating every component spec up front: a typo in any cell fails
// here, before any cell simulates. opens may be nil when the caller
// executes units elsewhere (process fan-out).
func expandUnits(cells []Scenario, opens []openFn) ([]unit, [][]int, error) {
	var units []unit
	unitsPerCell := make([][]int, len(cells))
	for ci, sc := range cells {
		if err := validateCell(sc); err != nil {
			return nil, nil, &CellError{Index: ci, Scenario: sc, Err: err}
		}
		var open openFn
		if opens != nil {
			open = opens[ci]
		}
		add := func(u unit) {
			unitsPerCell[ci] = append(unitsPerCell[ci], len(units))
			units = append(units, u)
		}
		if sc.Shard == "" {
			add(unit{cell: ci, sc: sc, shardI: -1, open: open})
			continue
		}
		i, n, all, err := parseShardField(sc.Shard)
		if err != nil {
			return nil, nil, &CellError{Index: ci, Scenario: sc, Err: err}
		}
		if !all {
			add(unit{cell: ci, sc: sc, shardI: i, shardN: n, open: open})
			continue
		}
		for s := 0; s < n; s++ {
			add(unit{cell: ci, shardIdx: s, sc: sc, shardI: s, shardN: n, open: open})
		}
	}
	return units, unitsPerCell, nil
}

// runUnits executes every unit with run on at most workers goroutines
// (0 = GOMAXPROCS), in the pool both sweep paths share: workers take
// the next unit off an atomic cursor until the units run out or ctx is
// done. It returns ctx.Err() when the context ended, otherwise the
// first failed unit's error (in unit order) as a CellError.
func runUnits(ctx context.Context, units []unit, workers int, run func(context.Context, unit) (unitResult, error)) ([]unitResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(units))
	results := make([]unitResult, len(units))
	errs := make([]error, len(units))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(units) {
					return
				}
				res, err := run(ctx, units[i])
				if err != nil {
					errs[i] = &CellError{Index: units[i].cell, Scenario: units[i].sc, Err: err}
					continue
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// assembleReport merges the executed units back into per-cell results:
// fanned-out shard sinks merge in shard order via their exact Merges,
// per-node aggregates add element-wise.
func assembleReport(cells []Scenario, unitsPerCell [][]int, results []unitResult) (*SweepReport, error) {
	rep := &SweepReport{Cells: make([]*CellResult, len(cells))}
	for ci, sc := range cells {
		idxs := unitsPerCell[ci]
		first := results[idxs[0]]
		cell := &CellResult{
			Scenario:     sc,
			PolicyName:   first.policyName,
			Sinks:        first.sinks,
			Nodes:        first.nodes,
			MemDefaulted: first.defaulted,
		}
		for _, ui := range idxs[1:] {
			r := results[ui]
			for si, cs := range cell.Sinks {
				if err := cs.Sink.Merge(r.sinks[si].Sink); err != nil {
					return nil, err
				}
			}
			for n := range cell.Nodes {
				cell.Nodes[n].Evictions += r.nodes[n].Evictions
				cell.Nodes[n].FailedLoads += r.nodes[n].FailedLoads
				cell.Nodes[n].FailureUnloads += r.nodes[n].FailureUnloads
				cell.Nodes[n].PeakResidentMB += r.nodes[n].PeakResidentMB
				cell.Nodes[n].MeanResidentMB += r.nodes[n].MeanResidentMB
			}
			cell.MemDefaulted += r.defaulted
		}
		rep.Cells[ci] = cell
	}
	return rep, nil
}

// validateCell builds (and discards) every component spec of a cell —
// policy, sinks, placement — and checks the memory table exists, so a
// sweep fails fast on any typo instead of mid-run.
func validateCell(sc Scenario) error {
	if sc.Policy == "" {
		return fmt.Errorf("scenario: missing policy")
	}
	if _, err := policy.FromSpec(sc.Policy); err != nil {
		return err
	}
	specs, err := sinkSpecsFor(sc)
	if err != nil {
		return err
	}
	for _, s := range specs {
		built, err := NewSink(s)
		if err != nil {
			return err
		}
		if _, ok := built.(sim.ResultSink); !ok && sc.Cluster == nil {
			return fmt.Errorf("scenario: sink %q requires a cluster scenario", s)
		}
	}
	if sc.Cluster != nil {
		if _, err := cluster.NewPlacement(sc.Cluster.placement()); err != nil {
			return err
		}
		if sc.Cluster.MemCSV != "" {
			if _, err := os.Stat(sc.Cluster.MemCSV); err != nil {
				return fmt.Errorf("scenario: cluster.memcsv: %w", err)
			}
		}
		evs, err := cluster.ParseEvents(sc.Cluster.Events)
		if err != nil {
			return fmt.Errorf("scenario: cluster.events: %w", err)
		}
		for _, ev := range evs {
			if ev.Node >= sc.Cluster.Nodes {
				return fmt.Errorf("scenario: cluster.events: event %s: node %d out of range (cluster.nodes=%d)",
					ev, ev.Node, sc.Cluster.Nodes)
			}
		}
	}
	return nil
}

// sinkSpecsFor returns the cell's sink specs, applying the defaults:
// coldstart and waste, plus attribution and util on cluster runs.
func sinkSpecsFor(sc Scenario) ([]string, error) {
	if len(sc.Sinks) > 0 {
		return sc.Sinks, nil
	}
	if sc.Cluster != nil {
		return []string{"coldstart", "waste", "attribution", "util"}, nil
	}
	return []string{"coldstart", "waste"}, nil
}

// runUnit executes one unit: fresh policy, fresh sinks, one
// simulation (batch or cluster).
func runUnit(ctx context.Context, u unit) (unitResult, error) {
	sc := u.sc
	pol, err := policy.FromSpec(sc.Policy)
	if err != nil {
		return unitResult{}, err
	}
	specs, err := sinkSpecsFor(sc)
	if err != nil {
		return unitResult{}, err
	}
	sinks := make([]CellSink, len(specs))
	for i, s := range specs {
		built, err := NewSink(s)
		if err != nil {
			return unitResult{}, err
		}
		sinks[i] = CellSink{Spec: s, Sink: built}
	}

	src, release, err := u.open()
	if err != nil {
		return unitResult{}, err
	}
	defer release()
	if u.shardI >= 0 {
		if src, err = shardOf(src, u.shardI, u.shardN); err != nil {
			return unitResult{}, err
		}
	}

	res := unitResult{policyName: pol.Name(), sinks: sinks}
	if sc.Cluster == nil {
		simOpts := []sim.Option{sim.WithWorkers(sc.Workers), sim.WithExecTime(sc.ExecTime)}
		for _, cs := range sinks {
			rs, ok := cs.Sink.(sim.ResultSink)
			if !ok {
				return unitResult{}, fmt.Errorf("scenario: sink %q requires a cluster scenario", cs.Spec)
			}
			simOpts = append(simOpts, sim.WithSink(rs))
		}
		if _, err := sim.Run(ctx, src, pol, simOpts...); err != nil {
			return unitResult{}, err
		}
		return res, nil
	}

	// Cluster run: the timeline needs the whole (shard of the)
	// workload; the memory table, when present, applies to a private
	// copy so a trace shared across cells stays pristine.
	tr, err := materialize(src)
	if err != nil {
		return unitResult{}, err
	}
	if sc.Cluster.MemCSV != "" {
		tr, res.defaulted, err = applyMemCSV(tr, sc.Cluster.MemCSV)
		if err != nil {
			return unitResult{}, err
		}
	}
	place, err := cluster.NewPlacement(sc.Cluster.placement())
	if err != nil {
		return unitResult{}, err
	}
	cfg := cluster.Config{
		Nodes:       sc.Cluster.Nodes,
		NodeMemMB:   sc.Cluster.NodeMemMB,
		Placement:   place,
		UseExecTime: sc.ExecTime,
		Workers:     sc.Workers,
	}
	if sc.Cluster.Events != "" {
		if cfg.Events, err = cluster.ParseEvents(sc.Cluster.Events); err != nil {
			return unitResult{}, err
		}
	}
	var clOpts []cluster.Option
	var observers []clusterObserver
	for _, cs := range sinks {
		attached := false
		if rs, ok := cs.Sink.(sim.ResultSink); ok {
			clOpts = append(clOpts, cluster.WithSink(rs))
			attached = true
		}
		if csnk, ok := cs.Sink.(cluster.Sink); ok {
			clOpts = append(clOpts, cluster.WithClusterSink(csnk))
			attached = true
		}
		if obs, ok := cs.Sink.(clusterObserver); ok {
			observers = append(observers, obs)
			attached = true
		}
		if !attached {
			return unitResult{}, fmt.Errorf("scenario: sink %q consumes neither app nor cluster outcomes", cs.Spec)
		}
	}
	clRes, err := cluster.Run(ctx, trace.NewTraceSource(tr), pol, cfg, clOpts...)
	if err != nil {
		return unitResult{}, err
	}
	for _, obs := range observers {
		obs.ObserveCluster(clRes)
	}
	res.nodes = make([]NodeSummary, len(clRes.NodeStats))
	for n, ns := range clRes.NodeStats {
		mean := 0.0
		if clRes.HorizonSeconds > 0 {
			mean = ns.ResidentMBSeconds / clRes.HorizonSeconds
		}
		res.nodes[n] = NodeSummary{
			Node:           n,
			Evictions:      ns.Evictions,
			FailedLoads:    ns.FailedLoads,
			FailureUnloads: ns.FailureUnloads,
			PeakResidentMB: ns.PeakResidentMB,
			MeanResidentMB: mean,
		}
	}
	return res, nil
}

// shardOf restricts src to its i-th of n interleaved shards, keeping
// in-memory sources on the deterministic batch path (see
// shardFactory.Open for the same rule on source specs).
func shardOf(src trace.Source, i, n int) (trace.Source, error) {
	if n <= 1 {
		return src, nil
	}
	if tr := trace.BatchTrace(src); tr != nil {
		sh, err := trace.Collect(trace.Shard(trace.NewTraceSource(tr), i, n))
		if err != nil {
			return nil, err
		}
		return trace.NewTraceSource(sh), nil
	}
	return trace.Shard(src, i, n), nil
}

// materialize recovers the in-memory trace behind src without
// re-walking consumed apps, collecting streaming sources fully.
func materialize(src trace.Source) (*trace.Trace, error) {
	if tr := trace.BatchTrace(src); tr != nil {
		return tr, nil
	}
	return trace.Collect(src)
}

// applyMemCSV applies a per-app memory table to a private copy of tr
// (the original may be shared across sweep cells).
func applyMemCSV(tr *trace.Trace, path string) (*trace.Trace, int, error) {
	clone := &trace.Trace{Duration: tr.Duration, Apps: make([]*trace.App, len(tr.Apps))}
	for i, a := range tr.Apps {
		clone.Apps[i] = a.Clone()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	defaulted, err := trace.ApplyMemoryCSVDefault(f, clone, 0)
	if err != nil {
		return nil, 0, err
	}
	return clone, defaulted, nil
}

// SweepReport is the outcome of a sweep: one CellResult per expanded
// scenario, in cell order.
type SweepReport struct {
	Cells []*CellResult
}

// MetricNames returns the union of the cells' metric names in first-
// appearance order — the sweep's natural column set.
func (r *SweepReport) MetricNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, c := range r.Cells {
		for _, m := range c.Metrics() {
			if !seen[m.Name] {
				seen[m.Name] = true
				names = append(names, m.Name)
			}
		}
	}
	return names
}

// WriteCSV renders the report as CSV: a scenario column (canonical
// string) and one column per metric; cells without a metric leave the
// field empty.
func (r *SweepReport) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	names := r.MetricNames()
	if err := cw.Write(append([]string{"scenario", "policy"}, names...)); err != nil {
		return err
	}
	for _, c := range r.Cells {
		row := []string{c.Scenario.String(), c.PolicyName}
		for _, n := range names {
			if v, ok := c.Metric(n); ok {
				row = append(row, fmt.Sprintf("%g", v))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// reportCellJSON is the JSON rendering of one cell. Cluster cells
// carry the per-node aggregates alongside the summary metrics.
type reportCellJSON struct {
	Scenario string        `json:"scenario"`
	Policy   string        `json:"policy"`
	Metrics  []Metric      `json:"metrics"`
	Nodes    []NodeSummary `json:"nodes,omitempty"`
}

// WriteJSON renders the report as a JSON array of cells with ordered
// metric lists; cluster cells include per-node stats (evictions,
// failed loads, peak/mean resident MB), not just the aggregate row.
func (r *SweepReport) WriteJSON(w io.Writer) error {
	out := make([]reportCellJSON, len(r.Cells))
	for i, c := range r.Cells {
		out[i] = reportCellJSON{
			Scenario: c.Scenario.String(),
			Policy:   c.PolicyName,
			Metrics:  c.Metrics(),
			Nodes:    c.Nodes,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(out)
}
