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
	"repro/internal/forecast"
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
	// MemDefaulted counts the apps of a cluster cell charged the
	// default memory: apps the cluster.memcsv table did not cover, or,
	// without a table, apps whose source carries no memory value.
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
	fixedTrace *trace.Trace
}

// WithFixedTrace supplies an already-materialized trace to every
// cell, overriding the cells' Source specs. This is how callers that
// hold a trace in memory — the experiment harness, tests — drive the
// scenario path without a serializable source. Each function's Invocations must be ascending
// (trace.Trace.Validate checks it): an app's invocation order is merged
// from those lists, not re-sorted. Cells share the trace concurrently.
func WithFixedTrace(tr *trace.Trace) Option {
	return func(o *runOptions) { o.fixedTrace = tr }
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

// openFn opens a fresh, full (unsharded) source for one group's pass
// or one cluster unit.
type openFn func() (trace.Source, func() error, error)

// unit is one run: a cell, or one shard of a fanned-out cell. The
// sweep pool schedules units in groups (groupUnits).
type unit struct {
	cell     int
	shardIdx int // position among the cell's units
	sc       Scenario
	shardI   int // -1 when unsharded
	shardN   int
	open     openFn
	mem      trace.MemoryTable // the cell's cluster.memcsv table, if any
}

// unitResult is what one executed unit contributes to its cell.
type unitResult struct {
	sinks      []CellSink
	nodes      []NodeSummary
	policyName string
	defaulted  int
}

// RunSweep executes the expanded cells of a grid concurrently over a
// GOMAXPROCS-wide worker pool and returns the per-cell sink summaries.
//
// Cells with byte-identical resolved source specs share one source
// factory (sources are deterministic, so sharing changes nothing but
// work): generator sources materialize one trace, and the batch cells
// that read one source with one shard selection run as one group —
// the group opens and decodes its source once, in one pass on the
// sweep's walkers, and each app is walked under every cell of the
// group by one walker. Cluster cells run on their own, each opening
// its source. A cell with Shard "*/n" fans out into n shard runs —
// scheduled on the same pool — whose sinks are merged in shard order
// via their exact Merges. Cells whose hybrid policy uses the default
// ARIMA forecaster share one forecast memo, so each distinct idle-time
// series is fitted once per sweep, and all batch groups share one set
// of GOMAXPROCS walkers, so the sweep builds its walk scratch once
// rather than once per cell. Every cell's outcome is exactly
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
	// one materialized trace). keys stays empty under a fixed trace:
	// every cell reads it.
	opens := make([]openFn, len(cells))
	keys := make([]string, len(cells))
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
			opens[i], keys[i] = f.Open, key
		}
	}

	units, unitsPerCell, err := expandUnits(cells, opens)
	if err != nil {
		return nil, err
	}

	// One forecast memo per sweep: every cell on the default ARIMA
	// forecaster fits each distinct idle-time series once, and the
	// memo is dropped with the sweep. One walker set per sweep: every
	// batch group walks its apps on it, and it stops once the last
	// group has returned.
	memo := newForecastMemo()
	walkers := sim.NewWalkers()
	results, err := runUnits(ctx, units, groupUnits(units, keys), 0, func(ctx context.Context, g []unit) ([]unitResult, error) {
		return runGroup(ctx, g, memo, walkers)
	})
	walkers.Close()
	if err != nil {
		return nil, err
	}
	return assembleReport(cells, unitsPerCell, results)
}

// expandUnits expands cells into schedulable units (shard fan-out),
// validating every component spec and memory table up front: a typo or
// a bad table row in any cell fails here, before any cell simulates.
// opens may be nil when the caller executes units elsewhere (process
// fan-out).
func expandUnits(cells []Scenario, opens []openFn) ([]unit, [][]int, error) {
	var units []unit
	unitsPerCell := make([][]int, len(cells))
	mems := map[string]trace.MemoryTable{}
	for ci, sc := range cells {
		if err := validateCell(sc, mems); err != nil {
			return nil, nil, &CellError{Index: ci, Scenario: sc, Err: err}
		}
		var open openFn
		if opens != nil {
			open = opens[ci]
		}
		add := func(u unit) {
			if sc.Cluster != nil {
				u.mem = mems[sc.Cluster.MemCSV]
			}
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

// groupUnits gathers the batch units that read one source (equal
// keys[cell]) with one shard selection into one group, and makes each
// cluster unit a group of its own. Groups come in the order of their
// first units, and list their units in unit order.
func groupUnits(units []unit, keys []string) [][]int {
	type groupKey struct {
		src            string
		shardI, shardN int
	}
	var groups [][]int
	at := map[groupKey]int{}
	for i, u := range units {
		if u.sc.Cluster != nil {
			groups = append(groups, []int{i})
			continue
		}
		k := groupKey{keys[u.cell], u.shardI, u.shardN}
		if g, ok := at[k]; ok {
			groups[g] = append(groups[g], i)
			continue
		}
		at[k] = len(groups)
		groups = append(groups, []int{i})
	}
	return groups
}

// runUnits executes every group of units with run on at most workers
// goroutines (0 = GOMAXPROCS), in the pool both sweep paths share:
// workers take the next group off an atomic cursor until the groups
// run out or ctx is done. run returns one result per unit of its
// group; runUnits returns them in unit order. It returns ctx.Err()
// when the context ended, otherwise the first failed group's error (in
// group order) as a CellError naming the group's first unit's cell.
func runUnits(ctx context.Context, units []unit, groups [][]int, workers int, run func(context.Context, []unit) ([]unitResult, error)) ([]unitResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(groups))
	results := make([]unitResult, len(units))
	errs := make([]error, len(groups))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				gi := int(next.Add(1) - 1)
				if gi >= len(groups) {
					return
				}
				g := make([]unit, len(groups[gi]))
				for k, ui := range groups[gi] {
					g[k] = units[ui]
				}
				res, err := run(ctx, g)
				if err != nil {
					errs[gi] = &CellError{Index: g[0].cell, Scenario: g[0].sc, Err: err}
					continue
				}
				for k, ui := range groups[gi] {
					results[ui] = res[k]
				}
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

// singletons makes each of n units a group of its own.
func singletons(n int) [][]int {
	groups := make([][]int, n)
	for i := range groups {
		groups[i] = []int{i}
	}
	return groups
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
// policy, sinks, placement, events — so a sweep fails fast on any typo
// instead of mid-run. It reads and validates the cell's memory table
// into mems unless mems already holds it, so each is read once.
func validateCell(sc Scenario, mems map[string]trace.MemoryTable) error {
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
		if path := sc.Cluster.MemCSV; path != "" && mems[path] == nil {
			f, err := os.Open(path)
			if err != nil {
				return fmt.Errorf("scenario: cluster.memcsv: %w", err)
			}
			defer f.Close()
			if mems[path], err = trace.ReadMemoryCSV(f); err != nil {
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

// newForecastMemo makes each sweep's forecast memo; tests swap it for
// one that counts the fits.
var newForecastMemo = policy.NewForecastMemo

// runGroup executes one group (groupUnits): a cluster unit on its
// own, or batch units that read one source in one pass on the sweep's
// walkers, each with a fresh policy (fitting through the sweep's
// forecast memo) and fresh sinks. A one-unit group is a plain run.
func runGroup(ctx context.Context, g []unit, memo *forecast.Memo, walkers *sim.Walkers) ([]unitResult, error) {
	if g[0].sc.Cluster != nil {
		res, err := runClusterUnit(ctx, g[0], memo)
		if err != nil {
			return nil, err
		}
		return []unitResult{res}, nil
	}
	results := make([]unitResult, len(g))
	runs := make([]sim.PolicyRun, len(g))
	for i, u := range g {
		pol, sinks, err := newUnitRun(u.sc, memo)
		if err != nil {
			return nil, err
		}
		opts := []sim.Option{sim.WithExecTime(u.sc.ExecTime)}
		for _, cs := range sinks {
			rs, ok := cs.Sink.(sim.ResultSink)
			if !ok {
				return nil, fmt.Errorf("scenario: sink %q requires a cluster scenario", cs.Spec)
			}
			opts = append(opts, sim.WithSink(rs))
		}
		runs[i] = sim.PolicyRun{Policy: pol, Options: opts}
		results[i] = unitResult{policyName: pol.Name(), sinks: sinks}
	}
	src, release, err := openUnit(g[0])
	if err != nil {
		return nil, err
	}
	defer release()
	if _, err := walkers.RunAll(ctx, src, runs); err != nil {
		return nil, err
	}
	return results, nil
}

// newUnitRun builds a unit's fresh policy, fitting through the sweep's
// forecast memo, and its fresh sinks.
func newUnitRun(sc Scenario, memo *forecast.Memo) (policy.Policy, []CellSink, error) {
	pol, err := policy.FromSpec(sc.Policy)
	if err != nil {
		return nil, nil, err
	}
	policy.ShareForecasts(pol, memo)
	specs, err := sinkSpecsFor(sc)
	if err != nil {
		return nil, nil, err
	}
	sinks := make([]CellSink, len(specs))
	for i, s := range specs {
		built, err := NewSink(s)
		if err != nil {
			return nil, nil, err
		}
		sinks[i] = CellSink{Spec: s, Sink: built}
	}
	return pol, sinks, nil
}

// openUnit opens a unit's source, restricted to its shard.
func openUnit(u unit) (trace.Source, func() error, error) {
	src, release, err := u.open()
	if err != nil {
		return nil, nil, err
	}
	if u.shardI >= 0 {
		src = trace.Shard(src, u.shardI, u.shardN)
	}
	return src, release, nil
}

// runClusterUnit executes one cluster unit: fresh policy and sinks
// (newUnitRun) over the whole (shard of the) workload.
func runClusterUnit(ctx context.Context, u unit, memo *forecast.Memo) (unitResult, error) {
	sc := u.sc
	pol, sinks, err := newUnitRun(sc, memo)
	if err != nil {
		return unitResult{}, err
	}
	src, release, err := openUnit(u)
	if err != nil {
		return unitResult{}, err
	}
	defer release()
	res := unitResult{policyName: pol.Name(), sinks: sinks}

	// Cluster run: the timeline needs the whole (shard of the)
	// workload; the memory table, when present, applies to a private
	// copy so a trace shared across cells stays pristine.
	tr, err := trace.Collect(src)
	if err != nil {
		return unitResult{}, err
	}
	if u.mem != nil {
		tr, res.defaulted = applyMem(tr, u.mem)
	} else {
		// The cluster engine charges each app without memory data the
		// default.
		for _, app := range tr.Apps {
			if app.MemoryMB <= 0 {
				res.defaulted++
			}
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
	}
	if sc.Cluster.Events != "" {
		if cfg.Events, err = cluster.ParseEvents(sc.Cluster.Events); err != nil {
			return unitResult{}, err
		}
	}
	clRes, err := cluster.Run(ctx, trace.NewTraceSource(tr), pol, cfg)
	if err != nil {
		return unitResult{}, err
	}
	for _, cs := range sinks {
		switch s := cs.Sink.(type) {
		case sim.ResultSink:
			for i, a := range clRes.Apps {
				s.Consume(i, a.AppResult)
			}
		case clusterSink:
			for i, a := range clRes.Apps {
				s.Consume(i, a)
			}
		case clusterObserver:
			s.ObserveCluster(clRes)
		default:
			return unitResult{}, fmt.Errorf("scenario: sink %q consumes neither app nor cluster outcomes", cs.Spec)
		}
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

// applyMem applies a per-app memory table to a private copy of tr
// (the original may be shared across sweep cells).
func applyMem(tr *trace.Trace, mem trace.MemoryTable) (*trace.Trace, int) {
	clone := &trace.Trace{Duration: tr.Duration, Apps: make([]*trace.App, len(tr.Apps))}
	for i, a := range tr.Apps {
		clone.Apps[i] = a.Clone()
	}
	return clone, mem.Apply(clone)
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
