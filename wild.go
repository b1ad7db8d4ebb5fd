// Package wild is the public API of this reproduction of "Serverless
// in the Wild: Characterizing and Optimizing the Serverless Workload
// at a Large Cloud Provider" (Shahrad et al., USENIX ATC 2020).
//
// The facade is exactly what cmd/coldsim and the five examples/
// programs call (TestFacadeIsCalled pins that); everything else lives
// in the internal packages and is reached through the scenario
// grammar:
//
//   - Run is the simulation engine: context-cancelable, parallel, and
//     sink-fed. It consumes a TraceSource (SourceFromTrace adapts an
//     in-memory trace) and, with WithSink, streams per-app outcomes
//     into incremental aggregates (ColdStartSink, WastedMemorySink) so
//     arbitrarily large traces simulate in constant memory.
//   - The policy registry builds policies from compact specs —
//     MustFromSpec("hybrid?cv=2&range=4h"), MustFromSpec("fixed?ka=20m")
//     — so binaries, experiments and scripts share one configuration
//     path; PolicySpecs and PlacementNames list what is registered.
//   - A Scenario makes a whole run — source (gen:, csv:, bundle:,
//     tracec:, shard:), policy, cluster shape, sinks, sharding — one
//     serializable value; ParseGrid expands list-valued fields into the
//     cells of a sweep and RunSweep / RunSweepProcs execute them.
//   - ReplayContext drives the in-process FaaS platform (§5.3) in
//     virtual time.
//
// Quick start (examples/quickstart):
//
//	pop, _ := wild.Generate(wild.WorkloadConfig{Seed: 1, NumApps: 200})
//	cold := wild.NewColdStartSink()
//	_, err := wild.Run(ctx, wild.SourceFromTrace(pop.Trace),
//		wild.MustFromSpec("hybrid"), wild.WithSink(cold))
//	fmt.Println(cold.ThirdQuartile())
//
// Quick start (a sweep, constant memory from a dataset CSV):
//
//	grid, _ := wild.ParseGrid("source=csv:invocations.csv; policy=[fixed?ka=10m,hybrid]")
//	cells, _ := grid.Scenarios()
//	rep, err := wild.RunSweep(ctx, cells)
package wild

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Trace model and sources.
type (
	// Trace is a workload trace: applications and their invocations.
	Trace = trace.Trace
	// TraceSource yields a workload's applications one at a time (see
	// trace.Source). Sources stream: consumers hold only the app in
	// flight, so traces larger than RAM flow through Run untouched.
	TraceSource = trace.Source
)

// SourceFromTrace adapts an in-memory trace; Run walks it like any
// other source, one app at a time in trace order. Each function's
// Invocations must be ascending (trace.Trace.Validate checks it): an
// app's invocation order is merged from those lists, not re-sorted.
func SourceFromTrace(tr *Trace) TraceSource { return trace.NewTraceSource(tr) }

// DefaultAppMemoryMB is the paper's median per-app allocated memory
// (Figure 8), charged for apps with no memory data.
const DefaultAppMemoryMB = trace.DefaultAppMemoryMB

// Workload generation.
type (
	// WorkloadConfig parameterizes synthetic trace generation.
	WorkloadConfig = workload.Config
	// Population is a generated workload with metadata.
	Population = workload.Population
)

// Generate builds a synthetic population calibrated to the paper's
// published workload distributions.
func Generate(cfg WorkloadConfig) (*Population, error) { return workload.Generate(cfg) }

// Policy decides keep-alive and pre-warming windows per app.
type Policy = policy.Policy

// Policy registry. Specs use URL query syntax after the policy name:
// "fixed?ka=20m", "hybrid?cv=2&range=4h&arima=off", "nounload".

// MustFromSpec parses a policy spec and builds the policy, panicking
// on error (for code-supplied specs).
func MustFromSpec(spec string) Policy { return policy.MustFromSpec(spec) }

// PolicySpecs returns the registered policy names, sorted.
func PolicySpecs() []string { return policy.SpecNames() }

// Simulation.
type (
	// SimResult is a per-app simulation outcome set.
	SimResult = sim.Result
	// ResultSink consumes per-app outcomes as the engine produces
	// them (calls serialized by Run).
	ResultSink = sim.ResultSink
	// RunOption configures Run.
	RunOption = sim.Option
)

// Run simulates pol over the apps yielded by src. With no WithSink
// option it returns the collected *SimResult; with sinks it returns
// (nil, nil) on success and retains nothing per-app.
func Run(ctx context.Context, src TraceSource, pol Policy, opts ...RunOption) (*SimResult, error) {
	return sim.Run(ctx, src, pol, opts...)
}

// WithSink attaches a ResultSink (repeatable); attaching any sink
// disables the default collector.
func WithSink(s ResultSink) RunOption { return sim.WithSink(s) }

// Streaming metrics sinks.
type (
	// ColdStartSink incrementally aggregates the per-app cold-start
	// percentage distribution (quantiles) without storing apps.
	ColdStartSink = metrics.ColdStartSink
	// WastedMemorySink incrementally totals wasted memory time and
	// invocation counters.
	WastedMemorySink = metrics.WastedMemorySink
)

// NewColdStartSink returns an empty streaming cold-start distribution
// sink.
func NewColdStartSink() *ColdStartSink { return metrics.NewColdStartSink() }

// NewWastedMemorySink returns an empty streaming totals sink.
func NewWastedMemorySink() *WastedMemorySink { return metrics.NewWastedMemorySink() }

// PlacementNames returns the registered cluster placement names,
// sorted (the values of the scenario key cluster.placement).
func PlacementNames() []string { return cluster.PlacementNames() }

// Platform (OpenWhisk analogue) and replay.
type (
	// PlatformConfig parameterizes the in-process FaaS cluster.
	PlatformConfig = platform.Config
	// ReplayOptions configures trace replay against the platform.
	ReplayOptions = replay.Options
	// ReplayReport is the outcome of a replay.
	ReplayReport = replay.Report
)

// ReplayContext fires tr's invocations at an in-process FaaS cluster
// built from cfg and running pol, in virtual time, and reports
// outcomes; cancellation stops it mid-flight.
func ReplayContext(ctx context.Context, cfg PlatformConfig, pol Policy, tr *Trace, opt ReplayOptions) (*ReplayReport, error) {
	return replay.Replay(ctx, cfg, pol, tr, opt)
}

// Scenarios and sweeps: the declarative configuration path. A
// Scenario makes a whole run — source, policy, cluster shape, sinks,
// sharding — one serializable value built on the component registries
// (policy specs, placement specs, source specs, sink specs); a Grid
// expands list-valued fields into the cells of a sweep and RunSweep
// executes them concurrently, bit-identical to running each expanded
// scenario sequentially.
type (
	// Scenario is one fully-described run.
	Scenario = scenario.Scenario
	// ScenarioCluster is a scenario's cluster section.
	ScenarioCluster = scenario.ClusterSpec
	// ScenarioGrid is a declarative sweep: base scenario + axes.
	ScenarioGrid = scenario.Grid
	// ScenarioAxis is one list-valued field of a grid.
	ScenarioAxis = scenario.Axis
	// ScenarioResult is one executed scenario's drained sinks.
	ScenarioResult = scenario.CellResult
	// SweepReport is the outcome of RunSweep (CSV/JSON renderable).
	SweepReport = scenario.SweepReport
	// ScenarioOption configures RunSweep.
	ScenarioOption = scenario.Option
	// ScenarioCellError is the per-cell failure RunSweep returns: it
	// carries the failing cell's index and canonical scenario, so
	// drivers can report exactly which cell of a sweep broke.
	ScenarioCellError = scenario.CellError
)

// ParseGrid parses a sweep grid: the scenario grammar
// ("source=gen:apps=400; policy=hybrid?cv=2; cluster.nodes=8") with
// bracketed list values ("policy=[fixed?ka=10m,hybrid];
// cluster.mem=[2048,4096]") or the JSON {"base", "axes", "cells"}
// form. A plain scenario parses as a 1-cell grid.
func ParseGrid(s string) (ScenarioGrid, error) { return scenario.ParseGrid(s) }

// RunSweep executes expanded grid cells concurrently over a
// GOMAXPROCS-wide worker pool, sharing materialized traces across
// cells with identical sources and merging fanned-out shard cells
// ("*/n") via the sinks' exact Merges. Results are bit-identical to
// running each cell sequentially.
func RunSweep(ctx context.Context, cells []Scenario, opts ...ScenarioOption) (*SweepReport, error) {
	return scenario.RunSweep(ctx, cells, opts...)
}

// RunSweepProcs executes a sweep like RunSweep, but each unit (a cell,
// or one shard of a fanned-out "*/n" cell) runs in its own worker
// process — this binary re-exec'd — up to procs concurrent. Binaries
// using it must call MaybeRunScenarioWorker first thing in main.
// Results are bit-identical to RunSweep over the same cells.
func RunSweepProcs(ctx context.Context, cells []Scenario, procs int, opts ...ScenarioOption) (*SweepReport, error) {
	return scenario.RunSweepProcs(ctx, cells, procs, opts...)
}

// MaybeRunScenarioWorker turns this process into a sweep worker if it
// was spawned as one by RunSweepProcs, and never returns in that case;
// otherwise it is a no-op.
func MaybeRunScenarioWorker() { scenario.MaybeRunWorker() }

// ScenarioLabels returns one compact label per scenario: the
// assignments that vary across the set.
func ScenarioLabels(cells []Scenario) []string { return scenario.Labels(cells) }
