// Package wild is the public API of this reproduction of "Serverless
// in the Wild: Characterizing and Optimizing the Serverless Workload
// at a Large Cloud Provider" (Shahrad et al., USENIX ATC 2020).
//
// The surface is organized around three composable abstractions:
//
//   - TraceSource yields applications one at a time. Sources exist
//     for in-memory traces (SourceFromTrace), streaming
//     AzurePublicDataset CSVs that never materialize the trace
//     (StreamInvocationsCSV), lazy synthetic generation
//     (GeneratorSource), and interleaved shards for multi-process
//     scale-out (Shard).
//   - Run is the simulation engine: context-cancelable, parallel, and
//     sink-fed. With no sink it returns the classic *SimResult; with
//     WithSink it streams per-app outcomes into incremental
//     aggregates (ColdStartSink, WastedMemorySink, or your own
//     ResultSink) so arbitrarily large traces simulate in constant
//     memory.
//   - The policy registry builds policies from compact specs —
//     FromSpec("hybrid?cv=2&range=4h"), FromSpec("fixed?ka=20m") — so
//     binaries, experiments and scripts share one configuration path;
//     Register adds custom policies to the same spec language.
//
// Quick start (batch):
//
//	pop, _ := wild.Generate(wild.WorkloadConfig{Seed: 1, NumApps: 200})
//	res := wild.Simulate(pop.Trace, wild.MustFromSpec("hybrid"))
//	fmt.Println(wild.ThirdQuartileColdPercent(res))
//
// Quick start (streaming, constant memory):
//
//	src, _ := wild.StreamInvocationsCSV(file)
//	cold := wild.NewColdStartSink()
//	_, err := wild.Run(ctx, src, wild.MustFromSpec("hybrid"), wild.WithSink(cold))
//	fmt.Println(cold.ThirdQuartile())
//
// The pre-redesign entry points (Simulate, SimulateOpts) remain as
// thin wrappers and produce byte-identical results.
package wild

import (
	"context"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Trace model.
type (
	// Trace is a workload trace: applications and their invocations.
	Trace = trace.Trace
	// App is one application (the unit of keep-alive decisions).
	App = trace.App
	// Function is one serverless function.
	Function = trace.Function
	// TriggerType is one of the paper's seven trigger classes.
	TriggerType = trace.TriggerType
)

// Trace sources.
type (
	// TraceSource yields a workload's applications one at a time (see
	// trace.Source). Sources stream: consumers hold only the app in
	// flight, so traces larger than RAM flow through Run untouched.
	TraceSource = trace.Source
)

// SourceFromTrace adapts an in-memory trace. Run detects this source
// and takes its batch work-stealing fast path.
func SourceFromTrace(tr *Trace) TraceSource { return trace.NewTraceSource(tr) }

// StreamInvocationsCSV opens an AzurePublicDataset-style invocations
// table as a constant-memory streaming source: rows parse as they are
// read, and only one application is held at a time.
func StreamInvocationsCSV(r io.Reader) (TraceSource, error) {
	return trace.StreamInvocationsCSV(r)
}

// Shard restricts src to its i-th of n interleaved shards (apps i,
// i+n, i+2n, ...). The n shards partition the source exactly, so n
// processes each running one shard cover a trace with no
// coordination.
func Shard(src TraceSource, i, n int) TraceSource { return trace.Shard(src, i, n) }

// ParseShard parses an "i/n" shard designator into Shard arguments.
func ParseShard(s string) (i, n int, err error) { return trace.ParseShard(s) }

// GeneratorSource lazily generates the synthetic population cfg
// describes, yielding exactly the apps Generate would materialize.
func GeneratorSource(cfg WorkloadConfig) (TraceSource, error) { return workload.NewSource(cfg) }

// CollectTrace drains a source into a materialized *Trace.
func CollectTrace(src TraceSource) (*Trace, error) { return trace.Collect(src) }

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

// ReadInvocationsCSV parses an AzurePublicDataset-style invocation
// table into a fully materialized trace (see StreamInvocationsCSV for
// the constant-memory alternative).
func ReadInvocationsCSV(r io.Reader) (*Trace, error) { return trace.ReadInvocationsCSV(r) }

// WriteInvocationsCSV writes a trace in the dataset's CSV schema.
func WriteInvocationsCSV(w io.Writer, tr *Trace) error { return trace.WriteInvocationsCSV(w, tr) }

// Policies.
type (
	// Policy decides keep-alive and pre-warming windows per app.
	Policy = policy.Policy
	// Decision is one policy verdict (pre-warm + keep-alive windows).
	Decision = policy.Decision
	// HybridConfig parameterizes the hybrid histogram policy.
	HybridConfig = policy.HybridConfig
	// FixedKeepAlive is the provider state-of-practice baseline.
	FixedKeepAlive = policy.FixedKeepAlive
	// NoUnloading keeps everything warm forever (cost upper bound).
	NoUnloading = policy.NoUnloading
	// PolicyBuilder constructs a policy from parsed spec parameters.
	PolicyBuilder = policy.Builder
	// PolicySpecParams carries a spec's parameters to a builder.
	PolicySpecParams = policy.SpecParams
)

// DefaultHybridConfig returns the paper's default parameters: 4-hour
// 1-minute-bin histogram, [5,99] percentile cutoffs, 10% margin, CV
// threshold 2, 15% ARIMA margin.
func DefaultHybridConfig() HybridConfig { return policy.DefaultHybridConfig() }

// NewHybrid constructs the paper's hybrid histogram policy.
func NewHybrid(cfg HybridConfig) Policy { return policy.NewHybrid(cfg) }

// Policy registry. Specs use URL query syntax after the policy name:
// "fixed?ka=20m", "hybrid?cv=2&range=4h&arima=off", "nounload".

// Register adds a named policy builder to the spec registry.
func Register(name string, b PolicyBuilder) { policy.Register(name, b) }

// FromSpec parses a policy spec and builds the policy.
func FromSpec(spec string) (Policy, error) { return policy.FromSpec(spec) }

// MustFromSpec is FromSpec panicking on error, for code-supplied
// specs.
func MustFromSpec(spec string) Policy { return policy.MustFromSpec(spec) }

// PolicySpecs returns the registered policy names, sorted.
func PolicySpecs() []string { return policy.SpecNames() }

// Simulation.
type (
	// SimOptions configures the cold-start simulator (batch form).
	SimOptions = sim.Options
	// SimResult is a per-app simulation outcome set.
	SimResult = sim.Result
	// AppResult is the outcome for one application.
	AppResult = sim.AppResult
	// ResultSink consumes per-app outcomes as the engine produces
	// them (calls serialized by Run).
	ResultSink = sim.ResultSink
	// RunInfo describes a run to its sinks.
	RunInfo = sim.RunInfo
	// RunOption configures Run.
	RunOption = sim.Option
	// Collector is the default collecting sink.
	Collector = sim.Collector
)

// Run simulates pol over the apps yielded by src: the
// context-cancelable, sink-fed superset of Simulate. With no WithSink
// option it returns the collected *SimResult (identical to
// Simulate's); with sinks it returns (nil, nil) on success and
// retains nothing per-app.
func Run(ctx context.Context, src TraceSource, pol Policy, opts ...RunOption) (*SimResult, error) {
	return sim.Run(ctx, src, pol, opts...)
}

// WithWorkers bounds the number of apps simulated concurrently
// (default GOMAXPROCS).
func WithWorkers(n int) RunOption { return sim.WithWorkers(n) }

// WithExecTime makes invocations occupy their function's average
// execution time instead of 0 (§3.4 idle-time semantics).
func WithExecTime(enabled bool) RunOption { return sim.WithExecTime(enabled) }

// WithSink attaches a ResultSink (repeatable); attaching any sink
// disables the default collector.
func WithSink(s ResultSink) RunOption { return sim.WithSink(s) }

// NewCollector returns the default collecting sink, for explicit use
// alongside other sinks.
func NewCollector() *Collector { return sim.NewCollector() }

// Simulate runs pol over tr with default options (batch entry point).
func Simulate(tr *Trace, pol Policy) *SimResult {
	return sim.Simulate(tr, pol, sim.Options{})
}

// SimulateOpts runs pol over tr with explicit options.
func SimulateOpts(tr *Trace, pol Policy, opt SimOptions) *SimResult {
	return sim.Simulate(tr, pol, opt)
}

// Streaming metrics sinks.
type (
	// ColdStartSink incrementally aggregates the per-app cold-start
	// percentage distribution (quantiles, ECDF) without storing apps.
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

// ThirdQuartileColdPercent returns the 75th-percentile per-app cold
// start percentage, the paper's headline metric.
func ThirdQuartileColdPercent(r *SimResult) float64 {
	return metrics.ThirdQuartileColdPercent(r)
}

// NormalizedWastedMemory returns r's wasted memory as a percentage of
// baseline's (the paper normalizes to the 10-minute fixed policy).
func NormalizedWastedMemory(r, baseline *SimResult) float64 {
	return metrics.NormalizedWastedMemory(r, baseline)
}

// Cluster simulation: the finite-memory multi-node engine. Unlike the
// per-app simulator, the cluster orders all invocations on one
// discrete-event timeline over nodes with real capacity; warm
// containers compete for memory and can be evicted, turning arrivals
// the policy predicted warm into cold starts. With NodeMemMB == 0
// (infinite) the outcome is bit-identical to Simulate.
type (
	// ClusterConfig describes the simulated cluster (nodes, per-node
	// memory, placement).
	ClusterConfig = cluster.Config
	// ClusterResult is a cluster simulation outcome (apps + nodes).
	ClusterResult = cluster.Result
	// ClusterAppResult extends AppResult with eviction attribution.
	ClusterAppResult = cluster.AppResult
	// ClusterNodeStats aggregates one node (evictions, utilization
	// time series).
	ClusterNodeStats = cluster.NodeStats
	// ClusterOption configures RunCluster.
	ClusterOption = cluster.Option
	// ClusterSink consumes per-app cluster outcomes.
	ClusterSink = cluster.Sink
	// Placement assigns apps to nodes.
	Placement = cluster.Placement
	// ObliviousPlacement marks a placement whose Place never consults
	// live residency; the cluster engine pre-assigns such placements
	// and runs per-node timelines in parallel (ClusterConfig.Workers),
	// bit-identical to the sequential order. hash and binpack qualify;
	// least-loaded does not.
	ObliviousPlacement = cluster.Oblivious
	// PlacementBuilder constructs a placement from parsed spec params.
	PlacementBuilder = cluster.PlacementBuilder
	// ClusterAttributionSink splits cold starts into policy-induced
	// vs eviction-induced as outcomes stream past.
	ClusterAttributionSink = metrics.ClusterAttributionSink
)

// SimulateCluster runs pol over tr on the configured cluster.
func SimulateCluster(tr *Trace, pol Policy, cfg ClusterConfig) *ClusterResult {
	return cluster.Simulate(tr, pol, cfg)
}

// RunCluster is the source- and sink-plumbed cluster entry point: the
// source is materialized (the timeline needs the whole workload), the
// cluster is simulated under ctx, and outcomes drain to the attached
// sinks in trace order. Plain ResultSinks (ColdStartSink,
// WastedMemorySink) consume cluster runs unchanged via
// WithClusterResultSink.
func RunCluster(ctx context.Context, src TraceSource, pol Policy, cfg ClusterConfig, opts ...ClusterOption) (*ClusterResult, error) {
	return cluster.Run(ctx, src, pol, cfg, opts...)
}

// WithClusterResultSink attaches a sim ResultSink to a cluster run
// (fed each app's embedded AppResult).
func WithClusterResultSink(s ResultSink) ClusterOption { return cluster.WithSink(s) }

// WithClusterSink attaches a cluster-aware sink (eviction attribution
// included).
func WithClusterSink(s ClusterSink) ClusterOption { return cluster.WithClusterSink(s) }

// NewPlacement builds a registered placement policy from a spec
// ("hash", "least-loaded", "binpack?order=invocations",
// "hash?seed=3"); bare names select the defaults.
func NewPlacement(spec string) (Placement, error) { return cluster.NewPlacement(spec) }

// RegisterPlacement adds a named placement builder to the spec
// registry. A placement that additionally implements
// ObliviousPlacement (Place reads only the app footprint, the static
// cluster shape and Prepare state — never View.ResidentMB) gets the
// parallel per-node timeline; the contract is enforced at
// pre-assignment with a view whose ResidentMB panics.
func RegisterPlacement(name string, b PlacementBuilder) { cluster.RegisterPlacement(name, b) }

// PlacementNames returns the registered placement names, sorted.
func PlacementNames() []string { return cluster.PlacementNames() }

// NewClusterAttributionSink returns an empty attribution sink.
func NewClusterAttributionSink() *ClusterAttributionSink {
	return metrics.NewClusterAttributionSink()
}

// MeanClusterUtilizationPct averages per-node mean memory utilization
// over a cluster run (0 when the cluster is infinite).
func MeanClusterUtilizationPct(r *ClusterResult) float64 {
	return metrics.MeanClusterUtilizationPct(r)
}

// DefaultAppMemoryMB is the paper's median per-app allocated memory
// (Figure 8), charged for apps with no memory data.
const DefaultAppMemoryMB = trace.DefaultAppMemoryMB

// ApplyMemoryCSVDefault fills MemoryMB on tr's apps from a memory
// table, charges defaultMB (or DefaultAppMemoryMB when <= 0) to apps
// the table does not cover, and returns how many apps were defaulted.
func ApplyMemoryCSVDefault(r io.Reader, tr *Trace, defaultMB float64) (defaulted int, err error) {
	return trace.ApplyMemoryCSVDefault(r, tr, defaultMB)
}

// Platform (OpenWhisk analogue) and replay.
type (
	// PlatformConfig parameterizes the in-process FaaS cluster.
	PlatformConfig = platform.Config
	// Platform is the in-process FaaS cluster.
	Platform = platform.Platform
	// ReplayOptions configures trace replay against the platform.
	ReplayOptions = replay.Options
	// ReplayReport is the outcome of a replay.
	ReplayReport = replay.Report
)

// NewPlatform assembles an in-process FaaS cluster running pol.
func NewPlatform(cfg PlatformConfig, pol Policy) *Platform {
	return platform.NewPlatform(cfg, pol)
}

// NewScaledClock returns a clock running scale× real time, for
// replaying hours of trace in seconds.
func NewScaledClock(scale float64) platform.Clock { return platform.NewScaledClock(scale) }

// ReplayContext fires tr's invocations at p and reports outcomes;
// cancellation interrupts the (scaled) real-time replay mid-flight.
func ReplayContext(ctx context.Context, p *Platform, tr *Trace, opt ReplayOptions) (*ReplayReport, error) {
	return replay.Replay(ctx, p, tr, opt)
}

// Serving control plane: the concurrent keep-alive decision service
// (internal/serve), the record/replay loop for captured incident
// bundles, and the soak harness. Where Platform is a whole in-process
// cluster, ServeController isolates just the decision component —
// sharded, per-app-serialized, allocation-free in steady state — for
// embedding into serving paths at production rates.
type (
	// ServeConfig parameterizes a ServeController (lock shard count).
	ServeConfig = serve.Config
	// ServeController is the concurrent keep-alive decision service.
	ServeController = serve.Controller
	// ServeRecorder captures a live invocation stream for bundling.
	ServeRecorder = serve.Recorder
	// BundleMeta is an incident bundle's versioned JSON header.
	BundleMeta = serve.BundleMeta
	// SoakConfig parameterizes a serving soak run.
	SoakConfig = serve.SoakConfig
	// SoakResult reports a soak's decision-latency percentiles and
	// throughput.
	SoakResult = serve.SoakResult
	// LatencyHistogram is the wait-free fixed-footprint latency
	// histogram behind the soak percentiles (≤ 6.25% relative error).
	LatencyHistogram = metrics.LatencyHistogram
)

// NewServeController builds a decision service over pol.
func NewServeController(pol Policy, cfg ServeConfig) *ServeController {
	return serve.NewController(pol, cfg)
}

// NewServeRecorder returns a recorder anchored at epoch; feed it from
// a serving path (or PlatformConfig.Recorder) and write the captured
// stream out with WriteBundle for later what-if replay.
func NewServeRecorder(epoch time.Time) *ServeRecorder { return serve.NewRecorder(epoch) }

// WriteTraceBundle writes tr as a versioned incident bundle (JSON
// header + dataset-codec invocation rows).
func WriteTraceBundle(w io.Writer, name string, tr *Trace) error {
	return serve.WriteTraceBundle(w, name, tr)
}

// ReadBundle parses an incident bundle into its header and a
// materialized trace.
func ReadBundle(r io.Reader) (BundleMeta, *Trace, error) { return serve.ReadBundle(r) }

// StreamBundle opens an incident bundle as a constant-memory trace
// source (also available as the "bundle:path" scenario source).
func StreamBundle(r io.Reader) (BundleMeta, TraceSource, error) { return serve.StreamBundle(r) }

// ReplayBundle re-simulates a captured incident bundle against
// candidate policy specs — one sweep cell per spec, default coldstart
// and waste sinks — answering "which policy would have held up under
// this traffic?".
func ReplayBundle(ctx context.Context, r io.Reader, policySpecs []string, opts ...ScenarioOption) (*SweepReport, BundleMeta, error) {
	return replay.ReplayBundle(ctx, r, policySpecs, opts...)
}

// RunSoak drives a fresh decision service at sustained concurrency
// and reports decision-latency percentiles and throughput (the
// cmd/soakbench entry point, embeddable).
func RunSoak(ctx context.Context, cfg SoakConfig) (*SoakResult, error) { return serve.Soak(ctx, cfg) }

// NewLatencyHistogram returns an empty latency histogram.
func NewLatencyHistogram() *LatencyHistogram { return metrics.NewLatencyHistogram() }

// Experiments.
type (
	// ExperimentConfig parameterizes a full figure-regeneration run.
	ExperimentConfig = experiments.Config
	// Figure is one regenerated table/figure.
	Figure = experiments.Figure
)

// RunExperimentsContext regenerates every evaluation figure,
// honoring cancellation between figures and inside the platform
// replay.
func RunExperimentsContext(ctx context.Context, cfg ExperimentConfig, progress io.Writer) ([]*Figure, error) {
	return experiments.RunAll(ctx, cfg, progress)
}

// RenderFigures writes text renderings of figures to w.
func RenderFigures(figs []*Figure, w io.Writer) { experiments.RenderAll(figs, w) }

// Scenarios and sweeps: the declarative configuration path. A
// Scenario makes a whole run — source, policy, cluster shape, sinks,
// sharding — one serializable value built on the component registries
// (policy specs, placement specs, source specs, sink specs); a Grid
// expands list-valued fields into the cells of a sweep and RunSweep
// executes them concurrently, bit-identical to running each expanded
// scenario sequentially.
type (
	// Scenario is one fully-described run (see ParseScenario).
	Scenario = scenario.Scenario
	// ScenarioCluster is a scenario's cluster section.
	ScenarioCluster = scenario.ClusterSpec
	// ScenarioGrid is a declarative sweep: base scenario + axes.
	ScenarioGrid = scenario.Grid
	// ScenarioAxis is one list-valued field of a grid.
	ScenarioAxis = scenario.Axis
	// ScenarioResult is one executed scenario's drained sinks.
	ScenarioResult = scenario.CellResult
	// ScenarioMetric is one named summary value of a run.
	ScenarioMetric = scenario.Metric
	// ScenarioSink aggregates a run and reports named metrics.
	ScenarioSink = scenario.Sink
	// ScenarioSourceFactory produces fresh trace sources for a spec.
	ScenarioSourceFactory = scenario.SourceFactory
	// SweepReport is the outcome of RunSweep (CSV/JSON renderable).
	SweepReport = scenario.SweepReport
	// ScenarioOption configures RunScenario / RunSweep.
	ScenarioOption = scenario.Option
	// ScenarioCellError is the per-cell failure RunSweep returns: it
	// carries the failing cell's index and canonical scenario, so
	// drivers can report exactly which cell of a sweep broke.
	ScenarioCellError = scenario.CellError
	// ClusterEvent is one timed chaos event of a cluster run
	// (fail/drain/join/resize), see ParseClusterEvents.
	ClusterEvent = cluster.Event
	// ClusterReplacer is the optional placement hook consulted when a
	// cluster event displaces apps from a node.
	ClusterReplacer = cluster.Replacer
)

// ParseClusterEvents parses a timed cluster event list
// ("fail@36h:node=3, join@48h:node=3, resize@72h:node=1&mem=2048");
// ClusterEventsString renders the canonical form back.
func ParseClusterEvents(s string) ([]ClusterEvent, error) { return cluster.ParseEvents(s) }

// ClusterEventsString renders an event list in the canonical
// comma-separated form accepted by ParseClusterEvents and the
// scenario key cluster.events.
func ClusterEventsString(evs []ClusterEvent) string { return cluster.EventsString(evs) }

// ParseScenario parses a scenario from the text grammar
// ("source=gen:apps=400; policy=hybrid?cv=2; cluster.nodes=8") or
// from JSON; Scenario.String renders the canonical text form back
// (parse → String → parse is the identity).
func ParseScenario(s string) (Scenario, error) { return scenario.ParseScenario(s) }

// ParseGrid parses a sweep grid: the scenario grammar with bracketed
// list values ("policy=[fixed?ka=10m,hybrid]; cluster.mem=[2048,4096]")
// or the JSON {"base", "axes", "cells"} form. A plain scenario parses
// as a 1-cell grid.
func ParseGrid(s string) (ScenarioGrid, error) { return scenario.ParseGrid(s) }

// RunScenario executes one scenario and returns its drained sinks.
func RunScenario(ctx context.Context, sc Scenario, opts ...ScenarioOption) (*ScenarioResult, error) {
	return scenario.RunScenario(ctx, sc, opts...)
}

// RunSweep executes expanded grid cells concurrently over a bounded
// worker pool, sharing materialized traces across cells with
// identical sources and merging fanned-out shard cells ("*/n") via
// the sinks' exact Merges. Results are bit-identical to running each
// cell sequentially through RunScenario.
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

// WithSweepWorkers bounds how many cells run concurrently (default
// GOMAXPROCS); the bound never changes results.
func WithSweepWorkers(n int) ScenarioOption { return scenario.WithSweepWorkers(n) }

// WithFixedTrace supplies an in-memory trace to every cell,
// overriding their Source specs — the bridge for callers that already
// hold a trace.
func WithFixedTrace(tr *Trace) ScenarioOption { return scenario.WithFixedTrace(tr) }

// RegisterScenarioSource extends the source-spec registry
// ("name:rest") with a custom trace source scheme.
func RegisterScenarioSource(name string, b scenario.SourceBuilder) { scenario.RegisterSource(name, b) }

// RegisterScenarioSink extends the sink-spec registry ("name?k=v")
// with a custom metric sink.
func RegisterScenarioSink(name string, b scenario.SinkBuilder) { scenario.RegisterSink(name, b) }

// ScenarioSourceNames returns the registered source schemes, sorted.
func ScenarioSourceNames() []string { return scenario.SourceNames() }

// ScenarioSinkNames returns the registered sink names, sorted.
func ScenarioSinkNames() []string { return scenario.SinkNames() }

// ScenarioLabels returns one compact label per scenario: the
// assignments that vary across the set.
func ScenarioLabels(cells []Scenario) []string { return scenario.Labels(cells) }
