package scenario

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The sink registry maps short names to builders of metric sinks,
// extending the policy-spec discipline to the measurement axis. A
// sink spec is "name?key=value" ("coldstart?q=50:75:99", "waste",
// "attribution", "util"); a built Sink consumes one run's outcomes
// and reports named summary metrics, and same-spec sinks merge
// exactly (integer counters and binned distributions) so sharded runs
// aggregate to the unsharded whole.

// Metric is one named summary value of a run.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Sink is a scenario metric sink. Each implementation also implements
// one of sim.ResultSink (per-app batch outcomes), clusterSink (per-app
// cluster outcomes with eviction attribution) or clusterObserver
// (whole-run cluster statistics); the runner feeds each sink through
// the one it implements and rejects sinks that need a cluster on batch
// scenarios.
type Sink interface {
	// Spec returns the canonical spec the sink was built from.
	Spec() string
	// Metrics returns the run's summary metrics in a fixed order.
	Metrics() []Metric
	// Merge folds another sink of the same spec into this one (shard
	// aggregation); merging different specs or types is an error.
	Merge(other Sink) error
	// MarshalState and UnmarshalState carry the sink's complete merge
	// state across a process boundary: RunSweepProcs workers marshal
	// their drained sinks, the parent unmarshals each into a fresh
	// sink of the same spec and merges as usual.
	MarshalState() ([]byte, error)
	UnmarshalState([]byte) error
}

// clusterSink is the Sink extension for per-app cluster outcomes: the
// runner feeds it a cluster run's Result.Apps in trace order.
type clusterSink interface {
	Consume(index int, r cluster.AppResult)
}

// clusterObserver is the Sink extension for whole-run cluster
// statistics (node utilization) that per-app consumption cannot see.
type clusterObserver interface {
	ObserveCluster(r *cluster.Result)
}

var sinkReg = spec.NewRegistry("scenario: unknown sink", "scenario: sink spec", map[string]func(*spec.Params) (Sink, error){
	"coldstart": buildColdStartSink,
	"waste": func(*spec.Params) (Sink, error) {
		return &wasteScenarioSink{WastedMemorySink: metrics.NewWastedMemorySink()}, nil
	},
	"attribution": func(*spec.Params) (Sink, error) {
		return &attributionScenarioSink{ClusterAttributionSink: metrics.NewClusterAttributionSink()}, nil
	},
	"util": func(*spec.Params) (Sink, error) { return &utilScenarioSink{}, nil },
})

// NewSink builds a registered sink from a spec ("coldstart?q=50:75").
func NewSink(s string) (Sink, error) { return sinkReg.New(s) }

// coldStartScenarioSink reports quantiles of the per-app cold-start
// percentage distribution. Bins are integer counts, so Merge is exact.
type coldStartScenarioSink struct {
	*metrics.ColdStartSink
	quantiles []float64
}

func (s *coldStartScenarioSink) Spec() string {
	if len(s.quantiles) == 2 && s.quantiles[0] == 50 && s.quantiles[1] == 75 {
		return "coldstart"
	}
	qs := make([]string, len(s.quantiles))
	for i, q := range s.quantiles {
		qs[i] = fmt.Sprintf("%g", q)
	}
	// ':' is the canonical list separator: commas already separate
	// sink specs in the scenario text grammar.
	return "coldstart?q=" + strings.Join(qs, ":")
}

func (s *coldStartScenarioSink) Metrics() []Metric {
	out := make([]Metric, len(s.quantiles))
	for i, q := range s.quantiles {
		out[i] = Metric{Name: fmt.Sprintf("cold_p%g", q), Value: s.Quantile(q)}
	}
	return out
}

func (s *coldStartScenarioSink) Merge(other Sink) error {
	o, ok := other.(*coldStartScenarioSink)
	if !ok || o.Spec() != s.Spec() {
		return fmt.Errorf("scenario: cannot merge sink %q into %q", other.Spec(), s.Spec())
	}
	s.ColdStartSink.Merge(o.ColdStartSink)
	return nil
}

// wasteScenarioSink reports the wasted-memory total and the run-size
// counters the evaluation normalizes by.
type wasteScenarioSink struct {
	*metrics.WastedMemorySink
}

func (s *wasteScenarioSink) Spec() string { return "waste" }

func (s *wasteScenarioSink) Metrics() []Metric {
	return []Metric{
		{Name: "wasted_seconds", Value: s.TotalWastedSeconds()},
		{Name: "apps", Value: float64(s.Apps())},
		{Name: "invocations", Value: float64(s.TotalInvocations())},
		{Name: "cold_starts", Value: float64(s.TotalColdStarts())},
	}
}

func (s *wasteScenarioSink) Merge(other Sink) error {
	o, ok := other.(*wasteScenarioSink)
	if !ok {
		return fmt.Errorf("scenario: cannot merge sink %q into %q", other.Spec(), s.Spec())
	}
	s.WastedMemorySink.Merge(o.WastedMemorySink)
	return nil
}

// attributionScenarioSink splits cluster cold starts into
// policy-induced vs eviction-induced. Cluster scenarios only.
type attributionScenarioSink struct {
	*metrics.ClusterAttributionSink
}

func (s *attributionScenarioSink) Spec() string { return "attribution" }

func (s *attributionScenarioSink) Metrics() []Metric {
	return []Metric{
		{Name: "evict_cold_pct", Value: s.EvictionColdPercent()},
		{Name: "evictions", Value: float64(s.Evictions())},
		{Name: "eviction_cold_starts", Value: float64(s.EvictionColdStarts())},
		{Name: "failure_cold_starts", Value: float64(s.FailureColdStarts())},
		{Name: "policy_cold_starts", Value: float64(s.PolicyColdStarts())},
	}
}

func (s *attributionScenarioSink) Merge(other Sink) error {
	o, ok := other.(*attributionScenarioSink)
	if !ok {
		return fmt.Errorf("scenario: cannot merge sink %q into %q", other.Spec(), s.Spec())
	}
	s.ClusterAttributionSink.Merge(o.ClusterAttributionSink)
	return nil
}

// utilScenarioSink reports mean cluster memory utilization from the
// per-node integrals. Cluster scenarios only.
type utilScenarioSink struct {
	residentMBSeconds float64
	capacityMBSeconds float64
}

func (s *utilScenarioSink) Spec() string { return "util" }

func (s *utilScenarioSink) ObserveCluster(r *cluster.Result) {
	for _, ns := range r.NodeStats {
		s.residentMBSeconds += ns.ResidentMBSeconds
	}
	if r.NodeMemMB > 0 {
		s.capacityMBSeconds += r.HorizonSeconds * r.NodeMemMB * float64(len(r.NodeStats))
	}
}

func (s *utilScenarioSink) Metrics() []Metric {
	pct := 0.0
	if s.capacityMBSeconds > 0 {
		pct = 100 * s.residentMBSeconds / s.capacityMBSeconds
	}
	return []Metric{{Name: "util_pct", Value: pct}}
}

func (s *utilScenarioSink) Merge(other Sink) error {
	o, ok := other.(*utilScenarioSink)
	if !ok {
		return fmt.Errorf("scenario: cannot merge sink %q into %q", other.Spec(), s.Spec())
	}
	s.residentMBSeconds += o.residentMBSeconds
	s.capacityMBSeconds += o.capacityMBSeconds
	return nil
}

// utilState is utilScenarioSink's wire form for process fan-out; the
// other builtin sinks inherit their codecs from the embedded metrics
// sinks.
type utilState struct {
	ResidentMBSeconds float64 `json:"resident_mb_seconds"`
	CapacityMBSeconds float64 `json:"capacity_mb_seconds"`
}

func (s *utilScenarioSink) MarshalState() ([]byte, error) {
	return json.Marshal(utilState{s.residentMBSeconds, s.capacityMBSeconds})
}

func (s *utilScenarioSink) UnmarshalState(data []byte) error {
	var st utilState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	*s = utilScenarioSink{residentMBSeconds: st.ResidentMBSeconds, capacityMBSeconds: st.CapacityMBSeconds}
	return nil
}

// buildColdStartSink builds "coldstart?q=50:75:99": the quantiles of
// the per-app cold-start percentage to report (default 50 and 75).
func buildColdStartSink(p *spec.Params) (Sink, error) {
	qs, err := p.Floats("q", []float64{50, 75})
	if err != nil {
		return nil, err
	}
	for _, q := range qs {
		if q < 0 || q > 100 {
			return nil, fmt.Errorf("parameter q: percentile %g out of [0, 100]", q)
		}
	}
	return &coldStartScenarioSink{ColdStartSink: metrics.NewColdStartSink(), quantiles: qs}, nil
}

// Interface conformance: the runner attaches sinks by capability.
var (
	_ sim.ResultSink  = (*coldStartScenarioSink)(nil)
	_ sim.ResultSink  = (*wasteScenarioSink)(nil)
	_ clusterSink     = (*attributionScenarioSink)(nil)
	_ clusterObserver = (*utilScenarioSink)(nil)
)
