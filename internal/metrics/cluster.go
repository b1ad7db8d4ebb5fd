package metrics

import (
	"fmt"

	"repro/internal/cluster"
)

// Cluster sinks: the finite-memory engine's outcomes separated into
// the quantity the infinite-memory evaluation cannot express — cold
// starts the policy caused vs cold starts capacity caused. (How full
// each node ran is the scenario "util" sink.)

// ClusterAttributionSink incrementally splits cold starts by cause as
// cluster app outcomes stream past: eviction-induced (an
// infinite-memory run would have served the arrival warm),
// failure-induced (a chaos event killed or drained the container) vs
// policy-induced (the keep-alive window genuinely missed). The
// scenario runner feeds it a cluster run's per-app outcomes in trace
// order (the "attribution" sink).
type ClusterAttributionSink struct {
	apps          int64
	invocations   int64
	coldStarts    int64
	evictionColds int64
	failureColds  int64
	evictions     int64
}

// NewClusterAttributionSink returns an empty attribution sink.
func NewClusterAttributionSink() *ClusterAttributionSink { return &ClusterAttributionSink{} }

// Consume adds one app's cluster outcome.
func (s *ClusterAttributionSink) Consume(_ int, r cluster.AppResult) {
	s.apps++
	s.invocations += int64(r.Invocations)
	s.coldStarts += int64(r.ColdStarts)
	s.evictionColds += int64(r.EvictionColdStarts)
	s.failureColds += int64(r.FailureColdStarts)
	s.evictions += int64(r.Evictions)
}

// EvictionColdStarts returns the capacity-attributed cold starts.
func (s *ClusterAttributionSink) EvictionColdStarts() int64 { return s.evictionColds }

// FailureColdStarts returns the cold starts attributed to cluster
// events (node failures and drains).
func (s *ClusterAttributionSink) FailureColdStarts() int64 { return s.failureColds }

// PolicyColdStarts returns the cold starts the policy itself caused —
// exactly the count the infinite-memory simulator reports.
func (s *ClusterAttributionSink) PolicyColdStarts() int64 {
	return s.coldStarts - s.evictionColds - s.failureColds
}

// Evictions returns the container evictions observed.
func (s *ClusterAttributionSink) Evictions() int64 { return s.evictions }

// EvictionColdPercent returns eviction-induced cold starts as a
// percentage of all invocations.
func (s *ClusterAttributionSink) EvictionColdPercent() float64 {
	if s.invocations == 0 {
		return 0
	}
	return 100 * float64(s.evictionColds) / float64(s.invocations)
}

// Merge folds other's counters into s (shard/run aggregation; all
// counters are integers, so merging is exact).
func (s *ClusterAttributionSink) Merge(other *ClusterAttributionSink) {
	s.apps += other.apps
	s.invocations += other.invocations
	s.coldStarts += other.coldStarts
	s.evictionColds += other.evictionColds
	s.failureColds += other.failureColds
	s.evictions += other.evictions
}

// String renders the attribution for reports.
func (s *ClusterAttributionSink) String() string {
	return fmt.Sprintf("cold=%d (policy=%d, eviction=%d, failure=%d) evictions=%d",
		s.coldStarts, s.PolicyColdStarts(), s.evictionColds, s.failureColds, s.evictions)
}
