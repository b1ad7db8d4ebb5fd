package metrics

import (
	"encoding/json"
	"fmt"
)

// Sink state codecs: the complete merge state of each sink as JSON, so
// a sink drained in a worker process can be reconstituted in the
// parent and folded in with the exact same Merge a same-process shard
// run would use. Integers are exact in this encoding, and Go's JSON
// float formatting is shortest-round-trip, so state survives the
// process boundary bit-for-bit.

// coldStartState is ColdStartSink's wire form. Bins are sparse: a real
// distribution occupies a handful of the 10001 bins. The always-cold
// counters are omitted when zero.
type coldStartState struct {
	Bins       map[int]int64 `json:"bins,omitempty"`
	Count      int64         `json:"count"`
	AlwaysCold int64         `json:"always_cold,omitempty"`
	Single     int64         `json:"single,omitempty"`
}

// MarshalState returns the sink's complete merge state.
func (s *ColdStartSink) MarshalState() ([]byte, error) {
	st := coldStartState{Count: s.count, AlwaysCold: s.alwaysCold, Single: s.single}
	for b, n := range s.bins {
		if n != 0 {
			if st.Bins == nil {
				st.Bins = make(map[int]int64)
			}
			st.Bins[b] = n
		}
	}
	return json.Marshal(st)
}

// UnmarshalState replaces the sink's state with a marshaled one.
func (s *ColdStartSink) UnmarshalState(data []byte) error {
	var st coldStartState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	*s = ColdStartSink{count: st.Count, alwaysCold: st.AlwaysCold, single: st.Single}
	// Order-invariant: each entry writes its own fixed bin index.
	for b, n := range st.Bins {
		if b < 0 || b >= coldBins {
			return fmt.Errorf("metrics: cold-start state bin %d out of range", b)
		}
		s.bins[b] = n
	}
	return nil
}

type wastedMemoryState struct {
	WastedSeconds float64 `json:"wasted_seconds"`
	Invocations   int64   `json:"invocations"`
	ColdStarts    int64   `json:"cold_starts"`
	Apps          int64   `json:"apps"`
}

// MarshalState returns the sink's complete merge state.
func (s *WastedMemorySink) MarshalState() ([]byte, error) {
	return json.Marshal(wastedMemoryState{
		WastedSeconds: s.wastedSeconds,
		Invocations:   s.invocations,
		ColdStarts:    s.coldStarts,
		Apps:          s.apps,
	})
}

// UnmarshalState replaces the sink's state with a marshaled one.
func (s *WastedMemorySink) UnmarshalState(data []byte) error {
	var st wastedMemoryState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	*s = WastedMemorySink{
		wastedSeconds: st.WastedSeconds,
		invocations:   st.Invocations,
		coldStarts:    st.ColdStarts,
		apps:          st.Apps,
	}
	return nil
}

type clusterAttributionState struct {
	Apps          int64 `json:"apps"`
	Invocations   int64 `json:"invocations"`
	ColdStarts    int64 `json:"cold_starts"`
	EvictionColds int64 `json:"eviction_colds"`
	FailureColds  int64 `json:"failure_colds"`
	Evictions     int64 `json:"evictions"`
}

// MarshalState returns the sink's complete merge state.
func (s *ClusterAttributionSink) MarshalState() ([]byte, error) {
	return json.Marshal(clusterAttributionState{
		Apps:          s.apps,
		Invocations:   s.invocations,
		ColdStarts:    s.coldStarts,
		EvictionColds: s.evictionColds,
		FailureColds:  s.failureColds,
		Evictions:     s.evictions,
	})
}

// UnmarshalState replaces the sink's state with a marshaled one.
func (s *ClusterAttributionSink) UnmarshalState(data []byte) error {
	var st clusterAttributionState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	*s = ClusterAttributionSink{
		apps:          st.Apps,
		invocations:   st.Invocations,
		coldStarts:    st.ColdStarts,
		evictionColds: st.EvictionColds,
		failureColds:  st.FailureColds,
		evictions:     st.Evictions,
	}
	return nil
}
