package scenario

import (
	"context"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestMain lets the test binary serve as its own fan-out worker:
// RunSweepProcs re-execs os.Executable, which under `go test` is this
// binary, and MaybeRunWorker intercepts the spawn before any test
// runs.
func TestMain(m *testing.M) {
	MaybeRunWorker()
	os.Exit(m.Run())
}

// procCells is the sweep the fan-out equivalence property runs over:
// batch and cluster cells, fanned-out and unsharded, default and
// custom sinks, both placements that matter (oblivious and
// view-dependent).
func procCells() []Scenario {
	return []Scenario{
		{
			Source: "gen:apps=40&days=2&seed=5&maxrate=2000&maxevents=4000",
			Policy: "hybrid",
			Shard:  "*/3",
		},
		{
			Source: "gen:apps=36&days=2&seed=9&maxrate=2000&maxevents=4000",
			Policy: "fixed?ka=10m",
			Cluster: &ClusterSpec{
				Nodes: 4, NodeMemMB: 1024,
			},
			ExecTime: true,
			Shard:    "*/2",
		},
		{
			Source: "gen:apps=24&days=1&seed=3&maxrate=2000&maxevents=4000",
			Policy: "hybrid?range=4h",
			Sinks:  []string{"coldstart?q=50:90:99", "waste"},
		},
		{
			Source: "gen:apps=30&days=1&seed=12&maxrate=2000&maxevents=4000",
			Policy: "fixed?ka=1h",
			Cluster: &ClusterSpec{
				Nodes: 3, NodeMemMB: 2048, Placement: "binpack",
			},
		},
	}
}

// requireReportsEqual compares two sweep reports bit-for-bit: policy
// names, every metric value (Float64bits), per-node aggregates, and
// memory-defaulted counts.
func requireReportsEqual(t *testing.T, got, want *SweepReport) {
	t.Helper()
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("%d cells, want %d", len(got.Cells), len(want.Cells))
	}
	for ci, wc := range want.Cells {
		gc := got.Cells[ci]
		if gc.PolicyName != wc.PolicyName {
			t.Errorf("cell %d: policy %q, want %q", ci, gc.PolicyName, wc.PolicyName)
		}
		if gc.MemDefaulted != wc.MemDefaulted {
			t.Errorf("cell %d: defaulted %d, want %d", ci, gc.MemDefaulted, wc.MemDefaulted)
		}
		gm, wm := gc.Metrics(), wc.Metrics()
		if len(gm) != len(wm) {
			t.Fatalf("cell %d: %d metrics, want %d", ci, len(gm), len(wm))
		}
		for mi, w := range wm {
			g := gm[mi]
			if g.Name != w.Name || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
				t.Errorf("cell %d metric %s: %v, want %s=%v", ci, g.Name, g.Value, w.Name, w.Value)
			}
		}
		if len(gc.Nodes) != len(wc.Nodes) {
			t.Fatalf("cell %d: %d node summaries, want %d", ci, len(gc.Nodes), len(wc.Nodes))
		}
		for ni, wn := range wc.Nodes {
			gn := gc.Nodes[ni]
			if gn != wn {
				t.Errorf("cell %d node %d: %+v, want %+v", ci, ni, gn, wn)
			}
		}
	}
}

// TestRunSweepProcsMatchesInProcess is the fan-out contract: a sweep
// split across worker processes produces bit-identical results to the
// same sweep in-process. Sink states cross the pipe as integers and
// shortest-round-trip floats, and merge order is shard order in both
// paths, so not even float summation order differs.
func TestRunSweepProcsMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cells := procCells()
	want, err := RunSweep(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSweepProcs(context.Background(), cells, 3)
	if err != nil {
		t.Fatal(err)
	}
	requireReportsEqual(t, got, want)
}

// TestRunSweepProcsRejectsFixedTrace pins the serializability
// boundary: an in-memory trace cannot cross to workers.
func TestRunSweepProcsRejectsFixedTrace(t *testing.T) {
	cells := []Scenario{{Source: "gen:apps=5&days=1", Policy: "hybrid"}}
	tr := &trace.Trace{Duration: time.Hour}
	if _, err := RunSweepProcs(context.Background(), cells, 1, WithFixedTrace(tr)); err == nil {
		t.Fatal("RunSweepProcs accepted WithFixedTrace")
	}
}

// TestRunSweepProcsBadCell pins fail-fast validation: a typo'd cell
// fails before any worker spawns, with the cell identified.
func TestRunSweepProcsBadCell(t *testing.T) {
	cells := []Scenario{
		{Source: "gen:apps=5&days=1", Policy: "hybrid"},
		{Source: "gen:apps=5&days=1", Policy: "no-such-policy"},
	}
	_, err := RunSweepProcs(context.Background(), cells, 1)
	if err == nil {
		t.Fatal("bad policy accepted")
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Index != 1 {
		t.Fatalf("want CellError for cell 1, got %v", err)
	}
}

// TestEverySinkStateRoundTrips holds the codec half of the Sink
// interface registry-wide: after consuming a small cluster run (the
// one run kind every sink accepts), each registered sink's
// MarshalState, fed to a fresh sink of the same spec, must reproduce
// its Metrics exactly — what RunSweepProcs relies on per worker.
func TestEverySinkStateRoundTrips(t *testing.T) {
	names := sinkReg.Names()
	sc := mustParse(t, "source="+smallGen+"; policy=fixed?ka=10m; cluster.nodes=2; cluster.mem=400")
	sc.Sinks = names
	cell, err := RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.Sinks) != len(names) || len(names) < 4 {
		t.Fatalf("ran %d sinks for %d registered names (4 are built in)", len(cell.Sinks), len(names))
	}
	for _, cs := range cell.Sinks {
		state, err := cs.Sink.MarshalState()
		if err != nil {
			t.Fatalf("%s: MarshalState: %v", cs.Spec, err)
		}
		fresh, err := NewSink(cs.Sink.Spec())
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.UnmarshalState(state); err != nil {
			t.Fatalf("%s: UnmarshalState: %v", cs.Spec, err)
		}
		want, got := cs.Sink.Metrics(), fresh.Metrics()
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: metrics after the round trip\n got %v\nwant %v", cs.Spec, got, want)
		}
		fed := false
		for _, m := range want {
			fed = fed || m.Value != 0
		}
		if !fed {
			t.Errorf("%s: every metric is zero before the round trip; the run fed it nothing", cs.Spec)
		}
	}
}
