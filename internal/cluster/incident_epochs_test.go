package cluster_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// TestIncidentCorpusAcrossEpochs runs every incident scenario of the
// repository's golden corpus (testdata/scenarios, all least-loaded, so
// all on the global path) with the stream built in 2, 7 and 64 epochs
// and requires each run bit-identical to the single-epoch run, which
// the determinism test pins to the goldens.
func TestIncidentCorpusAcrossEpochs(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.json"))
	if err != nil || len(files) < 4 {
		t.Fatalf("incident corpus: %d scenarios, err %v", len(files), err)
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			var sc struct {
				Source, Policy string
				ExecTime       bool
				Cluster        struct {
					Nodes         int
					Mem           float64
					Place, Events string
				}
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &sc); err != nil {
				t.Fatal(err)
			}
			f, err := scenario.NewSource(sc.Source)
			if err != nil {
				t.Fatal(err)
			}
			src, release, err := f.Open()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Collect(src)
			release()
			if err != nil {
				t.Fatal(err)
			}
			events, err := cluster.ParseEvents(sc.Cluster.Events)
			if err != nil {
				t.Fatal(err)
			}
			run := func(epochs int) *cluster.Result {
				place, err := cluster.NewPlacement(sc.Cluster.Place)
				if err != nil {
					t.Fatal(err)
				}
				cfg := cluster.Config{
					Nodes: sc.Cluster.Nodes, NodeMemMB: sc.Cluster.Mem, Placement: place,
					UseExecTime: sc.ExecTime, Events: events,
				}
				return cluster.Simulate(tr, policy.MustFromSpec(sc.Policy), cluster.WithEpochs(cfg, epochs))
			}
			want := run(1)
			if want.TotalEvictions() == 0 {
				t.Fatal("the incident shows no eviction pressure")
			}
			for _, n := range []int{2, 7, 64} {
				cluster.RequireResultsEqual(t, fmt.Sprintf("epochs=%d", n), run(n), want)
			}
		})
	}
}
