package wild

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestIncidentCorpusInvariant runs every checked-in incident scenario
// (testdata/scenarios/*.json — the chaos-event corpus whose goldens
// TestDeterminismByReexecution diffs byte for byte) against the batch simulator and asserts the cold-start
// attribution identity app by app:
//
//	cluster cold starts = policy cold starts (sim)
//	                    + eviction-induced cold starts
//	                    + failure-induced cold starts
//
// The batch simulator sees the same trace with no cluster, so its
// count is exactly the policy's own decisions; everything above it
// must be attributed to capacity pressure or to a chaos event, with
// nothing lost and nothing double-counted. Fail/drain incidents must
// actually produce failure-induced cold starts (non-vacuity), and a
// resize-only incident must produce none (resize evictions are
// ordinary capacity evictions).
func TestIncidentCorpusInvariant(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("incident corpus has %d scenarios, want at least 4", len(files))
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			sc := readIncident(t, path)
			if sc.Cluster == nil || sc.Cluster.Events == "" {
				t.Fatalf("incident scenario %s carries no cluster.events", name)
			}
			tr := incidentTrace(t, sc.Source)
			events, err := cluster.ParseEvents(sc.Cluster.Events)
			if err != nil {
				t.Fatal(err)
			}
			place, err := cluster.NewPlacement(sc.Cluster.Placement)
			if err != nil {
				t.Fatal(err)
			}
			got := cluster.Simulate(tr, policy.MustFromSpec(sc.Policy), cluster.Config{
				Nodes:       sc.Cluster.Nodes,
				NodeMemMB:   sc.Cluster.NodeMemMB,
				Placement:   place,
				UseExecTime: sc.ExecTime,
				Events:      events,
			})
			want := sim.Simulate(tr, policy.MustFromSpec(sc.Policy),
				sim.WithExecTime(sc.ExecTime))

			if len(got.Apps) != len(want.Apps) {
				t.Fatalf("%d cluster apps, %d sim apps", len(got.Apps), len(want.Apps))
			}
			var failColds, evictColds int
			for i, w := range want.Apps {
				g := got.Apps[i]
				if g.AppID != w.AppID {
					t.Fatalf("app order diverged: %s vs %s", g.AppID, w.AppID)
				}
				if g.ColdStarts != w.ColdStarts+g.EvictionColdStarts+g.FailureColdStarts {
					t.Errorf("app %s: cluster cold=%d, sim cold=%d + eviction=%d + failure=%d",
						g.AppID, g.ColdStarts, w.ColdStarts, g.EvictionColdStarts, g.FailureColdStarts)
				}
				failColds += g.FailureColdStarts
				evictColds += g.EvictionColdStarts
			}
			hasFailOrDrain := strings.Contains(sc.Cluster.Events, "fail@") ||
				strings.Contains(sc.Cluster.Events, "drain@")
			if hasFailOrDrain && failColds == 0 {
				t.Errorf("fail/drain incident produced no failure-induced cold starts (vacuous)")
			}
			if !hasFailOrDrain && failColds != 0 {
				t.Errorf("incident without fail/drain produced %d failure-induced cold starts", failColds)
			}
			if evictColds == 0 {
				t.Errorf("incident produced no eviction-induced cold starts (not under pressure)")
			}
		})
	}
}

// incidentTrace materializes an incident scenario's generator source.
func incidentTrace(t *testing.T, spec string) *trace.Trace {
	t.Helper()
	f, err := scenario.NewSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	src, release, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	tr, err := trace.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestIncidentGoldensParse pins that the committed goldens are the
// JSON report format (one cell per incident) and carry the failure
// attribution metric — TestDeterminismByReexecution diffs them byte
// for byte, this keeps them structurally honest even when regenerated.
func TestIncidentGoldensParse(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(goldens) < 4 {
		t.Fatalf("%d goldens, want at least 4", len(goldens))
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var cells []struct {
			Scenario string `json:"scenario"`
			Metrics  []struct {
				Name  string  `json:"name"`
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(data, &cells); err != nil {
			t.Errorf("%s: not a JSON report: %v", path, err)
			continue
		}
		if len(cells) != 1 {
			t.Errorf("%s: %d cells, want 1", path, len(cells))
			continue
		}
		seen := false
		for _, m := range cells[0].Metrics {
			if m.Name == "failure_cold_starts" {
				seen = true
			}
		}
		if !seen {
			t.Errorf("%s: golden carries no failure_cold_starts metric", path)
		}
	}
}

// readIncident parses one incident scenario file: a 1-cell grid, no
// axes and no extra cells.
func readIncident(t *testing.T, path string) scenario.Scenario {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := scenario.ParseGrid(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Axes) != 0 || len(g.Cells) != 0 {
		t.Fatalf("%s is a grid of %d axes and %d cells, not one scenario", path, len(g.Axes), len(g.Cells))
	}
	return g.Base
}
