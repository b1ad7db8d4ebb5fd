package wild

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_sim.json from the current implementation")

// goldenApp pins one AppResult exactly. WastedSeconds is stored as the
// raw IEEE-754 bit pattern so the comparison is byte-identical, not
// merely within a tolerance.
type goldenApp struct {
	ID         string               `json:"id"`
	Inv        int                  `json:"inv"`
	Cold       int                  `json:"cold"`
	WastedBits uint64               `json:"wastedBits"`
	Modes      [policy.NumModes]int `json:"modes"`
}

type goldenScenario struct {
	Name        string      `json:"name"`
	Policy      string      `json:"policy"`
	HorizonBits uint64      `json:"horizonBits"`
	Apps        []goldenApp `json:"apps"`
}

type goldenFile struct {
	Scenarios []goldenScenario `json:"scenarios"`
}

// goldenPopulation is a fixed seeded workload, small enough to keep the
// test fast but broad enough to exercise every policy regime (standard
// fallback, histogram windows, and the ARIMA out-of-bounds path).
func goldenPopulation(t *testing.T) *workload.Population {
	t.Helper()
	pop, err := workload.Generate(workload.Config{
		Seed: 7, NumApps: 150, Duration: 36 * time.Hour,
		MaxDailyRate: 800, MaxEventsPerFunction: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// goldenCase is one pinned simulation of the golden population.
type goldenCase struct {
	name string
	pol  policy.Policy
	exec bool
}

func goldenScenarios() []goldenCase {
	smallHist := policy.DefaultHybridConfig()
	smallHist.Histogram.NumBins = 60
	smallHist.DisablePreWarm = true
	// A 10-bin histogram drives most idle times out of bounds (heavy
	// ARIMA traffic) and parks the bin-count CV exactly on the paper's
	// threshold of 2 for common count patterns, pinning the regime
	// boundary behavior.
	tinyHist := policy.DefaultHybridConfig()
	tinyHist.Histogram.NumBins = 10
	return []goldenCase{
		{"fixed-10m", policy.FixedKeepAlive{KeepAlive: 10 * time.Minute}, false},
		{"no-unloading", policy.NoUnloading{}, false},
		{"hybrid-default", policy.NewHybrid(policy.DefaultHybridConfig()), false},
		{"hybrid-exectime", policy.NewHybrid(policy.DefaultHybridConfig()), true},
		{"hybrid-1h-nopw-exectime", policy.NewHybrid(smallHist), true},
		{"hybrid-10m-range", policy.NewHybrid(tinyHist), false},
	}
}

func captureScenario(name string, tr *trace.Trace, pol policy.Policy, exec bool) goldenScenario {
	res := sim.Simulate(tr, pol, sim.WithExecTime(exec))
	sc := goldenScenario{
		Name:        name,
		Policy:      res.Policy,
		HorizonBits: math.Float64bits(res.HorizonSeconds),
	}
	for _, a := range res.Apps {
		sc.Apps = append(sc.Apps, goldenApp{
			ID:         a.AppID,
			Inv:        a.Invocations,
			Cold:       a.ColdStarts,
			WastedBits: math.Float64bits(a.WastedSeconds),
			Modes:      a.ModeCounts,
		})
	}
	return sc
}

// TestSimulateGolden proves the simulator's Result values (cold starts,
// wasted seconds, per-app mode counts) are byte-identical to the
// pre-optimization implementation, for the fixed keep-alive policy and
// the hybrid policy in several configurations. The golden file was
// generated from the seed implementation; regenerate it only with an
// intentional semantic change (go test -run Golden -update-golden).
func TestSimulateGolden(t *testing.T) {
	pop := goldenPopulation(t)
	var got goldenFile
	for _, sc := range goldenScenarios() {
		got.Scenarios = append(got.Scenarios, captureScenario(sc.name, pop.Trace, sc.pol, sc.exec))
	}

	path := filepath.Join("testdata", "golden_sim.json")
	if *updateGolden {
		data, err := json.MarshalIndent(&got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d scenarios)", path, len(got.Scenarios))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Scenarios) != len(got.Scenarios) {
		t.Fatalf("scenario count: got %d want %d", len(got.Scenarios), len(want.Scenarios))
	}
	for i, w := range want.Scenarios {
		g := got.Scenarios[i]
		if g.Name != w.Name || g.Policy != w.Policy {
			t.Errorf("scenario %d: got %s/%s want %s/%s", i, g.Name, g.Policy, w.Name, w.Policy)
			continue
		}
		if g.HorizonBits != w.HorizonBits {
			t.Errorf("%s: horizon bits differ", w.Name)
		}
		if len(g.Apps) != len(w.Apps) {
			t.Errorf("%s: app count %d want %d", w.Name, len(g.Apps), len(w.Apps))
			continue
		}
		mismatches := 0
		for j := range w.Apps {
			if g.Apps[j] != w.Apps[j] {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("%s app %s: got %+v want %+v", w.Name, w.Apps[j].ID, g.Apps[j], w.Apps[j])
				}
			}
		}
		if mismatches > 5 {
			t.Errorf("%s: %d further app mismatches suppressed", w.Name, mismatches-5)
		}
	}
}
