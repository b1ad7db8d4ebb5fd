package main

import (
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/scenario"
)

// The benchmark re-executes its own binary for set-up, measurement and
// process fan-out; under `go test` that binary is the test binary.
func TestMain(m *testing.M) {
	scenario.MaybeRunWorker()
	maybeRunChild()
	os.Exit(m.Run())
}

// TestSmoke runs every workload and the traced run at toy sizes and holds
// the output to BENCHMARK.json: every declared workload runs, every
// declared metric is emitted exactly once per run with a finite value and
// its declared unit, and nothing fails. An API change that breaks the
// benchmark fails here, in the PR that makes it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	o := options{seed: defaultSeed, seconds: 0.2, quick: true, tmpRoot: t.TempDir()}

	check := func(t *testing.T, rec *record, want []metricSpec) {
		t.Helper()
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("correct=%v failed=%d attempted=%d problems=%v", rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
		}
		if len(rec.Metrics) != len(want) {
			t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(rec.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := rec.Metrics[m.Name]
			switch {
			case !nameOK.MatchString(m.Name):
				t.Errorf("metric name %q is outside the contract's syntax", m.Name)
			case !ok:
				t.Errorf("metric %s not emitted", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("metric %s has unit %q, declared %q", m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("metric %s is %v", m.Name, got.Value)
			}
		}
	}

	for _, ws := range spec.Workloads {
		w := findWorkload(ws.Name)
		if w == nil || !nameOK.MatchString(ws.Name) {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark or misnamed", ws.Name)
			continue
		}
		t.Run(ws.Name, func(t *testing.T) {
			rec, err := runEndToEnd(w, o)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rec, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if rec.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, rec.Metrics[m.Name].Value)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		rec, err := runTraced(findWorkload("serve-wide"), o)
		if err != nil {
			t.Fatal(err)
		}
		check(t, rec, spec.PerLayer)
		if len(rec.Notes) != 5 {
			t.Errorf("want 5 reconciliation lines (4 batch workloads + serve-http), got %d", len(rec.Notes))
		}
	})
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, Python gives 3.5 24.0 160.0", q1, q2, q3)
	}
	if q1, _, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-point quartiles = %v %v, Python gives 0.75 2.25", q1, q3)
	}
}
