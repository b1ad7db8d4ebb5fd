package wild

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestProducersEmitAscendingLists pins the precondition of
// trace.App.InvocationTimes, which merges an app's function lists
// without re-sorting them: every in-tree producer emits each function's
// invocation list ascending within [0, horizon].
func TestProducersEmitAscendingLists(t *testing.T) {
	calibrated := workload.Config{Seed: 21, NumApps: 60, Duration: 6 * time.Hour,
		MaxDailyRate: 5000, MaxEventsPerFunction: 3000}
	diurnal := workload.Config{Seed: 22, NumApps: 20, Duration: 3 * time.Hour,
		MaxDailyRate: 20000, MaxEventsPerFunction: 6000, Mode: workload.ModeDiurnal, RPS0: 1, RPS1: 6}
	pop, err := workload.Generate(calibrated)
	if err != nil {
		t.Fatal(err)
	}
	var csvBytes, binBytes bytes.Buffer
	if err := trace.WriteInvocationsCSV(&csvBytes, pop.Trace); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(&binBytes, pop.Trace); err != nil {
		t.Fatal(err)
	}

	// The recorder sees events out of time order, as concurrent
	// callers deliver them.
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	rec := serve.NewRecorder(epoch)
	rng := rand.New(rand.NewPCG(23, 0))
	for range 5000 {
		app := []string{"a", "b", "c"}[rng.IntN(3)]
		fn := app + []string{"-f1", "-f2"}[rng.IntN(2)]
		rec.Record(app, fn, epoch.Add(time.Duration(rng.Int64N(int64(90*time.Minute)))))
	}
	var bundle bytes.Buffer
	if err := rec.WriteBundle(&bundle, "producers", 0); err != nil {
		t.Fatal(err)
	}

	producers := []struct {
		name string
		open func() (trace.Source, error)
	}{
		{"gen", func() (trace.Source, error) { return workload.NewSource(calibrated) }},
		{"gen diurnal", func() (trace.Source, error) { return workload.NewSource(diurnal) }},
		{"csv stream", func() (trace.Source, error) {
			return trace.StreamInvocationsCSV(bytes.NewReader(csvBytes.Bytes()))
		}},
		{"csv batch", func() (trace.Source, error) {
			tr, err := trace.ReadInvocationsCSV(bytes.NewReader(csvBytes.Bytes()))
			return trace.NewTraceSource(tr), err
		}},
		{"WILDTRC1", func() (trace.Source, error) {
			return trace.NewBinarySource(bytes.NewReader(binBytes.Bytes()))
		}},
		{"serve recorder", func() (trace.Source, error) { return trace.NewTraceSource(rec.Trace(0)), nil }},
		{"incident bundle", func() (trace.Source, error) {
			_, src, err := serve.StreamBundle(bytes.NewReader(bundle.Bytes()))
			return src, err
		}},
	}
	for _, p := range producers {
		t.Run(p.name, func(t *testing.T) {
			src, err := p.open()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Collect(src)
			if err != nil {
				t.Fatal(err)
			}
			if tr.TotalInvocations() == 0 {
				t.Fatal("no invocations")
			}
			horizon := tr.Duration.Seconds()
			for _, app := range tr.Apps {
				for _, fn := range app.Functions {
					for i, ts := range fn.Invocations {
						if !(ts >= 0 && ts <= horizon) || i > 0 && ts < fn.Invocations[i-1] {
							t.Fatalf("app %s fn %s: invocation %d at %v breaks ascending order within [0, %v]",
								app.ID, fn.ID, i, ts, horizon)
						}
					}
				}
			}
		})
	}
}
