package wild

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestEndToEndSimulation runs the batch pipeline end to end: generate,
// simulate two policies, compare metrics.
func TestEndToEndSimulation(t *testing.T) {
	pop, err := Generate(WorkloadConfig{
		Seed: 5, NumApps: 120, Duration: 48 * time.Hour,
		MaxDailyRate: 1000, MaxEventsPerFunction: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.Trace.Validate(); err != nil {
		t.Fatal(err)
	}

	run := func(spec string) (*ColdStartSink, *WastedMemorySink) {
		cold, wasted := NewColdStartSink(), NewWastedMemorySink()
		if _, err := Run(context.Background(), SourceFromTrace(pop.Trace), MustFromSpec(spec),
			WithSink(cold), WithSink(wasted)); err != nil {
			t.Fatal(err)
		}
		return cold, wasted
	}
	fixedCold, fixedWasted := run("fixed?ka=10m")
	hybridCold, hybridWasted := run("hybrid")
	if fixedWasted.TotalInvocations() != hybridWasted.TotalInvocations() {
		t.Fatal("policies saw different invocation counts")
	}
	fq, hq := fixedCold.ThirdQuartile(), hybridCold.ThirdQuartile()
	if hq >= fq {
		t.Fatalf("hybrid Q3 %.1f should beat fixed %.1f", hq, fq)
	}
	if nm := hybridWasted.NormalizedTo(fixedWasted.TotalWastedSeconds()); nm <= 0 || nm > 200 {
		t.Fatalf("normalized memory = %v", nm)
	}
}

// collectCSV reads a whole invocations table the way binaries do:
// trace.Collect over the stream reader.
func collectCSV(r io.Reader) (*trace.Trace, error) {
	src, err := trace.StreamInvocationsCSV(r)
	if err != nil {
		return nil, err
	}
	return trace.Collect(src)
}

// totals sums a batch result's invocations and cold starts over its
// apps.
func totals(r *SimResult) (invocations, coldStarts int) {
	for _, a := range r.Apps {
		invocations += a.Invocations
		coldStarts += a.ColdStarts
	}
	return invocations, coldStarts
}

// TestEndToEndCSVRoundTrip writes and re-reads a trace through the
// dataset CSV codec and re-simulates; minute-binned cold starts for the fixed
// policy must be close (binning loses only sub-minute detail).
func TestEndToEndCSVRoundTrip(t *testing.T) {
	pop, err := Generate(WorkloadConfig{
		Seed: 6, NumApps: 40, Duration: 6 * time.Hour,
		MaxDailyRate: 500, MaxEventsPerFunction: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteInvocationsCSV(&buf, pop.Trace); err != nil {
		t.Fatal(err)
	}
	back, err := collectCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalInvocations() != pop.Trace.TotalInvocations() {
		t.Fatal("invocation count changed in round trip")
	}
	orig := sim.Simulate(pop.Trace, policy.FixedKeepAlive{KeepAlive: 30 * time.Minute}, sim.Options{})
	rt := sim.Simulate(back, policy.FixedKeepAlive{KeepAlive: 30 * time.Minute}, sim.Options{})
	_, oc := totals(orig)
	_, rc := totals(rt)
	diff := oc - rc
	if diff < 0 {
		diff = -diff
	}
	// Sub-minute reshuffling can flip a handful of boundary cases.
	if float64(diff) > 0.05*float64(oc)+5 {
		t.Fatalf("cold starts drifted: %d vs %d", oc, rc)
	}
}

// TestEndToEndPlatform runs a tiny platform replay through the facade.
func TestEndToEndPlatform(t *testing.T) {
	pop, err := Generate(WorkloadConfig{
		Seed: 7, NumApps: 30, Duration: time.Hour,
		MaxDailyRate: 300, MaxEventsPerFunction: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayContext(context.Background(), PlatformConfig{NumInvokers: 2},
		MustFromSpec("hybrid"), pop.Trace, ReplayOptions{Limit: 20 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invocations == 0 {
		t.Fatal("no invocations replayed")
	}
	if len(rep.Apps) == 0 {
		t.Fatal("no app outcomes")
	}
}

// TestRunExperimentsFacade regenerates the simulation figures on a
// tiny population, the way cmd/experiments does.
func TestRunExperimentsFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure pipeline")
	}
	figs, err := experiments.RunAll(context.Background(), experiments.Config{
		Seed: 8, NumApps: 60, Duration: 24 * time.Hour,
		MaxDailyRate: 300, MaxEventsPerFunction: 1000,
		SkipPlatform: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 17 {
		t.Fatalf("figures = %d, want 17", len(figs))
	}
	var buf bytes.Buffer
	experiments.RenderAll(figs, &buf)
	if buf.Len() == 0 {
		t.Fatal("empty rendering")
	}
}

// TestEndToEndStreamingAPI exercises the streaming surface: registry
// specs, generator sources, shards, and streaming sinks.
func TestEndToEndStreamingAPI(t *testing.T) {
	cfg := WorkloadConfig{
		Seed: 9, NumApps: 40, Duration: 12 * time.Hour,
		MaxDailyRate: 300, MaxEventsPerFunction: 500,
	}
	pop, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.FromSpec("hybrid?range=1h")
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Simulate(pop.Trace, pol, sim.Options{})

	// Generator source, no sinks: identical to batch Simulate.
	src, err := workload.NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), src, MustFromSpec("hybrid?range=1h"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Apps) != len(want.Apps) {
		t.Fatalf("apps %d vs %d", len(got.Apps), len(want.Apps))
	}
	for i := range want.Apps {
		if got.Apps[i] != want.Apps[i] {
			t.Fatalf("app %d differs between generator-source Run and Simulate", i)
		}
	}

	// Sharded sinks: totals over all shards must equal the whole.
	const n = 3
	var wastedTotal float64
	var appTotal int64
	for i := 0; i < n; i++ {
		wasted := NewWastedMemorySink()
		shardSrc, err := workload.NewSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), trace.Shard(shardSrc, i, n),
			MustFromSpec("hybrid?range=1h"), WithSink(wasted)); err != nil {
			t.Fatal(err)
		}
		wastedTotal += wasted.TotalWastedSeconds()
		appTotal += wasted.Apps()
	}
	if appTotal != int64(len(want.Apps)) {
		t.Fatalf("shards covered %d apps, want %d", appTotal, len(want.Apps))
	}
	wantWasted := want.TotalWastedSeconds()
	if diff := wastedTotal - wantWasted; diff > 1e-6*wantWasted || diff < -1e-6*wantWasted {
		t.Fatalf("sharded wasted %v, whole %v", wastedTotal, wantWasted)
	}
}
