package main

import (
	"bytes"
	"context"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TestDefaultScenario pins what a bare coldsim runs: the five-policy
// §5.2 line-up over the 400-app synthetic week.
func TestDefaultScenario(t *testing.T) {
	g, err := resolveGrid(defaultScenario)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	wantPolicies := []string{"nounload", "fixed?ka=10m", "fixed?ka=1h", "fixed?ka=2h", "hybrid"}
	if len(cells) != len(wantPolicies) {
		t.Fatalf("cells = %d, want %d", len(cells), len(wantPolicies))
	}
	for i, c := range cells {
		want := scenario.Scenario{
			Source: "gen:apps=400&days=7&seed=42&maxrate=2000&maxevents=20000",
			Policy: wantPolicies[i],
		}
		if c.String() != want.String() {
			t.Fatalf("cell %d = %q, want %q", i, c.String(), want.String())
		}
	}
}

// TestMissingBaselines pins the implicit-baseline injection the
// normalized wasted-memory column relies on.
func TestMissingBaselines(t *testing.T) {
	g, err := scenario.ParseGrid("source=gen:apps=10; policy=[nounload,hybrid]; cluster.nodes=2; cluster.mem=[0,1024]")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	extra := missingBaselines(cells)
	if len(extra) != 2 { // one per distinct cluster.mem group
		t.Fatalf("extra baselines = %d, want 2 (%v)", len(extra), extra)
	}
	for _, sc := range extra {
		if sc.Policy != baselineSpec {
			t.Fatalf("baseline policy = %q", sc.Policy)
		}
	}
	// A sweep that already includes the baseline gets no extras.
	g2, err := scenario.ParseGrid("source=gen:apps=10; policy=[fixed?ka=10m,hybrid]")
	if err != nil {
		t.Fatal(err)
	}
	cells2, err := g2.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if extra := missingBaselines(cells2); len(extra) != 0 {
		t.Fatalf("unexpected extra baselines: %v", extra)
	}
}

// TestRawFormatsWarnOnDefaultedMemory: a cluster cell without
// cluster.memcsv over a source with no memory data (a dataset CSV, a
// captured bundle, a shard of either) charges every app the default
// footprint, and the machine-readable formats must say so on stderr
// like the table does (stdout stays the bare report).
func TestRawFormatsWarnOnDefaultedMemory(t *testing.T) {
	tr := &trace.Trace{Duration: 10 * time.Minute, Apps: []*trace.App{
		{ID: "a", Owner: "o", Functions: []*trace.Function{{ID: "fa", Invocations: []float64{0, 200, 400}}}},
		{ID: "b", Owner: "o", Functions: []*trace.Function{{ID: "fb", Invocations: []float64{100, 300}}}},
	}}
	dir := t.TempDir()
	path := filepath.Join(dir, "inv.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteInvocationsCSV(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	epoch := time.Unix(0, 0).UTC()
	rec := serve.NewRecorder(epoch)
	rec.Record("a", "fa", epoch.Add(time.Minute))
	rec.Record("b", "fb", epoch.Add(2*time.Minute))
	bundle := filepath.Join(dir, "incident.bundle")
	if f, err = os.Create(bundle); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteBundle(f, "test", 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, source := range []string{"csv:" + path, "bundle:" + bundle, "shard:0/2 of csv:" + path} {
		g, err := scenario.ParseGrid("source=" + source + "; policy=fixed?ka=10m; cluster.nodes=1; cluster.mem=1024")
		if err != nil {
			t.Fatal(err)
		}
		cells, err := g.Scenarios()
		if err != nil {
			t.Fatal(err)
		}

		var logged, out bytes.Buffer
		log.SetOutput(&logged)
		err = runRaw(context.Background(), "csv", cells, scenario.RunSweep, &out)
		log.SetOutput(os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(logged.String(), "no cluster.memcsv table for "+source) {
			t.Errorf("%s: -format csv logged %q, want the no-memory-table warning", source, logged.String())
		}
		if !strings.HasPrefix(out.String(), "scenario,") || strings.Contains(out.String(), "warning") {
			t.Errorf("%s: stdout = %q, want the bare CSV report", source, out.String())
		}
	}
}
