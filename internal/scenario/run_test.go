package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallGen is a fast deterministic source shared by the run tests.
const smallGen = "gen:apps=40&days=1&seed=3&maxrate=300&maxevents=800"

func metricsOf(t *testing.T, c *CellResult) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, m := range c.Metrics() {
		out[m.Name] = m.Value
	}
	return out
}

// TestRunSweepMatchesSequential is the sweep engine's core property:
// RunSweep over an expanded grid is bit-identical to running each
// expanded scenario sequentially through RunScenario — batch cells,
// cluster cells, and sharded cells (both a single shard and a
// fanned-out "*/3" cell whose per-shard sinks merge via the exact
// sink Merges).
func TestRunSweepMatchesSequential(t *testing.T) {
	g, err := ParseGrid("source=" + smallGen + "; policy=[fixed?ka=10m,fixed?ka=1h,hybrid?arima=off]")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	extra := []string{
		// Cluster cells: infinite and tight memory.
		"source=" + smallGen + "; policy=fixed?ka=10m; cluster.nodes=2",
		"source=" + smallGen + "; policy=fixed?ka=10m; cluster.nodes=2; cluster.mem=400; cluster.place=least-loaded",
		// Sharded cells: one shard, and the full fan-out merge.
		"source=" + smallGen + "; policy=fixed?ka=10m; shard=1/3",
		"source=" + smallGen + "; policy=fixed?ka=10m; shard=*/3",
		// A sharded cluster cell (each shard simulates its own cluster).
		"source=" + smallGen + "; policy=fixed?ka=10m; cluster.nodes=2; cluster.mem=400; shard=*/2",
	}
	for _, s := range extra {
		sc, err := ParseScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, sc)
	}

	ctx := context.Background()
	sweep, err := RunSweep(ctx, cells, WithSweepWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Cells) != len(cells) {
		t.Fatalf("sweep cells = %d, want %d", len(sweep.Cells), len(cells))
	}
	for i, sc := range cells {
		seq, err := RunScenario(ctx, sc)
		if err != nil {
			t.Fatalf("sequential cell %d (%s): %v", i, sc, err)
		}
		got, want := metricsOf(t, sweep.Cells[i]), metricsOf(t, seq)
		if len(got) != len(want) {
			t.Fatalf("cell %d (%s): metric sets differ: %v vs %v", i, sc, got, want)
		}
		for name, w := range want {
			if gv, ok := got[name]; !ok || gv != w {
				t.Errorf("cell %d (%s): metric %s = %v (sweep) != %v (sequential)",
					i, sc, name, gv, w)
			}
		}
		if sweep.Cells[i].PolicyName != seq.PolicyName {
			t.Errorf("cell %d: policy name %q != %q", i, sweep.Cells[i].PolicyName, seq.PolicyName)
		}
	}
}

// TestScenarioMatchesDirectRun pins the scenario path against the
// underlying engines driven by hand: same sinks, same numbers.
func TestScenarioMatchesDirectRun(t *testing.T) {
	ctx := context.Background()
	sc, err := ParseScenario("source=" + smallGen + "; policy=fixed?ka=10m")
	if err != nil {
		t.Fatal(err)
	}
	cell, err := RunScenario(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}

	pop, err := workload.Generate(workload.Config{
		Seed: 3, NumApps: 40, Duration: 24 * time.Hour,
		MaxDailyRate: 300, MaxEventsPerFunction: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := metrics.NewColdStartSink()
	wasted := metrics.NewWastedMemorySink()
	if _, err := sim.Run(ctx, trace.NewTraceSource(pop.Trace), policy.MustFromSpec("fixed?ka=10m"),
		sim.WithSink(cold), sim.WithSink(wasted)); err != nil {
		t.Fatal(err)
	}
	got := metricsOf(t, cell)
	if got["cold_p75"] != cold.ThirdQuartile() {
		t.Errorf("cold_p75 = %v, direct run %v", got["cold_p75"], cold.ThirdQuartile())
	}
	if got["cold_p50"] != cold.Quantile(50) {
		t.Errorf("cold_p50 = %v, direct run %v", got["cold_p50"], cold.Quantile(50))
	}
	if got["wasted_seconds"] != wasted.TotalWastedSeconds() {
		t.Errorf("wasted_seconds = %v, direct run %v", got["wasted_seconds"], wasted.TotalWastedSeconds())
	}
	if got["invocations"] != float64(wasted.TotalInvocations()) {
		t.Errorf("invocations = %v, direct run %v", got["invocations"], wasted.TotalInvocations())
	}
}

// TestShardFanOutMergesToWhole pins that a "*/n" cell reproduces the
// unsharded cell: exactly for the binned cold-start distribution and
// integer counters, and up to float summation order for the waste
// total.
func TestShardFanOutMergesToWhole(t *testing.T) {
	ctx := context.Background()
	base := "source=" + smallGen + "; policy=fixed?ka=10m"
	whole, err := RunScenario(ctx, mustParse(t, base))
	if err != nil {
		t.Fatal(err)
	}
	fanned, err := RunScenario(ctx, mustParse(t, base+"; shard=*/4"))
	if err != nil {
		t.Fatal(err)
	}
	gw, gf := metricsOf(t, whole), metricsOf(t, fanned)
	for _, exact := range []string{"cold_p50", "cold_p75", "apps", "invocations", "cold_starts"} {
		if gw[exact] != gf[exact] {
			t.Errorf("%s: whole %v != fanned %v", exact, gw[exact], gf[exact])
		}
	}
	if w, f := gw["wasted_seconds"], gf["wasted_seconds"]; math.Abs(w-f) > 1e-9*math.Abs(w) {
		t.Errorf("wasted_seconds: whole %v vs fanned %v beyond float association", w, f)
	}
}

// TestFixedTraceOverridesSource pins WithFixedTrace: sourceless cells
// run over the supplied trace.
func TestFixedTraceOverridesSource(t *testing.T) {
	pop, err := workload.Generate(workload.Config{
		Seed: 3, NumApps: 40, Duration: 24 * time.Hour,
		MaxDailyRate: 300, MaxEventsPerFunction: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	cell, err := RunScenario(context.Background(),
		mustParse(t, "policy=fixed?ka=10m"), WithFixedTrace(pop.Trace))
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := RunScenario(context.Background(), mustParse(t, "source="+smallGen+"; policy=fixed?ka=10m"))
	if err != nil {
		t.Fatal(err)
	}
	got, want := metricsOf(t, cell), metricsOf(t, viaSpec)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("metric %s = %v, want %v", name, got[name], w)
		}
	}

	// Without a fixed trace, a sourceless scenario errors.
	if _, err := RunScenario(context.Background(), mustParse(t, "policy=hybrid")); err == nil ||
		!strings.Contains(err.Error(), "missing source") {
		t.Fatalf("sourceless run err = %v, want missing source", err)
	}
}

// TestRunScenarioErrors pins the runner's fail-fast surface: bad
// component specs and cluster-only sinks on batch cells.
func TestRunScenarioErrors(t *testing.T) {
	ctx := context.Background()
	cases := []struct{ spec, wantSub string }{
		{"source=" + smallGen, "missing policy"},
		{"source=" + smallGen + "; policy=warmforever", "unknown policy"},
		{"source=" + smallGen + "; policy=hybrid; sinks=attribution", "requires a cluster scenario"},
		{"source=" + smallGen + "; policy=hybrid; sinks=util", "requires a cluster scenario"},
		{"source=" + smallGen + "; policy=hybrid; sinks=nosuch", `unknown sink "nosuch"`},
		{"source=" + smallGen + "; policy=hybrid; cluster.nodes=2; cluster.place=spread", `unknown placement "spread"`},
		{"source=" + smallGen + "; policy=hybrid; cluster.nodes=2; cluster.place=binpack?order=alpha", "parameter order"},
		{"source=csv:/does/not/exist.csv; policy=hybrid", "no such file"},
		{"source=csv:x.csv; policy=hybrid; seed=7", "not seedable"},
	}
	for _, c := range cases {
		_, err := RunScenario(ctx, mustParse(t, c.spec))
		if err == nil {
			t.Errorf("scenario %q: no error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("scenario %q: error %q missing %q", c.spec, err, c.wantSub)
		}
	}
}

// TestSeedOverride pins that Scenario.Seed re-seeds generator sources
// (including through a shard wrapper) and matches the explicit spec.
func TestSeedOverride(t *testing.T) {
	ctx := context.Background()
	overridden, err := RunScenario(ctx, mustParse(t,
		"source=gen:apps=40&days=1&seed=3&maxrate=300&maxevents=800; policy=fixed?ka=10m; seed=9"))
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := RunScenario(ctx, mustParse(t,
		"source=gen:apps=40&days=1&seed=9&maxrate=300&maxevents=800; policy=fixed?ka=10m"))
	if err != nil {
		t.Fatal(err)
	}
	got, want := metricsOf(t, overridden), metricsOf(t, explicit)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("metric %s = %v, want %v", name, got[name], w)
		}
	}
}

// TestSweepReportRender smoke-tests the CSV and JSON renderings.
func TestSweepReportRender(t *testing.T) {
	cells, err := Grid{
		Base: mustParse(t, "source="+smallGen),
		Axes: []Axis{{Key: "policy", Values: []string{"fixed?ka=10m", "nounload"}}},
	}.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunSweep(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, jsonBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 cells:\n%s", len(lines), csvBuf.String())
	}
	if !strings.HasPrefix(lines[0], "scenario,policy,cold_p50,cold_p75,wasted_seconds") {
		t.Fatalf("csv header = %q", lines[0])
	}
	if !strings.Contains(jsonBuf.String(), `"cold_p75"`) {
		t.Fatalf("json missing metrics: %s", jsonBuf.String())
	}
}

func mustParse(t *testing.T, s string) Scenario {
	t.Helper()
	sc, err := ParseScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestClusterCellNodeSummaries: cluster cells expose per-node
// aggregates (evictions, failed loads, peak/mean resident MB); batch
// cells carry none; a fanned-out shard cluster cell merges the
// per-shard node rows element-wise (counters add, peaks max).
func TestClusterCellNodeSummaries(t *testing.T) {
	ctx := context.Background()

	batch, err := RunScenario(ctx, mustParse(t, "source="+smallGen+"; policy=fixed?ka=10m"))
	if err != nil {
		t.Fatal(err)
	}
	if batch.Nodes != nil {
		t.Fatalf("batch cell carries node summaries: %+v", batch.Nodes)
	}

	cl, err := RunScenario(ctx, mustParse(t,
		"source="+smallGen+"; policy=fixed?ka=1h; cluster.nodes=3; cluster.mem=300"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Nodes) != 3 {
		t.Fatalf("cluster cell node summaries = %d, want 3", len(cl.Nodes))
	}
	totalEv := 0
	for n, ns := range cl.Nodes {
		if ns.Node != n {
			t.Errorf("node summary %d labeled %d", n, ns.Node)
		}
		if ns.PeakResidentMB < ns.MeanResidentMB {
			t.Errorf("node %d: peak %v below mean %v", n, ns.PeakResidentMB, ns.MeanResidentMB)
		}
		totalEv += ns.Evictions
	}
	if ev, ok := cl.Metric("evictions"); !ok || float64(totalEv) != ev {
		t.Errorf("node evictions sum %d != attribution sink evictions %v", totalEv, ev)
	}

	// Fan-out: the merged node rows are the element-wise sums/maxes of
	// the per-shard runs.
	base := "source=" + smallGen + "; policy=fixed?ka=1h; cluster.nodes=2; cluster.mem=300"
	fan, err := RunScenario(ctx, mustParse(t, base+"; shard=*/2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fan.Nodes) != 2 {
		t.Fatalf("fanned cell node summaries = %d, want 2", len(fan.Nodes))
	}
	var wantEv, wantFail [2]int
	var wantPeak, wantMean [2]float64
	for s := 0; s < 2; s++ {
		part, err := RunScenario(ctx, mustParse(t, base+fmt.Sprintf("; shard=%d/2", s)))
		if err != nil {
			t.Fatal(err)
		}
		for n, ns := range part.Nodes {
			wantEv[n] += ns.Evictions
			wantFail[n] += ns.FailedLoads
			wantMean[n] += ns.MeanResidentMB
			wantPeak[n] += ns.PeakResidentMB
		}
	}
	for n, ns := range fan.Nodes {
		if ns.Evictions != wantEv[n] || ns.FailedLoads != wantFail[n] ||
			math.Abs(ns.PeakResidentMB-wantPeak[n]) > 1e-9 ||
			math.Abs(ns.MeanResidentMB-wantMean[n]) > 1e-9 {
			t.Errorf("fanned node %d: %+v, want ev=%d fail=%d peak=%v mean=%v",
				n, ns, wantEv[n], wantFail[n], wantPeak[n], wantMean[n])
		}
		if ns.PeakResidentMB < ns.MeanResidentMB {
			t.Errorf("fanned node %d: peak %v below mean %v", n, ns.PeakResidentMB, ns.MeanResidentMB)
		}
	}

	// The JSON report carries the node rows.
	rep, err := RunSweep(ctx, []Scenario{mustParse(t,
		"source="+smallGen+"; policy=fixed?ka=1h; cluster.nodes=2; cluster.mem=300")})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"nodes"`) || !strings.Contains(buf.String(), `"peak_resident_mb"`) {
		t.Errorf("JSON report lacks per-node stats:\n%s", buf.String())
	}
}

// TestCellErrorIdentifiesFailingCell pins the sweep's error contract:
// a failing cell surfaces as a *CellError carrying the cell index and
// the scenario (so a CLI can print the canonical spec of exactly the
// cell that broke), wrapping the underlying cause.
func TestCellErrorIdentifiesFailingCell(t *testing.T) {
	ctx := context.Background()
	cells := []Scenario{
		mustParse(t, "source="+smallGen+"; policy=fixed?ka=10m"),
		mustParse(t, "source="+smallGen+"; policy=fixed?ka=10m; cluster.nodes=2; cluster.events=fail@1h:node=5"),
	}
	_, err := RunSweep(ctx, cells)
	if err == nil {
		t.Fatal("sweep with out-of-range event node: no error")
	}
	var cellErr *CellError
	if !errors.As(err, &cellErr) {
		t.Fatalf("error %v (%T) is not a *CellError", err, err)
	}
	if cellErr.Index != 1 {
		t.Errorf("CellError.Index = %d, want 1", cellErr.Index)
	}
	if got := cellErr.Scenario.String(); !strings.Contains(got, "cluster.events=fail@1h:node=5") {
		t.Errorf("CellError.Scenario = %q, want the failing cell's spec", got)
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("error %q does not name the cause", err)
	}
	if !strings.Contains(err.Error(), "cell 1 (") {
		t.Errorf("error %q does not keep the cell-index format", err)
	}

	// Single-scenario runs wrap too (index 0).
	_, err = RunScenario(ctx, cells[1])
	if !errors.As(err, &cellErr) || cellErr.Index != 0 {
		t.Errorf("RunScenario error %v: want *CellError with Index 0", err)
	}
}

// TestFixedTraceSharedUnwarmed runs cells concurrently over one
// un-warmed trace with multi-function apps, so the cells race to
// memoize the same merged invocation lists; under -race this guards
// the memo's publication. The report must equal a run over a warmed
// copy.
func TestFixedTraceSharedUnwarmed(t *testing.T) {
	gen := func() *trace.Trace {
		pop, err := workload.Generate(workload.Config{
			Seed: 5, NumApps: 60, Duration: 24 * time.Hour,
			MaxDailyRate: 300, MaxEventsPerFunction: 800,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pop.Trace
	}
	cold, warm := gen(), gen()
	multi := 0
	for _, app := range cold.Apps {
		if len(app.Functions) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("population has no multi-function app")
	}
	for _, app := range warm.Apps {
		app.InvocationTimes() // memoize every merge before any cell runs
	}

	g, err := ParseGrid("policy=[fixed?ka=10m,fixed?ka=1h,hybrid,hybrid?arima=off]")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	report := func(tr *trace.Trace) string {
		rep, err := RunSweep(context.Background(), cells, WithFixedTrace(tr), WithSweepWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if got, want := report(cold), report(warm); got != want {
		t.Fatalf("un-warmed report differs from the warmed one:\n%s\nvs\n%s", got, want)
	}
}
