package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/forecast"
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
// sink Merges). The streamed subtests read the same population from a
// CSV and a WILDTRC1 file, where the batch cells on one source with
// one shard selection run as one group decoding the file once: two
// default-ARIMA hybrids, exec-time cells mixed with exec-time-off ones,
// and a group of shard=1/3 cells, next to a cluster cell that opens
// the file on its own.
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
		cells = append(cells, mustParse(t, s))
	}
	t.Run("gen", func(t *testing.T) { sweepMatchesSequential(t, cells) })

	// Three days, so the default-ARIMA hybrids reach the time-series
	// path (and share fits through the sweep's memo).
	fac, err := NewSource("gen:apps=40&days=3&seed=3&maxrate=300&maxevents=800")
	if err != nil {
		t.Fatal(err)
	}
	src, _, err := fac.Open()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		scheme string
		write  func(io.Writer, *trace.Trace) error
	}{{"csv", trace.WriteInvocationsCSV}, {"tracec", trace.WriteBinary}} {
		t.Run(f.scheme, func(t *testing.T) {
			var buf bytes.Buffer
			if err := f.write(&buf, tr); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "trace")
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			source := "source=" + f.scheme + ":" + path + "; "
			var cells []Scenario
			for _, s := range []string{
				"policy=hybrid",
				"policy=fixed?ka=10m; exectime=on",
				"policy=hybrid?range=30m",
				"policy=hybrid?arima=off",
				"policy=hybrid; exectime=on; shard=1/3",
				"policy=fixed?ka=1h; shard=1/3",
				"policy=hybrid?range=2h; cluster.nodes=2; cluster.mem=400",
			} {
				cells = append(cells, mustParse(t, source+s))
			}
			sweepMatchesSequential(t, cells)
		})
	}
}

// sweepMatchesSequential fails unless RunSweep over cells gives every
// cell exactly the metrics and policy name RunScenario gives it alone.
func sweepMatchesSequential(t *testing.T, cells []Scenario) {
	t.Helper()
	ctx := context.Background()
	sweep, err := RunSweep(ctx, cells)
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

// TestRunUnitsBound pins the sweep pool both sweep paths share: at
// most workers groups run at once, and 1, 2 or 3 workers over the same
// groups — single units, and units gathered out of order — return the
// same results in unit order.
func TestRunUnitsBound(t *testing.T) {
	units := make([]unit, 12)
	for i := range units {
		units[i] = unit{cell: i / 3, shardIdx: i % 3}
	}
	strided := make([][]int, 4)
	for i := range units {
		strided[i%4] = append(strided[i%4], i)
	}
	for _, groups := range [][][]int{singletons(len(units)), strided} {
		var want []unitResult
		for workers := 1; workers <= 3; workers++ {
			var running, peak atomic.Int64
			got, err := runUnits(context.Background(), units, groups, workers, func(_ context.Context, g []unit) ([]unitResult, error) {
				n := running.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				runtime.Gosched()
				running.Add(-1)
				res := make([]unitResult, len(g))
				for k, u := range g {
					res[k] = unitResult{policyName: fmt.Sprintf("cell %d shard %d", u.cell, u.shardIdx), defaulted: u.cell}
				}
				return res, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if p := peak.Load(); p > int64(workers) {
				t.Errorf("%d groups, %d workers: %d groups ran at once", len(groups), workers, p)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d groups, %d workers: results %v, want %v", len(groups), workers, got, want)
			}
		}
		if len(want) != len(units) || want[4].policyName != "cell 1 shard 1" || want[11].policyName != "cell 3 shard 2" {
			t.Fatalf("%d groups: results %v are not in unit order", len(groups), want)
		}
	}
}

// TestScenarioMatchesDirectRun pins the scenario path against the
// underlying engines driven by hand: same sinks, same numbers.
func TestScenarioMatchesDirectRun(t *testing.T) {
	ctx := context.Background()
	sc, err := parseCell("source=" + smallGen + "; policy=fixed?ka=10m")
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
		{"source=" + smallGen + "; policy=hybrid; cluster.nodes=2; cluster.place=binpack?order=size", "unknown parameters [order]"},
		{"source=csv:/does/not/exist.csv; policy=hybrid", "no such file"},
		{"source=" + smallGen + "; policy=hybrid; cluster.memcsv=/does/not/exist.csv", "no such file"},
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
	sc, err := parseCell(s)
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

	// A source failing mid-file fails every cell of the group reading
	// it; the error names the group's first cell, as it would name the
	// first of those cells run one by one.
	broken := "source=csv:" + brokenCSV(t) + "; "
	cells = []Scenario{
		mustParse(t, "source="+smallGen+"; policy=fixed?ka=10m"),
		mustParse(t, broken+"policy=hybrid"),
		mustParse(t, "source="+smallGen+"; policy=hybrid"),
		mustParse(t, broken+"policy=fixed?ka=10m; exectime=on"),
		mustParse(t, broken+"policy=hybrid?arima=off"),
	}
	_, err = RunSweep(ctx, cells)
	if !errors.As(err, &cellErr) || cellErr.Index != 1 || !strings.Contains(err.Error(), "not contiguous") {
		t.Errorf("broken-CSV group: err %v, want a *CellError with Index 1 for the reappearing app", err)
	}
}

// TestMemCSVCheckedBeforeAnyCellRuns: a cluster.memcsv table is read
// and validated up front, so a bad row fails the sweep before any cell
// simulates, even when the app it names lies outside the cell's shard.
func TestMemCSVCheckedBeforeAnyCellRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.csv")
	table := "HashOwner,HashApp,SampleCount,AverageAllocatedMb\no,a,2,NaN\no,b,2,256\n"
	if err := os.WriteFile(path, []byte(table), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func(orig func() *forecast.Memo) { newForecastMemo = orig }(newForecastMemo)
	newForecastMemo = func() *forecast.Memo { t.Error("the sweep started running cells"); return nil }
	// Shard 1/2 holds only app b; the NaN row names app a.
	tr := &trace.Trace{Duration: time.Hour, Apps: []*trace.App{{ID: "a"}, {ID: "b"}}}
	sc := mustParse(t, "policy=hybrid; cluster.nodes=1; cluster.memcsv="+path+"; shard=1/2")
	_, err := RunSweep(context.Background(), []Scenario{sc}, WithFixedTrace(tr))
	var cellErr *CellError
	if !errors.As(err, &cellErr) || !strings.Contains(err.Error(), "memory line 2") {
		t.Fatalf("err = %v, want a *CellError naming memory line 2", err)
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

	// The sweep runs GOMAXPROCS cells at once; two make the race.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g, err := ParseGrid("policy=[fixed?ka=10m,fixed?ka=1h,hybrid,hybrid?arima=off]")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	report := func(tr *trace.Trace) string {
		rep, err := RunSweep(context.Background(), cells, WithFixedTrace(tr))
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
