// Command coldsim runs keep-alive policy simulations and prints the
// cold-start / wasted-memory comparison of §5.2. Every run is a
// Scenario — one declarative value naming the trace source, policy,
// optional finite-memory cluster, metric sinks and shard — and a
// sweep is a Grid whose list-valued fields expand into cells, so the
// whole paper evaluation plane is configuration, not plumbing.
//
// Usage:
//
//	coldsim -scenario 'source=gen:apps=400; policy=[fixed?ka=10m,hybrid]'
//	coldsim -scenario 'source=csv:inv.csv; policy=hybrid; cluster.nodes=8; cluster.mem=4096'
//	coldsim -scenario @sweep.json           # JSON {"base", "axes", "cells"}
//	coldsim -scenario ... -format csv       # machine-readable report
//	coldsim -scenario ... -fanout 8         # 8 shard worker processes per cell
//	coldsim -scenario ... -cpuprofile cpu.prof -memprofile mem.prof
//
// -fanout n rewrites unsharded cells to shard=*/n and runs every unit
// in its own worker process (this binary re-exec'd), merging the
// workers' sink states exactly as the in-process sweep would — results
// are bit-identical, but the cells spread across address spaces.
//
// Without -scenario, coldsim runs defaultScenario: the §5.2 policy
// line-up over a 400-app synthetic week.
//
// The wasted-memory column of the table output is normalized to the
// 10-minute fixed keep-alive policy on the same trace and cluster
// shape, as throughout §5.2 (a baseline cell is run implicitly when
// the sweep does not include one).
//
// -format json additionally reports per-node stats for cluster cells
// (evictions, failed loads, peak and mean resident MB per node), not
// just the aggregate summary metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"

	wild "repro"
)

// defaultScenario is what a bare coldsim runs.
const defaultScenario = "source=gen:apps=400&days=7&seed=42&maxrate=2000&maxevents=20000; " +
	"policy=[nounload,fixed?ka=10m,fixed?ka=1h,fixed?ka=2h,hybrid]"

// baselineSpec normalizes wasted memory, as throughout §5.2.
const baselineSpec = "fixed?ka=10m"

func main() {
	// A coldsim spawned by -fanout serves as a sweep worker and exits
	// inside this call; ordinary invocations fall through.
	wild.MaybeRunScenarioWorker()

	log.SetFlags(0)
	log.SetPrefix("coldsim: ")

	var (
		scenarioFlag = flag.String("scenario", defaultScenario,
			fmt.Sprintf("scenario or sweep grid (text grammar, JSON, or @file.json; policies: %v; placements: %v)",
				wild.PolicySpecs(), wild.PlacementNames()))
		format = flag.String("format", "table", "output format: table, csv or json")
		fanout = flag.Int("fanout", 0,
			"run each cell as n shard worker processes (rewrites unsharded cells to shard=*/n)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to `file` (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile at the end of the run to `file` (go tool pprof)")
	)
	flag.Parse()

	grid, err := resolveGrid(*scenarioFlag)
	if err != nil {
		log.Fatal(err)
	}
	cells, err := grid.Scenarios()
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// -fanout n: unsharded cells become n-way shard fan-outs, and every
	// unit runs in its own worker process (results are bit-identical to
	// the in-process sweep).
	var run sweepFunc = wild.RunSweep
	if *fanout > 0 {
		for i := range cells {
			if cells[i].Shard == "" {
				cells[i].Shard = fmt.Sprintf("*/%d", *fanout)
			}
		}
		n := *fanout
		run = func(ctx context.Context, cs []wild.Scenario, opts ...wild.ScenarioOption) (*wild.SweepReport, error) {
			return wild.RunSweepProcs(ctx, cs, n, opts...)
		}
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	err = runFormat(ctx, *format, cells, run)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fatal(err)
	}
}

// runFormat runs the sweep and writes the report in the -format named.
func runFormat(ctx context.Context, format string, cells []wild.Scenario, run sweepFunc) error {
	switch format {
	case "table":
		return runTable(ctx, cells, run)
	case "csv", "json":
		return runRaw(ctx, format, cells, run, os.Stdout)
	default:
		return fmt.Errorf("-format: unknown %q (table, csv, json)", format)
	}
}

// fatal reports a sweep failure and exits non-zero. When the error is
// a per-cell failure, the failing cell's canonical scenario string is
// printed on its own stderr line first, so the cell can be re-run in
// isolation (coldsim -scenario '<that string>').
func fatal(err error) {
	var cellErr *wild.ScenarioCellError
	if errors.As(err, &cellErr) {
		fmt.Fprintf(os.Stderr, "coldsim: failing cell: %s\n", cellErr.Scenario)
	}
	log.Fatal(err)
}

// resolveGrid parses the sweep grid from -scenario, inline or @file.
func resolveGrid(scenarioArg string) (wild.ScenarioGrid, error) {
	if path, ok := strings.CutPrefix(scenarioArg, "@"); ok {
		data, err := os.ReadFile(path)
		if err != nil {
			return wild.ScenarioGrid{}, err
		}
		scenarioArg = string(data)
	}
	return wild.ParseGrid(scenarioArg)
}

// sweepFunc is RunSweep or its -fanout process form.
type sweepFunc func(context.Context, []wild.Scenario, ...wild.ScenarioOption) (*wild.SweepReport, error)

// runTable renders the human table: one row per cell, wasted memory
// normalized to the fixed-10-minute baseline of the cell's group (all
// assignments but the policy). Baseline cells missing from the sweep
// run implicitly and are not printed.
func runTable(ctx context.Context, cells []wild.Scenario, run sweepFunc) error {
	visible := len(cells)
	cells = append(cells, missingBaselines(cells)...)

	rep, err := run(ctx, cells)
	if err != nil {
		return err
	}

	// wasted_seconds per baseline group, for the normalized column.
	baseWaste := map[string]float64{}
	for _, c := range rep.Cells {
		if c.Scenario.Policy == baselineSpec {
			if w, ok := c.Metric("wasted_seconds"); ok {
				baseWaste[groupKey(c.Scenario)] = w
			}
		}
	}
	warnMemoryDefaults(rep.Cells[:visible])

	labels := wild.ScenarioLabels(scenariosOf(rep))[:visible]
	cols := displayColumns(rep)
	fmt.Printf("sweep: %d cells\n\n", visible)
	widthLabel := len("cell")
	for _, l := range labels {
		if len(l) > widthLabel {
			widthLabel = len(l)
		}
	}
	fmt.Printf("%-*s %-28s", widthLabel, "cell", "policy")
	for _, col := range cols {
		fmt.Printf(" %14s", col)
	}
	fmt.Println()
	for i, c := range rep.Cells[:visible] {
		fmt.Printf("%-*s %-28s", widthLabel, labels[i], c.PolicyName)
		for _, col := range cols {
			fmt.Printf(" %14s", cellValue(c, col, baseWaste))
		}
		fmt.Println()
	}
	return nil
}

// runRaw writes the machine-readable report (format "csv" or "json")
// to w.
func runRaw(ctx context.Context, format string, cells []wild.Scenario, run sweepFunc, w io.Writer) error {
	rep, err := run(ctx, cells)
	if err != nil {
		return err
	}
	warnMemoryDefaults(rep.Cells)
	if format == "csv" {
		return rep.WriteCSV(w)
	}
	return rep.WriteJSON(w)
}

// warnMemoryDefaults logs, for every output format, which cells
// charged apps the default footprint instead of a measured one.
func warnMemoryDefaults(cells []*wild.ScenarioResult) {
	warnedNoTable := map[string]bool{}
	for _, c := range cells {
		if c.MemDefaulted > 0 {
			log.Printf("warning: %s: %d apps missing from the memory table; charged the %d MB default",
				c.Scenario, c.MemDefaulted, int(wild.DefaultAppMemoryMB))
		}
		// CSV invocation tables carry no memory column at all: a
		// cluster run without cluster.memcsv charges every app the
		// default, which should be visible.
		if c.Scenario.Cluster != nil && c.Scenario.Cluster.MemCSV == "" &&
			strings.HasPrefix(c.Scenario.Source, "csv:") && !warnedNoTable[c.Scenario.Source] {
			warnedNoTable[c.Scenario.Source] = true
			log.Printf("warning: no cluster.memcsv table for %s; every app charged the %d MB default",
				c.Scenario.Source, int(wild.DefaultAppMemoryMB))
		}
	}
}

// missingBaselines returns one hidden fixed-10m baseline cell per
// group of cells (same assignments but the policy) that lacks one.
func missingBaselines(cells []wild.Scenario) []wild.Scenario {
	have := map[string]bool{}
	for _, sc := range cells {
		if sc.Policy == baselineSpec {
			have[groupKey(sc)] = true
		}
	}
	var extra []wild.Scenario
	added := map[string]bool{}
	for _, sc := range cells {
		key := groupKey(sc)
		if have[key] || added[key] {
			continue
		}
		added[key] = true
		base := sc
		base.Policy = baselineSpec
		extra = append(extra, base)
	}
	return extra
}

// groupKey identifies a cell's normalization group: its canonical
// string with the policy assignment blanked.
func groupKey(sc wild.Scenario) string {
	sc.Policy = ""
	return sc.String()
}

func scenariosOf(rep *wild.SweepReport) []wild.Scenario {
	out := make([]wild.Scenario, len(rep.Cells))
	for i, c := range rep.Cells {
		out[i] = c.Scenario
	}
	return out
}

// displayColumns selects the table columns from the report's metric
// union: raw totals are suppressed in favor of the normalized
// wasted-memory column, everything else passes through.
func displayColumns(rep *wild.SweepReport) []string {
	suppress := map[string]bool{
		"apps": true, "invocations": true, "cold_starts": true,
		"eviction_cold_starts": true, "failure_cold_starts": true,
		"policy_cold_starts": true,
	}
	var cols []string
	for _, name := range rep.MetricNames() {
		switch {
		case name == "wasted_seconds":
			cols = append(cols, "wasted(%)")
		case suppress[name]:
		default:
			cols = append(cols, name)
		}
	}
	return cols
}

// cellValue renders one table cell; "-" marks metrics the cell's
// sinks do not produce.
func cellValue(c *wild.ScenarioResult, col string, baseWaste map[string]float64) string {
	if col == "wasted(%)" {
		w, ok := c.Metric("wasted_seconds")
		if !ok {
			return "-"
		}
		base, ok := baseWaste[groupKey(c.Scenario)]
		if !ok || base == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", 100*w/base)
	}
	v, ok := c.Metric(col)
	if !ok {
		return "-"
	}
	if col == "evictions" {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}
