// Command bench is the repository's claim-bearing benchmark: seven named
// workloads, five end-to-end metrics each, and a traced run that prices
// every layer from outside through its public functions. BENCHMARK.json at
// the repository root names the workloads and metrics and fixes the
// regression bounds; README.md says why each exists.
//
// The driver runs, from the repository root,
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload every
// workload runs in turn; -agree compares two files of such runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"repro/internal/scenario"
)

func main() {
	// The probes call scenario.RunSweepProcs, whose workers are this binary.
	scenario.MaybeRunWorker()
	// Fixed, so numbers from a bigger machine stay comparable with the
	// 2-core runner this benchmark was sized on. Children inherit it by
	// running this same line.
	runtime.GOMAXPROCS(2)
	maybeRunChild()

	var (
		name    = flag.String("workload", "", "run one workload (default: all seven in turn)")
		seed    = flag.Uint64("seed", defaultSeed, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "measured seconds per workload")
		traced  = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the end-to-end run")
		quick   = flag.Bool("quick", false, "toy sizes, one rep: the smoke test's profile, not a measurement")
		out     = flag.String("out", "", "append one JSON line per workload run to this file")
		spans   = flag.String("spans", "", "traced run: write the spans to this file")
		agree   = flag.Bool("agree", false, "compare result files: bench -agree a.jsonl [b.jsonl]")
		spec    = flag.String("benchmark", "BENCHMARK.json", "benchmark definition (-agree reads the bounds from it)")
	)
	flag.Parse()

	if *agree {
		ok, err := runAgree(os.Stdout, *spec, flag.Args())
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	var run []*workload
	if *name == "" {
		for i := range workloads {
			run = append(run, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		run = append(run, w)
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}

	// Scratch files stay inside the checkout: the driver's .bench_build.
	tmpRoot, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err == nil {
		err = os.MkdirAll(tmpRoot, 0o755)
	}
	if err != nil {
		fatal(err)
	}
	o := options{seed: *seed, seconds: *seconds, quick: *quick, tmpRoot: tmpRoot, spans: *spans}

	failed := false
	for _, w := range run {
		var rec *record
		if *traced == 1 {
			rec, err = runTraced(w, o)
		} else {
			rec, err = runEndToEnd(w, o)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		rec.Trace = *traced
		printRecord(rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		// The driver's line: last on stdout when one workload runs.
		line, err := json.Marshal(rec.result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		failed = failed || !rec.Correct
	}
	if failed && *name == "" {
		os.Exit(1) // a full run is a check; the driver reads "correct" itself
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}

func printRecord(rec *record) {
	fmt.Printf("== %s  seed=%d  reps=%d  input_digest=%s  sim_digest=%s\n",
		rec.Workload, rec.Seed, rec.Reps, rec.InputDigest, rec.SimDigest)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		if q, ok := rec.Spread[n]; ok {
			fmt.Printf("   %-34s %14.6g %-6s [q1 %.6g, q3 %.6g]\n", n, m.Value, m.Unit, q[0], q[1])
		} else {
			fmt.Printf("   %-34s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	share := 0.0
	if rec.Attempted > 0 {
		share = float64(rec.Failed) / float64(rec.Attempted)
	}
	fmt.Printf("   %-34s %14.6g        (%d failed of %d attempted)\n", "failed_share", share, rec.Failed, rec.Attempted)
	for _, n := range rec.Notes {
		fmt.Printf("   %s\n", n)
	}
	for _, p := range rec.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
