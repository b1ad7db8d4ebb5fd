package wild

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// Results are pinned bit for bit, so they must depend on the trace and
// the seed alone. Two halves hold that contract:
//
//   - TestDeterminismByReexecution reruns the golden corpora under
//     GOMAXPROCS 1 and 2 and diffs the JSON reports byte for byte.
//     JSON floats are shortest round-trip, so a fold whose order moves
//     (a map range — Go randomizes every one — or sinks fed in
//     completion order) shows up as a low-bit diff.
//   - TestNoWallClockOrGlobalRand is a syntax-only scan of the
//     golden-pinned packages for the two inputs a rerun on the same
//     day cannot see change: the wall clock and process-global rand.

func TestDeterminismByReexecution(t *testing.T) {
	type detCase struct {
		name, grid string
		want       []byte // golden or reference bytes; nil: repeat only
	}
	cases := []detCase{{name: "scenario_smoke", grid: string(mustRead(t, filepath.Join("testdata", "scenario_smoke.json")))}}
	incidents, err := filepath.Glob(filepath.Join("testdata", "scenarios", "*.json"))
	if err != nil || len(incidents) < 4 {
		t.Fatalf("incident corpus: %d scenarios, err %v", len(incidents), err)
	}
	for _, path := range incidents {
		base := strings.TrimSuffix(path, ".json")
		cases = append(cases, detCase{filepath.Base(base), string(mustRead(t, path)), mustRead(t, base+".golden")})
	}

	// The streaming cell: the smoke generator at 120 apps, written to a
	// dataset CSV and streamed back by parallel workers, must report
	// exactly what the same cells report over the in-memory trace.
	// range=10m forces the ARIMA regime, whose fractional windows make
	// the wasted-seconds total sensitive to summation order (plain
	// hybrid wastes whole seconds here, which sum exactly in any
	// order); at 40 apps too few runs complete out of order to fail
	// reliably when sinks see completion order.
	var csvBuf bytes.Buffer
	if err := trace.WriteInvocationsCSV(&csvBuf, incidentTrace(t, "gen:apps=120&days=1&seed=5&maxrate=500&maxevents=2000")); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(t.TempDir(), "invocations.csv")
	if err := os.WriteFile(csvPath, csvBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mem, err := collectCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	stream := "source=csv:" + csvPath + "; policy=[fixed?ka=10m,hybrid?range=10m]; sinks=coldstart,waste"
	cases = append(cases, detCase{"csv-stream", stream, sweepJSON(t, stream, scenario.WithFixedTrace(mem))})

	// The sharded cluster path, pinned absolutely: every incident above
	// is least-loaded and so runs the global path. Hash placement on 3
	// nodes with exec times, under enough pressure that ~1 in 10 hybrid
	// arrivals is an eviction cold start, over rarely-invoked apps whose
	// hybrid windows pre-warm. The golden was written by the heap-driven
	// engine that preceded the derived container schedule.
	const sharded = "source=gen:apps=300&days=2&seed=9&maxrate=200&maxevents=300; policy=[hybrid,fixed?ka=10m]; " +
		"cluster.nodes=3; cluster.mem=6000; cluster.place=hash; exectime=on; sinks=coldstart,waste,attribution,util"
	cases = append(cases, detCase{"sharded_prewarm", sharded, mustRead(t, filepath.Join("testdata", "sharded_prewarm.golden"))})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var first []byte
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				for run := 1; run <= 3; run++ {
					got := sweepJSON(t, c.grid)
					if first == nil {
						first = got
					} else if !bytes.Equal(got, first) {
						t.Fatalf("GOMAXPROCS=%d run %d differs from the first run: %s", procs, run, firstDiff(first, got))
					}
				}
			}
			if c.want != nil && !bytes.Equal(first, c.want) {
				t.Errorf("report differs from its reference: %s", firstDiff(c.want, first))
			}
		})
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sweepJSON runs a grid through RunSweep and renders it as coldsim
// -format json does.
func sweepJSON(t *testing.T, grid string, opts ...scenario.Option) []byte {
	t.Helper()
	g, err := scenario.ParseGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.RunSweep(context.Background(), cells, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstDiff names the first line on which two reports differ.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, strings.TrimSpace(w[i]), strings.TrimSpace(g[i]))
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(w), len(g))
}

// goldenPinnedPackages are the packages (under internal/) on the path
// from a trace and a seed to a golden-pinned report.
var goldenPinnedPackages = []string{
	"sim", "sim/kernel", "cluster", "metrics", "scenario",
	"workload", "trace", "policy", "ithist", "arima", "stats",
	"replay",
}

// randAllowed are the math/rand and math/rand/v2 names that touch no
// process-global state: the seeded constructors and the types they
// return.
var randAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

func TestNoWallClockOrGlobalRand(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range goldenPinnedPackages {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no Go files (err %v)", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, msg := range wallClockUses(fset, f) {
				t.Error(msg)
			}
		}
	}
}

// wallClockUses reports every time.Now/Since/Until and every global
// math/rand use in f, resolving each import's local name from its spec
// so an aliased import is still caught.
func wallClockUses(fset *token.FileSet, f *ast.File) []string {
	var out []string
	imported := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := "rand"
		if p == "time" {
			name = "time"
		} else if p != "math/rand" && p != "math/rand/v2" {
			continue
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." {
			out = append(out, fmt.Sprintf("%s: dot import of %s", fset.Position(imp.Pos()), p))
		}
		imported[name] = p
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		p, ok := imported[x.Name]
		if !ok {
			return true
		}
		fn := sel.Sel.Name
		bad := !randAllowed[fn]
		if p == "time" {
			bad = fn == "Now" || fn == "Since" || fn == "Until"
		}
		if bad {
			out = append(out, fmt.Sprintf("%s: %s.%s reads the wall clock or global rand state; results must depend only on the trace and the seed",
				fset.Position(sel.Pos()), p, fn))
		}
		return true
	})
	return out
}
