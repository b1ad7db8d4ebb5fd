package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -agree and the smoke test
// read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// exactCounts are the per-layer metrics that count rather than time: two
// runs of the same code and seed must print them identically.
var exactCounts = []string{
	"kernel.runs_per_kinv", "policy.mode_share.histogram", "policy.mode_share.fixed",
	"policy.mode_share.arima", "cluster.evictions_per_kinv", "cluster.eviction_cold_share",
}

// runAgree prints, for every workload and end-to-end metric, each set's
// median, quartiles and spread (interquartile distance over median — the
// driver's steadiness measure) and, given two sets, how much worse the
// second median is than the first. It reports false when a spread or a
// worsening exceeds the metric's bound (setup_s is exempt from the spread
// rule, as in the driver), when any run was incorrect, or when a digest or
// exact count differs between runs of one workload and seed.
func runAgree(out io.Writer, specPath string, files []string) (bool, error) {
	if len(files) < 1 || len(files) > 2 {
		return false, fmt.Errorf("-agree wants one or two result files")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	sets := make([][]record, len(files))
	for i, path := range files {
		if sets[i], err = readRecords(path); err != nil {
			return false, err
		}
	}

	ok := true
	fmt.Fprintf(out, "%-15s %-18s %3s %12s %24s %7s", "workload", "metric", "n", "median", "[q1, q3]", "spread")
	if len(sets) == 2 {
		fmt.Fprintf(out, " | %3s %12s %7s %8s", "n", "median", "spread", "worse")
	}
	fmt.Fprintf(out, "  bound  verdict\n")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			var med [2]float64
			verdict := "within"
			fmt.Fprintf(out, "%-15s %-18s", w.Name, m.Name)
			for i, set := range sets {
				var vs []float64
				for _, r := range set {
					if v, has := r.Metrics[m.Name]; has && r.Workload == w.Name && r.Trace == 0 {
						vs = append(vs, v.Value)
					}
				}
				if len(vs) == 0 {
					return false, fmt.Errorf("%s has no run of %s with %s", files[i], w.Name, m.Name)
				}
				q1, q2, q3 := quartiles(vs)
				spread := (q3 - q1) / q2
				med[i] = q2
				if i == 0 {
					fmt.Fprintf(out, " %3d %12.6g %24s %6.2f%%", len(vs), q2, fmt.Sprintf("[%.6g, %.6g]", q1, q3), 100*spread)
				} else {
					fmt.Fprintf(out, " | %3d %12.6g %6.2f%%", len(vs), q2, 100*spread)
				}
				if m.Name != "setup_s" && spread > m.Bound {
					verdict = "UNSTEADY"
				} else if m.Name != "setup_s" && spread > m.Bound/3 && verdict == "within" {
					verdict = "within (spread above bound/3)"
				}
			}
			if len(sets) == 2 {
				worse := (med[1] - med[0]) / med[0]
				if m.Better == "higher" {
					worse = -worse
				}
				fmt.Fprintf(out, " %+7.2f%%", 100*worse)
				if worse > m.Bound {
					verdict = "OUTSIDE"
				}
			}
			fmt.Fprintf(out, "  %4.0f%%  %s\n", 100*m.Bound, verdict)
			ok = ok && verdict != "OUTSIDE" && verdict != "UNSTEADY"
		}
	}

	// What must repeat exactly, across both sets.
	type key struct {
		workload string
		seed     uint64
	}
	digests := map[key][2]string{}
	counts := map[uint64]map[string]float64{}
	for _, set := range sets {
		for _, r := range set {
			if !r.Correct {
				ok = false
				fmt.Fprintf(out, "INCORRECT: %s seed %d: %v\n", r.Workload, r.Seed, r.Problems)
			}
			if r.Trace == 1 {
				if counts[r.Seed] == nil {
					counts[r.Seed] = map[string]float64{}
				}
				for _, name := range exactCounts {
					v := r.Metrics[name].Value
					if prev, seen := counts[r.Seed][name]; seen && prev != v {
						ok = false
						fmt.Fprintf(out, "DIFFERS: %s at seed %d: %v and %v\n", name, r.Seed, prev, v)
					}
					counts[r.Seed][name] = v
				}
				continue
			}
			k, d := key{r.Workload, r.Seed}, [2]string{r.InputDigest, r.SimDigest}
			if prev, seen := digests[k]; seen && prev != d {
				ok = false
				fmt.Fprintf(out, "DIFFERS: %s seed %d: input/sim digests %v and %v\n", r.Workload, r.Seed, prev, d)
			}
			digests[k] = d
		}
	}
	if ok {
		fmt.Fprintln(out, "agree: every metric within its bound, every digest and exact count repeated")
	}
	return ok, nil
}
