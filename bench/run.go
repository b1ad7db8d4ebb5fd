package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// metric is one reported number. The driver reads value and unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver parses: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an -out file: a result plus what identifies the run
// and what must repeat exactly between two runs of the same code and seed.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
	InputDigest string   `json:"input_digest,omitempty"`
	SimDigest   string   `json:"sim_digest,omitempty"`
	Reps        int      `json:"reps,omitempty"`
	Problems    []string `json:"problems,omitempty"`
	Notes       []string `json:"notes,omitempty"` // traced run: reconciliation lines
	// Spread holds [q1, q3] of the per-rep values behind each median.
	Spread map[string][2]float64 `json:"spread,omitempty"`
}

type options struct {
	seed    uint64
	seconds float64
	quick   bool
	tmpRoot string // scratch space inside the checkout
	spans   string // traced run: file to write the spans to ("" = keep in memory)
}

func (o options) sizes() sizes { return sizesFor(o.quick) }

// endToEndUnits is the declared unit of every end-to-end metric; the
// benchmark prints exactly these with -trace 0.
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"invocations_per_s": "1/s",
	"cpu_ns_per_inv":    "ns",
	"peak_rss_mb":       "MB",
}

// runEndToEnd is the untraced run of one workload: SetupReps set-up
// children (setup_s is their median), one measuring child, then the
// correctness checks, in this process.
func runEndToEnd(w *workload, o options) (*record, error) {
	dir, err := os.MkdirTemp(o.tmpRoot, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rec := &record{Workload: w.Name, Seed: o.seed}
	req := childReq{Role: "setup", Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Dir: dir}
	var setups []float64
	for i := 0; i < o.sizes().SetupReps; i++ {
		var s setupResp
		if err := spawn(req, &s); err != nil {
			return nil, err
		}
		if i > 0 && s.Pop != req.Pop {
			rec.Problems = append(rec.Problems, fmt.Sprintf("set-up %d generated %+v, set-up 0 generated %+v", i, s.Pop, req.Pop))
		}
		req.Pop = s.Pop
		setups = append(setups, s.Seconds)
	}
	req.Role = "measure"
	var m measureResp
	if err := spawn(req, &m); err != nil {
		return nil, err
	}

	rec.InputDigest = req.Pop.Digest
	rec.Reps = len(m.Reps)
	rec.SimDigest = m.Reps[0].Digest
	var perS, cpuPer, rss []float64
	for i, r := range m.Reps {
		rec.Attempted += r.Ops
		rec.Failed += r.Failed
		if r.Problem != "" {
			rec.Problems = append(rec.Problems, fmt.Sprintf("rep %d: %s", i+1, r.Problem))
		}
		if r.Digest != rec.SimDigest {
			rec.Failed += r.Ops - r.Failed
			rec.Problems = append(rec.Problems, fmt.Sprintf("rep %d: sim_digest %s, rep 1 had %s", i+1, r.Digest, rec.SimDigest))
		}
		perS = append(perS, float64(r.Ops)/(float64(r.WallNs)/1e9))
		cpuPer = append(cpuPer, float64(r.CPUNs)/float64(r.Ops))
		rss = append(rss, r.PeakRSSMB)
	}
	rec.Problems = append(rec.Problems, checkInputs(w, o, req.Pop, filepath.Join(dir, w.file), rec.SimDigest)...)
	if len(rec.Problems) > 0 && rec.Failed == 0 {
		rec.Failed = rec.Attempted // wrong inputs or outputs taint every rep
	}
	rec.Correct = rec.Failed == 0

	rec.Metrics = map[string]metric{}
	rec.Spread = map[string][2]float64{}
	put := func(name string, vs []float64) {
		q1, q2, q3 := quartiles(vs)
		rec.Metrics[name] = metric{q2, endToEndUnits[name]}
		rec.Spread[name] = [2]float64{q1, q3}
	}
	put("setup_s", setups)
	put("invocations_per_s", perS)
	put("cpu_ns_per_inv", cpuPer)
	put("peak_rss_mb", rss)
	return rec, nil
}

// checkInputs verifies a batch workload's inputs and outputs against
// references this process computes itself: the pinned input digest at the
// default seed, and — for replay-csv — the same cells run over the same
// file collected into memory, which must simulate to the same digest as
// the constant-memory streaming run did.
func checkInputs(w *workload, o options, pop popInfo, path, simDigest string) []string {
	if w.kind != kindBatch {
		return nil
	}
	var problems []string
	name := w.pop(o.sizes()).Name
	if pin, ok := pinnedInputs[name]; ok && !o.quick && o.seed == defaultSeed && pin != pop.Digest {
		problems = append(problems, fmt.Sprintf("population %s has input_digest %s at seed %d, pinned %s: the generator changed", name, pop.Digest, o.seed, pin))
	}
	if w.Name != "replay-csv" {
		return problems
	}
	ref, err := collectedDigest(w, o.sizes(), pop, path)
	if err != nil {
		return append(problems, "in-memory reference: "+err.Error())
	}
	if ref != simDigest {
		problems = append(problems, fmt.Sprintf("streamed sim_digest %s, same file in memory gives %s", simDigest, ref))
	}
	return problems
}

func collectedDigest(w *workload, sz sizes, pop popInfo, path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	src, err := trace.StreamInvocationsCSV(f)
	if err != nil {
		return "", err
	}
	tr, err := trace.Collect(src)
	if err != nil {
		return "", err
	}
	in, err := openBatch(w, sz, pop, path)
	if err != nil {
		return "", err
	}
	rep, err := scenario.RunSweep(context.Background(), in.cells, scenario.WithFixedTrace(tr))
	if err != nil {
		return "", err
	}
	if problems := checkReport(rep, pop); len(problems) > 0 {
		return "", fmt.Errorf("%s", problems[0])
	}
	return digestReport(rep), nil
}
