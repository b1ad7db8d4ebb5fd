package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/trace"
)

// Every set-up and every measured loop runs in a re-exec'd child of this
// binary, so peak RSS and CPU are that phase's alone: the parent's
// verification passes (which hold whole populations in memory) and the
// generator's garbage never show up in a measuring child's ru_maxrss.
// The protocol is scenario.RunSweepProcs': request JSON on stdin, response
// JSON on stdout, stderr passed through.

const childEnv = "WILDBENCH_CHILD"

type childReq struct {
	Role     string  `json:"role"` // "setup" or "measure"
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Quick    bool    `json:"quick"`
	Traced   bool    `json:"traced"`
	Dir      string  `json:"dir"`
	// Pop is the population the set-up children reported (measure only).
	Pop popInfo `json:"pop"`
}

func (r childReq) sizes() sizes { return sizesFor(r.Quick) }

type setupResp struct {
	Seconds float64 `json:"seconds"`
	Pop     popInfo `json:"pop"`
}

type measureResp struct {
	Reps []repResult `json:"reps"`
}

// maybeRunChild turns this process into a set-up or measuring child if it
// was spawned as one, and never returns in that case.
func maybeRunChild() {
	if os.Getenv(childEnv) == "" {
		return
	}
	if err := runChild(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func runChild(in io.Reader, out io.Writer) error {
	var req childReq
	if err := json.NewDecoder(in).Decode(&req); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	w := findWorkload(req.Workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", req.Workload)
	}
	var resp any
	var err error
	switch req.Role {
	case "setup":
		resp, err = childSetup(w, req)
	case "measure":
		resp, err = childMeasure(w, req)
	default:
		err = fmt.Errorf("unknown role %q", req.Role)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(resp)
}

// childSetup times everything the workload needs before its first
// measured operation: generating (and encoding) the population, or
// building the request schedule and starting the server.
//
//wildlint:allow wallclock
func childSetup(w *workload, req childReq) (*setupResp, error) {
	sz := req.sizes()
	resp := &setupResp{}
	t0 := time.Now()
	switch w.kind {
	case kindBatch:
		in, _, err := buildBatch(w, sz, req.Seed, req.Dir)
		if err != nil {
			return nil, err
		}
		resp.Pop = in.pop
	case kindDecide:
		if _, err := buildDecide(w, sz, req.Seed); err != nil {
			return nil, err
		}
	case kindHTTP:
		rig, err := buildHTTP(sz, req.Seed)
		if err != nil {
			return nil, err
		}
		defer rig.close()
	}
	resp.Seconds = time.Since(t0).Seconds()
	return resp, nil
}

// childMeasure runs the measured loop. A replayed workload reads the file
// the last set-up child left in req.Dir; the others rebuild their inputs
// here (untimed — the set-up children already priced that).
func childMeasure(w *workload, req childReq) (*measureResp, error) {
	sz := req.sizes()
	var rep func(i int) (repResult, error)
	switch w.kind {
	case kindBatch:
		var in *batchInputs
		var err error
		if w.file != "" {
			in, err = openBatch(w, sz, req.Pop, filepath.Join(req.Dir, w.file))
		} else {
			var tr *trace.Trace
			in, tr, err = buildBatch(w, sz, req.Seed, req.Dir)
			if err == nil && describe(tr) != req.Pop {
				err = fmt.Errorf("regenerated population %+v differs from set-up's %+v", describe(tr), req.Pop)
			}
		}
		if err != nil {
			return nil, err
		}
		rep = func(int) (repResult, error) { return batchRep(in, req.Traced) }
	case kindDecide:
		in, err := buildDecide(w, sz, req.Seed)
		if err != nil {
			return nil, err
		}
		rep = func(int) (repResult, error) { return decideRep(in, req.Traced) }
	case kindHTTP:
		rig, err := buildHTTP(sz, req.Seed)
		if err != nil {
			return nil, err
		}
		defer rig.close()
		rep = func(i int) (repResult, error) { return httpRep(rig, i) }
	}
	reps, err := measureLoop(req.Seconds, sz.MinReps, rep)
	if err != nil {
		return nil, err
	}
	return &measureResp{Reps: reps}, nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark from the
// current RSS, so the next peakRSSMB is the peak of one rep. Where the
// kernel refuses, the mark keeps rising and every rep reports the peak so
// far, which is still a peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads this process's resident-set high-water mark. It is
// VmHWM rather than ru_maxrss because a process started by vfork+exec
// inherits its parent's peak in ru_maxrss: a parent that had ever held a
// population would put a floor under every child it measured.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// spawn runs one child to completion and decodes its response into resp.
func spawn(req childReq, resp any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	data, err := json.Marshal(req)
	if err != nil {
		return err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = bytes.NewReader(data)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child of %s: %s (%w)", req.Role, req.Workload, strings.TrimSpace(stderr.String()), err)
	}
	if err := json.Unmarshal(stdout.Bytes(), resp); err != nil {
		return fmt.Errorf("%s child of %s: malformed response: %w", req.Role, req.Workload, err)
	}
	return nil
}
