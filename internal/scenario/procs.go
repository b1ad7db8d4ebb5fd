package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// Process fan-out: RunSweepProcs runs each schedulable unit of a sweep
// in its own worker process — the same binary re-exec'd with
// ProcWorkerEnv set — so a trace-scale sweep spreads across cores (and
// address spaces) instead of sharing one heap. A worker receives its
// concrete scenario (shard field pinned to "i/n") as JSON on stdin,
// runs it with the ordinary in-process path, and writes its drained
// sink states back as JSON on stdout; the parent reconstitutes the
// sinks and folds them together in shard order with the exact same
// Merges RunSweep uses. Sink states are integers and shortest-round-
// trip floats, so the fan-out is bit-identical to the in-process sweep
// (pinned by TestRunSweepProcsMatchesInProcess).

// ProcWorkerEnv marks a process as a sweep worker. MaybeRunWorker
// reacts to it; RunSweepProcs sets it on the children it spawns.
const ProcWorkerEnv = "WILD_SCENARIO_WORKER"

// procRequest is what a worker reads from stdin.
type procRequest struct {
	Scenario Scenario `json:"scenario"`
}

// procSink is one drained sink crossing the process boundary.
type procSink struct {
	Spec  string          `json:"spec"`
	State json.RawMessage `json:"state"`
}

// procResponse is what a worker writes to stdout.
type procResponse struct {
	PolicyName   string        `json:"policy_name"`
	Sinks        []procSink    `json:"sinks"`
	Nodes        []NodeSummary `json:"nodes,omitempty"`
	MemDefaulted int           `json:"mem_defaulted,omitempty"`
}

// MaybeRunWorker turns this process into a sweep worker if it was
// spawned as one (ProcWorkerEnv set) and never returns in that case;
// otherwise it is a no-op. Binaries that may serve as fan-out workers
// (coldsim) call it first thing in main, before flag parsing.
func MaybeRunWorker() {
	if os.Getenv(ProcWorkerEnv) == "" {
		return
	}
	if err := runWorker(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "scenario worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runWorker executes one worker request: decode the scenario, run it
// in-process, stream the drained sink states back.
func runWorker(in io.Reader, out io.Writer) error {
	var req procRequest
	if err := json.NewDecoder(in).Decode(&req); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	cell, err := RunScenario(context.Background(), req.Scenario)
	if err != nil {
		return err
	}
	resp := procResponse{
		PolicyName:   cell.PolicyName,
		Nodes:        cell.Nodes,
		MemDefaulted: cell.MemDefaulted,
	}
	for _, cs := range cell.Sinks {
		state, err := cs.Sink.MarshalState()
		if err != nil {
			return fmt.Errorf("marshaling sink %q: %w", cs.Spec, err)
		}
		resp.Sinks = append(resp.Sinks, procSink{Spec: cs.Spec, State: state})
	}
	return json.NewEncoder(out).Encode(resp)
}

// RunSweepProcs executes a sweep like RunSweep, but each unit (a cell,
// or one shard of a fanned-out "*/n" cell) runs in its own worker
// process, up to procs concurrent (default GOMAXPROCS). Results are
// bit-identical to RunSweep over the same cells.
//
// Sources must be serializable specs — WithFixedTrace cannot cross a
// process boundary and is rejected.
func RunSweepProcs(ctx context.Context, cells []Scenario, procs int, opts ...Option) (*SweepReport, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.fixedTrace != nil {
		return nil, fmt.Errorf("scenario: RunSweepProcs cannot ship an in-memory trace to workers; use a source spec")
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("scenario: empty sweep")
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("scenario: resolving worker executable: %w", err)
	}
	// Source specs must at least parse before any worker spawns (the
	// workers open them for real).
	for i, sc := range cells {
		if _, err := sourceForScenario(sc); err != nil {
			return nil, &CellError{Index: i, Scenario: sc, Err: err}
		}
	}
	units, unitsPerCell, err := expandUnits(cells, nil)
	if err != nil {
		return nil, err
	}

	results, err := runUnits(ctx, units, singletons(len(units)), procs, func(ctx context.Context, g []unit) ([]unitResult, error) {
		res, err := runProcUnit(ctx, exe, g[0])
		return []unitResult{res}, err
	})
	if err != nil {
		return nil, err
	}
	return assembleReport(cells, unitsPerCell, results)
}

// runProcUnit runs one unit in a worker process and reconstitutes its
// sinks.
func runProcUnit(ctx context.Context, exe string, u unit) (unitResult, error) {
	sc := u.sc
	// Pin the worker to this unit's concrete shard; the "*/n" fan-out
	// already happened in the parent's expansion.
	if u.shardI >= 0 {
		sc.Shard = fmt.Sprintf("%d/%d", u.shardI, u.shardN)
	} else {
		sc.Shard = ""
	}
	reqData, err := json.Marshal(procRequest{Scenario: sc})
	if err != nil {
		return unitResult{}, err
	}

	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), ProcWorkerEnv+"=1")
	cmd.Stdin = bytes.NewReader(reqData)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg != "" {
			return unitResult{}, fmt.Errorf("worker: %s (%w)", msg, err)
		}
		return unitResult{}, fmt.Errorf("worker: %w", err)
	}
	var resp procResponse
	if err := json.Unmarshal(stdout.Bytes(), &resp); err != nil {
		return unitResult{}, fmt.Errorf("worker produced malformed output: %w", err)
	}

	res := unitResult{
		policyName: resp.PolicyName,
		nodes:      resp.Nodes,
		defaulted:  resp.MemDefaulted,
		sinks:      make([]CellSink, len(resp.Sinks)),
	}
	for i, ps := range resp.Sinks {
		built, err := NewSink(ps.Spec)
		if err != nil {
			return unitResult{}, fmt.Errorf("worker sink %q: %w", ps.Spec, err)
		}
		if err := built.UnmarshalState(ps.State); err != nil {
			return unitResult{}, fmt.Errorf("worker sink %q state: %w", ps.Spec, err)
		}
		res.sinks[i] = CellSink{Spec: ps.Spec, Sink: built}
	}
	return res, nil
}
