package cluster

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// appWalk is an app's precomputed decision walk (the shared kernel's
// output): invocation times, exec times, and RLE decisions.
type appWalk struct {
	times []float64
	execs []float64 // nil without exec times
	runs  []policy.DecisionRun
}

// bytes is the heap footprint the walk's owned slices pin: the run and
// exec copies. times aliases trace memory — the function's own list for
// a single-function app, the app's merged list otherwise — which exists
// either way, not walk memory.
func (w *appWalk) bytes() int64 {
	return int64(cap(w.execs))*8 + int64(cap(w.runs))*int64(unsafe.Sizeof(policy.DecisionRun{}))
}

// appState is one app's runtime state on the timeline. Exactly one
// shard ever touches an app's state (the shard driving its node), so
// the sharded path needs no synchronization around it.
type appState struct {
	walk    *appWalk // live while the app's node is running (see produceWalk)
	cur     kernel.RunCursor
	res     AppResult
	memMB   float64
	prevEnd float64 // end of the last execution
	execEnd float64 // container unevictable before this
	inv     int     // next invocation index
	node    int32
	gen     uint32 // current window generation (event invalidation)
	vix     uint32 // version of the latest victim-index entry
	// Current window residency.
	resident bool
	dead     bool // evicted or load-failed: cold next arrival
	// deadByFail marks dead windows killed by a node failure or drain
	// (vs eviction/pressure): it selects the cold-start attribution
	// class at the next arrival. Meaningless while !dead.
	deadByFail bool
	loadedAt   float64 // start of the idle-loaded segment
	unloadAt   float64 // scheduled expiry (+Inf for forever)
	placed     bool
}

// nodeState is one node's runtime state: resident accounting, the
// victim index, and the published stats.
type nodeState struct {
	residentMB  float64
	lastT       float64
	capMB       float64       // live capacity (+Inf when infinite; resize events mutate)
	down        bool          // failed or drained out of service
	residentCnt int           // containers resident now (finite runs)
	victims     []victimEntry // min-heap on (unloadAt, app), lazily invalidated
	stats       NodeStats
}

// engine is one cluster simulation in flight: the resolved
// configuration and the app/node state the shards operate on. The
// engine itself holds no event ordering — that lives in the shards.
type engine struct {
	cfg     Config
	capMB   float64 // +Inf when infinite
	finite  bool    // victim index maintained only under pressure
	horizon float64
	place   Placement
	tr      *trace.Trace
	pol     policy.Policy
	states  []appState
	nodes   []nodeState

	// Streaming-precompute accounting: bytes of decision walks
	// currently materialized and the peak across the run. On the
	// sharded path walks are produced per node just in time, so the
	// peak is O(workers × apps-per-node) — constant in total app count
	// at fixed per-node density (pinned by TestStreamingWalkMemory).
	walkLive atomic.Int64
	walkPeak atomic.Int64
}

func simulate(ctx context.Context, tr *trace.Trace, pol policy.Policy, cfg Config) (*Result, error) {
	e, err := runEngine(ctx, tr, pol, cfg)
	if err != nil {
		return nil, err
	}
	return e.finish(pol.Name()), nil
}

// runEngine validates the configuration and drives the simulation to
// the horizon, returning the engine with its final state (the tests
// probing internals — walk-memory peaks — call it directly).
func runEngine(ctx context.Context, tr *trace.Trace, pol policy.Policy, cfg Config) (*engine, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.Placement == nil {
		cfg.Placement = HashPlacement{}
	}
	if cfg.DefaultAppMemMB <= 0 {
		cfg.DefaultAppMemMB = trace.DefaultAppMemoryMB
	}
	capMB := cfg.NodeMemMB
	if capMB <= 0 {
		capMB = math.Inf(1)
	}
	if err := validateEvents(cfg.Events, cfg.Nodes); err != nil {
		return nil, err
	}
	// The victim index is maintained whenever any node can come under
	// pressure — including an initially-infinite cluster a resize
	// event later makes finite.
	finite := !math.IsInf(capMB, 1)
	for _, ev := range cfg.Events {
		if ev.Kind == EventResize && ev.MemMB > 0 {
			finite = true
		}
	}

	e := &engine{
		cfg:     cfg,
		capMB:   capMB,
		finite:  finite,
		horizon: tr.Duration.Seconds(),
		place:   cfg.Placement,
		tr:      tr,
		pol:     pol,
	}
	e.initStates(tr)
	var err error
	if e.sharded() {
		err = e.runSharded(ctx)
	} else {
		if err = e.precomputeAll(ctx); err != nil {
			return nil, err
		}
		err = e.runGlobal(ctx)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// sharded reports whether the run takes the per-node parallel path:
// the placement must be oblivious (pre-assignable without observing
// live residency), no cluster events may be configured (displacement
// re-placement couples nodes at event time), and the reference global
// path not forced.
func (e *engine) sharded() bool {
	if e.cfg.forceGlobal || len(e.cfg.Events) > 0 {
		return false
	}
	o, ok := e.place.(Oblivious)
	return ok && o.Oblivious()
}

// workerCount resolves Config.Workers against an upper bound.
func (e *engine) workerCount(limit int) int {
	w := e.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > limit {
		w = limit
	}
	return w
}

// produceWalk runs the shared kernel over one app into wk and wires it
// to the app's state: idle times, batch decisions (released back to
// the policy pool), and exec times, copied out of the worker-local
// scratch. Both paths call exactly this per app — a walk depends only
// on the app and the policy, never on when or where it is produced, so
// just-in-time production is bit-identical to the old up-front
// materialization.
func (e *engine) produceWalk(ai int32, sc *kernel.Scratch, wk *appWalk) {
	times, execs, runs := sc.Walk(e.pol, e.tr.Apps[ai], e.cfg.UseExecTime)
	*wk = appWalk{times: times}
	if len(times) > 0 {
		wk.execs = append([]float64(nil), execs...)
		wk.runs = append([]policy.DecisionRun(nil), runs...)
	}
	st := &e.states[ai]
	st.walk = wk
	st.cur.Reset(wk.runs)
	if b := wk.bytes(); b > 0 {
		live := e.walkLive.Add(b)
		for {
			p := e.walkPeak.Load()
			if live <= p || e.walkPeak.CompareAndSwap(p, live) {
				break
			}
		}
	}
}

// releaseWalks drops a completed node's walks: the cursors keep their
// final decision (finish books trailing windows from the value fields
// alone), the run and exec copies go back to the collector.
func (e *engine) releaseWalks(apps []int32) {
	var freed int64
	for _, ai := range apps {
		st := &e.states[ai]
		if st.walk == nil {
			continue
		}
		freed += st.walk.bytes()
		st.walk = nil
		st.cur.ReleaseRuns()
	}
	e.walkLive.Add(-freed)
}

// precomputeAll materializes every walk up front — the global path's
// requirement: one sequential shard interleaves all apps, so no walk
// can be released before the end of the run.
func (e *engine) precomputeAll(ctx context.Context) error {
	n := len(e.tr.Apps)
	if n == 0 {
		return ctx.Err()
	}
	walks := make([]appWalk, n)
	workers := e.workerCount(n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc kernel.Scratch
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				e.produceWalk(int32(i), &sc, &walks[i])
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// initStates builds the runtime state: per-app states, per-node
// accounting, and the offline placement preparation. Walks are not
// touched — invocation counts come straight from the trace.
func (e *engine) initStates(tr *trace.Trace) {
	n := len(tr.Apps)
	e.states = make([]appState, n)
	var fps []Footprint
	if _, ok := e.place.(TracePreparer); ok {
		fps = make([]Footprint, 0, n)
	}
	for i, app := range tr.Apps {
		st := &e.states[i]
		st.memMB = app.MemoryMB
		if st.memMB <= 0 {
			st.memMB = e.cfg.DefaultAppMemMB
		}
		st.node = -1
		st.res = AppResult{
			AppResult: sim.AppResult{AppID: app.ID, Invocations: app.TotalInvocations()},
			Node:      -1,
			MemoryMB:  st.memMB,
		}
		if fps != nil {
			fps = append(fps, Footprint{ID: app.ID, MemMB: st.memMB, Invocations: st.res.Invocations})
		}
	}
	if fps != nil {
		e.place.(TracePreparer).Prepare(fps, e.cfg.Nodes, e.capMB)
	}

	minutes := int(math.Ceil(e.horizon / 60))
	if minutes < 1 && e.horizon > 0 {
		minutes = 1
	}
	e.nodes = make([]nodeState, e.cfg.Nodes)
	for i := range e.nodes {
		e.nodes[i].capMB = e.capMB
		e.nodes[i].stats.UtilSeries = make([]float64, minutes)
	}
}

// preassign places every app with invocations before the run
// (oblivious path only). Place sees the static cluster shape but not
// live residency — the static view's ResidentMB panics, enforcing the
// Oblivious contract on custom placements. Apps with no invocations
// never load and keep Node == -1, exactly as on the lazy global path.
func (e *engine) preassign() {
	view := staticView{nodes: len(e.nodes), capMB: e.capMB}
	for ai := range e.states {
		st := &e.states[ai]
		if st.res.Invocations == 0 {
			continue
		}
		node := e.place.Place(Footprint{ID: st.res.AppID, MemMB: st.memMB, Invocations: st.res.Invocations}, view)
		if node < 0 || node >= len(e.nodes) {
			panic("cluster: placement returned node out of range")
		}
		st.placed = true
		st.node = int32(node)
		st.res.Node = node
	}
}

// runGlobal drives every node on one sequential shard holding the
// whole merged invocation stream — the only schedule under which a
// view-dependent placement's residency reads are well-defined.
func (e *engine) runGlobal(ctx context.Context) error {
	all := make([]int32, len(e.states))
	for ai := range all {
		all[ai] = int32(ai)
	}
	sh := shard{e: e}
	sh.buildStream(all)
	// Timed cluster events enter the queue up front; cevent.app carries
	// the event's Config.Events index, so equal-time events pop in
	// spec order. Events past the horizon cannot be observed.
	for idx, ev := range e.cfg.Events {
		if ev.At <= e.horizon {
			sh.pushEvent(cevent{t: ev.At, kind: evCluster, app: int32(idx)})
		}
	}
	return sh.timeline(ctx)
}

// runSharded is the oblivious-placement fast path: every app is
// pre-assigned and each node's timeline runs to completion
// independently, workerCount at a time. Walks are produced per node
// just in time — a worker computes its current node's walks, builds
// that node's invocation stream (buildStream), replays the timeline,
// and releases the walks before stealing the next node. Only
// O(workers × apps-per-node) walks are ever live, instead of O(apps);
// everything else (assignment, per-app results) stays O(apps) scalars.
// Node timelines share no mutable state (all cluster coupling is
// per-node), so the results are bit-identical to runGlobal for any
// worker count.
func (e *engine) runSharded(ctx context.Context) error {
	e.preassign()
	counts := make([]int, len(e.nodes))
	for ai := range e.states {
		if st := &e.states[ai]; st.placed {
			counts[st.node]++
		}
	}
	appsByNode := make([][]int32, len(e.nodes))
	for n, c := range counts {
		appsByNode[n] = make([]int32, 0, c)
	}
	for ai := range e.states {
		if st := &e.states[ai]; st.placed {
			appsByNode[st.node] = append(appsByNode[st.node], int32(ai))
		}
	}

	workers := e.workerCount(len(e.nodes))
	if workers <= 0 {
		return ctx.Err()
	}
	var next atomic.Int64
	errs := make([]error, len(e.nodes))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc kernel.Scratch
			var walks []appWalk
			sh := shard{e: e}
			for {
				n := int(next.Add(1) - 1)
				if n >= len(e.nodes) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[n] = err
					continue
				}
				apps := appsByNode[n]
				if cap(walks) < len(apps) {
					walks = make([]appWalk, len(apps))
				}
				walks = walks[:len(apps)]
				for wi, ai := range apps {
					e.produceWalk(ai, &sc, &walks[wi])
				}
				sh.buildStream(apps)
				sh.reset()
				errs[n] = sh.timeline(ctx)
				e.releaseWalks(apps)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// finish books trailing windows, flushes node integrals to the
// horizon, and assembles the Result.
func (e *engine) finish(polName string) *Result {
	res := &Result{
		Policy:         polName,
		Placement:      e.place.Name(),
		Nodes:          e.cfg.Nodes,
		NodeMemMB:      e.cfg.NodeMemMB,
		HorizonSeconds: e.horizon,
		Apps:           make([]AppResult, len(e.states)),
		NodeStats:      make([]NodeStats, len(e.nodes)),
	}
	if res.NodeMemMB < 0 {
		res.NodeMemMB = 0
	}
	for i := range e.states {
		st := &e.states[i]
		if st.res.Invocations > 0 && !st.dead {
			st.res.WastedSeconds += kernel.TrailingWaste(
				st.cur.D, st.cur.PwSec, st.cur.KaSec, st.prevEnd, e.horizon)
		}
		st.res.WastedMBSeconds = st.res.WastedSeconds * st.memMB
		res.Apps[i] = st.res
	}
	for i := range e.nodes {
		nd := &e.nodes[i]
		nd.advance(e.horizon, e.horizon)
		// Normalize the series from MB·s to mean MB per bin (the last
		// bin may cover less than a minute).
		for b := range nd.stats.UtilSeries {
			width := math.Min(60, e.horizon-float64(b)*60)
			if width > 0 {
				nd.stats.UtilSeries[b] /= width
			}
		}
		res.NodeStats[i] = nd.stats
	}
	return res
}

// View implementation (view-dependent placement decisions observe the
// live engine on the global path).

// NumNodes implements View.
func (e *engine) NumNodes() int { return len(e.nodes) }

// CapacityMB implements View.
func (e *engine) CapacityMB() float64 { return e.capMB }

// ResidentMB implements View.
func (e *engine) ResidentMB(node int) float64 { return e.nodes[node].residentMB }

// Up implements View.
func (e *engine) Up(node int) bool { return !e.nodes[node].down }
