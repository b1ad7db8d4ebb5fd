package cluster

import (
	"context"
	"math"
	"runtime"
	"slices"
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
	execs []float64 // per invocation; nil when every invocation's is exec
	exec  float64   // the shared exec time when execs is nil (0 without exec times)
	runs  []policy.DecisionRun
}

// execAt returns invocation i's exec time.
func (w *appWalk) execAt(i int) float64 {
	if w.execs != nil {
		return w.execs[i]
	}
	return w.exec
}

// bytes is the heap footprint the walk's owned slices pin: the run
// copy and, when exec times vary, the exec copy. times aliases trace
// memory — the function's own list for a single-function app, the
// app's merged list otherwise — which exists either way, not walk
// memory.
func (w *appWalk) bytes() int64 {
	return int64(cap(w.execs))*8 + int64(cap(w.runs))*int64(unsafe.Sizeof(policy.DecisionRun{}))
}

// appState is one app's runtime state on the timeline. Exactly one
// shard ever touches an app's state (the shard running its part), so
// parts need no synchronization around it.
type appState struct {
	walk    *appWalk // live while the app's part is running (see produceWalk)
	cur     kernel.RunCursor
	res     AppResult
	memMB   float64
	prevEnd float64 // end of the last execution
	execEnd float64 // container unevictable before this
	inv     int     // next invocation index
	node    int32
	// pos is the app's slot in its node's victim index while indexed:
	// i for victims[i], ^i for parked[i].
	pos int32
	// Current window residency.
	resident bool
	dead     bool // evicted or load-failed: cold next arrival
	// deadByFail marks dead windows killed by a node failure or drain
	// (vs eviction/pressure): it selects the cold-start attribution
	// class at the next arrival. Meaningless while !dead.
	deadByFail bool
	// indexed: the app has an entry in its node's victim index (finite
	// runs) — every resident app, and an unloaded app whose victims
	// entry is left as a tombstone until a pick pops it, a load revives
	// it or a displacement removes it.
	indexed  bool
	loadedAt float64 // start of the idle-loaded segment
	unloadAt float64 // scheduled expiry (+Inf for forever)
	placed   bool
}

// nodeState is one node's runtime state: resident accounting, the
// victim index, and the published stats.
type nodeState struct {
	residentMB float64
	lastT      float64
	capMB      float64 // live capacity (+Inf when infinite; resize events mutate)
	down       bool    // failed or drained out of service
	// The victim index holds at most one entry per app placed here
	// (finite runs). victims is keyed by (unloadAt, app), lazily: a
	// resident container's stored key is a lower bound of its live
	// expiry, and an unloaded container's entry stays as a tombstone;
	// pickVictim settles both when they reach the root. parked is keyed
	// exactly by (execEnd, app), for resident containers a selection
	// found executing.
	victims victimHeap
	parked  victimHeap
	stats   NodeStats
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
	// currently materialized and the peak across the run. Walks are
	// produced per part and released with it, so a sharded run peaks at
	// O(workers × apps-per-node) — constant in total app count at fixed
	// per-node density (pinned by TestStreamingWalkMemory).
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
	if err := e.run(ctx); err != nil {
		return nil, err
	}
	return e, nil
}

// produceWalk runs the shared kernel over one app into wk and wires it
// to the app's state: idle times, batch decisions (released back to
// the policy pool), and exec times, copied out of the worker-local
// scratch. A walk depends only on the app and the policy, never on
// when or where it is produced, so producing it per part is
// bit-identical to producing every walk up front.
func (e *engine) produceWalk(ai int32, sc *kernel.Scratch, wk *appWalk) {
	times, execs, runs := sc.Walk(e.pol, e.tr.Apps[ai], e.cfg.UseExecTime)
	*wk = appWalk{times: times}
	if len(times) > 0 {
		// Exec times are per-function constants, so most walks share
		// one value and store it instead of a copy.
		if len(execs) > 0 {
			wk.exec = execs[0]
			if slices.ContainsFunc(execs, func(x float64) bool { return x != wk.exec }) {
				wk.execs = append([]float64(nil), execs...)
			}
		}
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

// releaseWalks drops a completed part's walks: the cursors keep their
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
			st.memMB = trace.DefaultAppMemoryMB
		}
		st.node = -1
		st.res = AppResult{
			AppResult: sim.AppResult{AppID: app.ID, Invocations: app.TotalInvocations()},
			Node:      -1,
			MemoryMB:  st.memMB,
		}
		if fps != nil {
			fps = append(fps, Footprint{ID: app.ID, MemMB: st.memMB})
		}
	}
	if fps != nil {
		e.place.(TracePreparer).Prepare(fps, e.cfg.Nodes, e.capMB)
	}

	e.nodes = make([]nodeState, e.cfg.Nodes)
	for i := range e.nodes {
		e.nodes[i].capMB = e.capMB
		e.nodes[i].parked.mask = ^0
	}
}

// parts splits the run into independent parts, each a list of app
// indices. A run is split into one part per node when the placement is
// oblivious (pre-assignable without observing live residency) and no
// cluster events are configured (displacement re-placement couples
// nodes at event time): every app with invocations is placed up front,
// and node timelines share no mutable state. Place then sees the
// static cluster shape but not live residency — the static view's
// ResidentMB panics, enforcing the Oblivious contract on custom
// placements — and apps with no invocations never load and keep
// Node == -1, exactly as when placed at first load. Any other run (or
// forceGlobal) is a single part holding every app, so view-dependent
// placements and cluster events observe live state in global time
// order. The split changes the schedule, never the arithmetic.
func (e *engine) parts() [][]int32 {
	o, ok := e.place.(Oblivious)
	if e.cfg.forceGlobal || len(e.cfg.Events) > 0 || !ok || !o.Oblivious() {
		all := make([]int32, len(e.states))
		for ai := range all {
			all[ai] = int32(ai)
		}
		return [][]int32{all}
	}
	view := staticView{nodes: len(e.nodes)}
	byNode := make([][]int32, len(e.nodes))
	for ai := range e.states {
		st := &e.states[ai]
		if st.res.Invocations == 0 {
			continue
		}
		node := e.place.Place(Footprint{ID: st.res.AppID, MemMB: st.memMB}, view)
		if node < 0 || node >= len(e.nodes) {
			panic("cluster: placement returned node out of range")
		}
		st.placed = true
		st.node = int32(node)
		st.res.Node = node
		byNode[node] = append(byNode[node], int32(ai))
	}
	return byNode
}

// run simulates every part: min(GOMAXPROCS, parts) workers take parts
// from a shared cursor, and each part's walks are produced on
// GOMAXPROCS/parts goroutines (at least one), so a single-part run
// walks every app GOMAXPROCS wide. Outcomes do not depend on either
// count. A worker stops at its first error; run returns the first
// error in part order.
func (e *engine) run(ctx context.Context) error {
	parts := e.parts()
	w := runtime.GOMAXPROCS(0)
	walkers := max(1, w/len(parts))
	errs := make([]error, len(parts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(w, len(parts)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := shard{e: e}
			for {
				p := int(next.Add(1) - 1)
				if p >= len(parts) {
					return
				}
				if errs[p] = s.runPart(ctx, parts[p], walkers); errs[p] != nil {
					return
				}
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

// runPart simulates one part to the horizon: it produces the part's
// walks, queues the timed cluster events, replays the stream, and
// releases the walks, so only the running parts' walks are ever live.
func (s *shard) runPart(ctx context.Context, apps []int32, walkers int) error {
	e := s.e
	s.flushes = s.flushes[:0]
	err := s.produceWalks(ctx, apps, walkers)
	if err == nil {
		// cevent.app carries the event's Config.Events index, so
		// equal-time events pop in spec order. Events past the horizon
		// cannot be observed.
		for idx, ev := range e.cfg.Events {
			if ev.At <= e.horizon {
				s.q.push(cevent{t: ev.At, kind: evCluster, app: int32(idx)})
			}
		}
		err = s.replay(ctx, apps)
	}
	e.releaseWalks(apps)
	return err
}

// produceWalks runs the shared kernel over the part's apps on walkers
// goroutines, each with its own scratch; the worker's own goroutine is
// the first of them.
func (s *shard) produceWalks(ctx context.Context, apps []int32, walkers int) error {
	if cap(s.walks) < len(apps) {
		s.walks = make([]appWalk, len(apps))
	}
	s.walks = s.walks[:len(apps)]
	for len(s.scratch) < walkers {
		s.scratch = append(s.scratch, new(kernel.Scratch))
	}
	var next atomic.Int64
	walk := func(sc *kernel.Scratch) {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(apps) {
				return
			}
			s.e.produceWalk(apps[i], sc, &s.walks[i])
		}
	}
	var wg sync.WaitGroup
	for _, sc := range s.scratch[1:walkers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			walk(sc)
		}()
	}
	walk(s.scratch[0])
	wg.Wait()
	return ctx.Err()
}

// replay runs the part's timeline epoch by epoch. The epochs are built
// on a producer goroutine into the shard's two buffers, so epoch k+1 is
// derived while the timeline consumes epoch k; the timeline alone
// touches run state.
func (s *shard) replay(ctx context.Context, apps []int32) error {
	b := &s.b
	b.reset(s.e, apps)
	// The buffers circulate: free → producer (build) → ready →
	// timeline → free. Each channel has room for both, so no send can
	// block, and closing done is all it takes to stop the producer.
	ready, free := make(chan []sev, 2), make(chan []sev, 2)
	free <- s.bufs[0]
	free <- s.bufs[1]
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < b.epochs; k++ {
			select {
			case buf := <-free:
				ready <- b.epoch(buf, b.until(k))
			case <-done:
				return
			}
		}
	}()
	defer func() {
		close(done)
		wg.Wait()
	}()
	for k := 0; k < b.epochs; k++ {
		stream := <-ready
		if err := s.timeline(ctx, stream, b.until(k)); err != nil {
			return err
		}
		free <- stream
	}
	// Both buffers are back in free. The larger goes out first next
	// part: a run of one-epoch parts then reuses it alone instead of
	// alternating between the two and growing both.
	s.bufs[0], s.bufs[1] = <-free, <-free
	if cap(s.bufs[1]) > cap(s.bufs[0]) {
		s.bufs[0], s.bufs[1] = s.bufs[1], s.bufs[0]
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
		res.Apps[i] = st.res
	}
	for i := range e.nodes {
		nd := &e.nodes[i]
		nd.advance(e.horizon, e.horizon)
		res.NodeStats[i] = nd.stats
	}
	return res
}

// View implementation (view-dependent placement decisions observe the
// live engine from a one-part run).

// NumNodes implements View.
func (e *engine) NumNodes() int { return len(e.nodes) }

// ResidentMB implements View.
func (e *engine) ResidentMB(node int) float64 { return e.nodes[node].residentMB }

// Up implements View.
func (e *engine) Up(node int) bool { return !e.nodes[node].down }
