package cluster

import (
	"context"
	"math"
	"slices"

	"repro/internal/sim/kernel"
)

// Event kinds, in processing order at equal times: timed cluster
// events first (an incident at t shapes everything else at t), then
// pre-warm reloads (an arrival exactly at the reload is warm),
// invocations, keep-alive expiries (an arrival exactly at the window
// end is warm), and drain flushes last — the order realizes
// kernel.Classify's inclusive boundaries, and lets a fail at t retire
// a reload at t before it fires. Reloads, invocations and unloads are
// a pure function of each app's walk: streamBuilder derives them into
// the shard's stream. Only cluster events and flushes, which depend on
// the run itself, go through the event queue.
const (
	evCluster = iota // Config.Events incident, queued; app = event index
	evReload         // stream: pre-warm reload
	evInvoke         // stream: invocation
	evUnload         // stream: keep-alive or pre-warm unload
	evFlush          // drained container's execution ended, queued; app = flush index
)

// cevent is one queued event: app indexes Config.Events (evCluster) or
// shard.flushes (evFlush).
type cevent struct {
	t    float64
	kind uint8
	app  int32
}

// drainFlush is the node-level release of one draining container: the
// drain detached the app immediately, the node's memory frees when
// the in-flight execution ends.
type drainFlush struct {
	node  int32
	memMB float64
}

// sev is one entry of a shard's stream: an invocation, or a reload or
// unload derived from the app's walk.
type sev struct {
	t    float64
	app  int32
	kind uint8
}

// victimEntry is one app's entry in its node's victim index: key is a
// lower bound of its scheduled expiry in victims (any key for a
// tombstone, an unloaded container's entry), its execution end in
// parked.
type victimEntry struct {
	key float64
	app int32
}

// shard is one worker of the run (engine.run) and everything it
// reuses from part to part: the part's walks and the scratch that
// produces them, the streamBuilder and its two stream buffers, and the
// event queue of cluster events and drain flushes. Its timeline replays
// the part's stream, built epoch by epoch in (time, kind, app) order
// from the part's walks and holding their invocations and every reload
// and unload their windows prescribe. A part is one node of a sharded
// run or every node of any other run; the per-node mechanics below are
// the same either way — only the interleaving across nodes differs,
// and that is unobservable node-locally.
type shard struct {
	e       *engine
	q       eventQueue        // cluster events and drain flushes (queue.go)
	flushes []drainFlush      // pending drain-outs, indexed by evFlush events
	walks   []appWalk         // the current part's walks
	scratch []*kernel.Scratch // one per walk goroutine
	b       streamBuilder
	bufs    [2][]sev // the stream buffers, larger first between parts
}

// cmpSev orders a stream by (time, kind, app) — eventLess's order.
// Equal keys only arise for one app's simultaneous entries of one
// kind, which are indistinguishable.
func cmpSev(a, b sev) int {
	if a.t != b.t {
		if a.t < b.t {
			return -1
		}
		return 1
	}
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	return int(a.app) - int(b.app)
}

// epochEntries is the stream size one epoch aims at, estimated by its
// invocations: 2^18 entries, 4 MiB of sev. Past it, a whole-horizon
// stream's buckets hit their cap and hold dozens of entries each, and
// its buffer grows with the trace.
const epochEntries = 1 << 18

// streamBuilder derives a shard's stream one epoch at a time: the
// horizon is cut into equal-time epochs of about epochEntries
// invocations, and each epoch's stream holds exactly the invocations and derived
// container events inside [lo, hi), in cmpSev order, so the epochs'
// concatenation is the whole run's stream. Each epoch is bucketed on
// its own: one pass counts its entries into nb equal-width time
// buckets over the epoch, a second derives them again and writes each
// straight into its bucket, and only each bucket's handful is
// compared. The clamped bucket index is monotone in t, so the epoch is
// exactly sorted. Each bucket is three slots — reloads, invocations,
// unloads — and every app's entries of one kind are ascending, so the
// app-ordered scatter lands each equal-time run (long on minute-lattice
// traces) already sorted.
//
// Every derived event lies inside its own window [t_i, t_{i+1}], so an
// epoch needs, per app, only the invocations before its end and the
// last one before its start: each app's cursor rests at its last
// invocation before the previous epoch's end, and at most that one
// invocation is scanned twice. The builder's buffers are reused across
// epochs and parts.
type streamBuilder struct {
	apps    []appCursor
	slots   []int32 // per-slot counts, then offsets
	horizon float64
	lo      float64 // start of the next epoch (-Inf before the first)
	epochs  int     // epochs of the equal-time partition
	nb      int     // buckets per epoch
}

// appCursor is one app's place in its walk: inv is its last invocation
// before the last built epoch's end (0 before the first), in decision
// run run, which starts at invocation runStart.
type appCursor struct {
	w        *appWalk
	ai       int32
	run      int32
	inv      int
	runStart int
}

// reset points the builder at the apps' walks, before the first epoch,
// and partitions the horizon into epochs (forced by Config.epochs in
// tests).
func (b *streamBuilder) reset(e *engine, apps []int32) {
	b.apps = b.apps[:0]
	n := 0
	for _, ai := range apps {
		w := e.states[ai].walk
		b.apps = append(b.apps, appCursor{w: w, ai: ai})
		n += len(w.times)
	}
	b.horizon = e.horizon
	b.lo = math.Inf(-1)
	b.epochs = e.cfg.epochs
	if b.epochs <= 0 {
		b.epochs = max(1, (n+epochEntries-1)/epochEntries)
	}
	b.nb = min(n/b.epochs/4+1, 1<<16)
}

// until returns the end of epoch k: an equal share of the horizon, and
// +Inf for the last epoch, which also takes every entry past the
// horizon.
func (b *streamBuilder) until(k int) float64 {
	if k >= b.epochs-1 {
		return math.Inf(1)
	}
	return b.horizon * float64(k+1) / float64(b.epochs)
}

// epoch builds the stream of the next epoch, [lo, hi), into buf's
// storage and returns it; the following epoch starts at hi.
func (b *streamBuilder) epoch(buf []sev, hi float64) []sev {
	nb := b.nb
	b.slots = slices.Grow(b.slots[:0], 3*nb)[:3*nb]
	clear(b.slots)
	// Buckets span the epoch clipped to [0, horizon]; the clamp files
	// anything outside into the end buckets.
	from, to := max(b.lo, 0), min(hi, b.horizon)
	p := streamPass{slots: b.slots, lo: b.lo, hi: hi, from: from, last: float64(nb - 1), horizon: b.horizon}
	if to > from {
		p.scale = float64(nb) / (to - from)
	}
	for k := range b.apps {
		p.app(&b.apps[k])
	}
	var start int32
	for k, c := range b.slots {
		b.slots[k] = start
		start += c
	}
	// Scatter: slots[k] advances from slot k's start to its end.
	out := slices.Grow(buf[:0], int(start))[:start]
	p.out, p.place = out, true
	for k := range b.apps {
		c := &b.apps[k]
		i, run, runStart := p.app(c)
		if i > c.inv {
			// Rest on the last invocation before hi: its window may
			// still derive events at or past hi.
			i--
			for i < runStart {
				run--
				runStart -= int(c.w.runs[run].N)
			}
			c.inv, c.run, c.runStart = i, int32(run), runStart
		}
	}
	begin := int32(0)
	for k := 2; k < len(b.slots); k += 3 {
		if end := b.slots[k]; end-begin > 1 {
			slices.SortFunc(out[begin:end], cmpSev)
		}
		begin = b.slots[k]
	}
	b.lo = hi
	return out
}

// streamPass is one of an epoch's two passes over the walks: the count
// pass bumps each entry's slot count, the scatter pass (place) writes
// the entry at its slot's cursor and advances it. Entries outside the
// epoch [lo, hi) are skipped.
type streamPass struct {
	slots                      []int32
	out                        []sev
	place                      bool
	lo, hi                     float64
	from, scale, last, horizon float64
}

// put files one entry of the epoch under its time bucket's slot for
// kind. The clamp is two branches rather than min/max, whose NaN
// handling measured ~15% slower over the whole pass.
func (p *streamPass) put(t float64, kind uint8, ai int32) {
	if t < p.lo || t >= p.hi {
		return
	}
	x := (t - p.from) * p.scale
	if x > p.last {
		x = p.last
	}
	if !(x >= 0) {
		x = 0
	}
	k := 3*int(x) + int(kind-evReload)
	if p.place {
		p.out[p.slots[k]] = sev{t: t, app: ai, kind: kind}
	}
	p.slots[k]++
}

// app feeds the pass one app's invocations from its cursor up to the
// epoch's end and, after each, the container events its window
// prescribes (schedule's residency plan):
//   - a keep-alive window unloads at end + KaSec;
//   - a pre-warmed window unloads at the execution end (immediately,
//     in schedule, when there is no execution time), reloads at
//     end + PwSec and unloads again at reload + KaSec.
//
// An event is derived only if it can fire: before the horizon and
// before the app's next arrival — strictly for unloads (an arrival at
// the window end is warm and opens the next window), inclusively for
// reloads (reloads sort before invocations). Every event therefore
// fires inside its own window, and a window that dies first (failed
// load, evict, displace) is dead and not resident, which makes its
// remaining events no-ops. A reload also needs load > t: a pre-warm
// below half an ulp of end (for a 1 ns pre-warm, only past 2^24 s, or
// 194 days, of trace) would sort before the invocation opening its
// window, so it rounds to none.
//
// It returns the first invocation at or past hi, its decision run and
// the run's first invocation.
func (p *streamPass) app(c *appCursor) (i, run, runStart int) {
	w, ai := c.w, c.ai
	times, horizon := w.times, p.horizon
	i, run, runStart = c.inv, int(c.run), c.runStart
	for i < len(times) && times[i] < p.hi {
		d := w.runs[run].D
		pw, ka := d.PreWarm.Seconds(), d.KeepAlive.Seconds()
		runEnd := runStart + int(w.runs[run].N)
		for ; i < runEnd && times[i] < p.hi; i++ {
			t := times[i]
			p.put(t, evInvoke, ai)
			if d.Forever {
				continue
			}
			next := math.Inf(1)
			if i+1 < len(times) {
				next = times[i+1]
			}
			end := t + w.execAt(i)
			if d.PreWarm == 0 {
				if u := end + ka; u < horizon && u < next {
					p.put(u, evUnload, ai)
				}
				continue
			}
			if end > t && end < horizon && end < next {
				p.put(end, evUnload, ai)
			}
			if load := end + pw; t < load && load < horizon && load <= next {
				p.put(load, evReload, ai)
				if u := load + ka; u < horizon && u < next {
					p.put(u, evUnload, ai)
				}
			}
		}
		if i == runEnd {
			run, runStart = run+1, runEnd
		}
	}
	return i, run, runStart
}

// timeline is the discrete-event loop over one epoch: the epoch's
// stream and the shard's event queue advance together in (time, kind)
// order, and once the stream is drained, queued events before until
// fire too. Every later epoch's entries lie at or past until, so an
// event exactly at until waits for the next epoch, whose merge orders
// it by kind. The queue stays empty in a sharded run.
func (s *shard) timeline(ctx context.Context, stream []sev, until float64) error {
	si := 0
	for steps := 0; si < len(stream) || len(s.q.evs) > 0; steps++ {
		if steps&4095 == 0 && ctx.Err() != nil {
			return ctx.Err() // checked at each epoch's start, then every 4096 steps
		}
		if ev, ok := s.q.peek(); ok && (si >= len(stream) && ev.t < until ||
			si < len(stream) && (ev.t < stream[si].t || (ev.t == stream[si].t && ev.kind < stream[si].kind))) {
			s.q.pop()
			if ev.kind == evCluster {
				s.applyClusterEvent(int(ev.app), ev.t)
			} else {
				s.applyFlush(int(ev.app), ev.t)
			}
			continue
		}
		if si >= len(stream) {
			break // the queue's head waits for the next epoch
		}
		en := stream[si]
		si++
		switch en.kind {
		case evInvoke:
			s.invoke(en.app, en.t)
		case evReload:
			s.reload(en.app, en.t)
		case evUnload:
			if s.e.states[en.app].resident {
				s.removeResident(en.app, en.t)
			}
		}
	}
	return nil
}

// invoke processes one arrival: classify against the previous window
// (eviction overrides the nominal outcome), load on cold, advance the
// decision cursor, and open the next window.
func (s *shard) invoke(ai int32, t float64) {
	e := s.e
	st := &e.states[ai]
	i := st.inv
	st.inv++

	warm := false
	if i == 0 {
		st.res.ColdStarts = 1 // the first invocation is always cold (§5.1)
	} else {
		nomWarm, wasted := kernel.Classify(st.cur.D, st.cur.PwSec, st.cur.KaSec, st.prevEnd, t)
		if st.dead {
			// The warm container was evicted, lost to a node event, or
			// never fit: the arrival is cold regardless of the window;
			// its truncated waste was booked when the window died.
			st.res.ColdStarts++
			if nomWarm {
				if st.deadByFail {
					st.res.FailureColdStarts++
				} else {
					st.res.EvictionColdStarts++
				}
			}
		} else {
			warm = nomWarm
			if !warm {
				st.res.ColdStarts++
			}
			st.res.WastedSeconds += wasted
		}
	}
	st.dead = false
	st.deadByFail = false

	// A warm hit continues the resident container. A cold start loads
	// now — unless the container is still in memory (overlapping
	// executions, or a pre-warm gap arrival at the exact unload
	// instant), in which case the memory never left.
	if !warm && !st.resident {
		if !s.load(ai, t) {
			st.dead = true // transient execution, no residency this window
		}
	}

	// Advance to the decision governing this invocation, then open its
	// window from the execution end.
	st.cur.Step(&st.res.ModeCounts)
	st.prevEnd = t + st.walk.execAt(i)
	if st.prevEnd > st.execEnd {
		st.execEnd = st.prevEnd
	}
	if !st.dead {
		s.schedule(ai, t)
	}
}

// schedule opens the window st.cur.D prescribes after the execution
// ending at st.prevEnd, for the invocation at t: the residency plan
// and the container's scheduled expiry. The window's unloads and
// pre-warm reload are already in the stream (streamPass.app).
func (s *shard) schedule(ai int32, t float64) {
	st := &s.e.states[ai]
	switch d := st.cur.D; {
	case d.Forever:
		st.loadedAt = st.prevEnd
		s.setExpiry(ai, st, math.Inf(1))
	case d.PreWarm == 0:
		st.loadedAt = st.prevEnd
		s.setExpiry(ai, st, st.prevEnd+st.cur.KaSec)
	case st.prevEnd <= t:
		// Pre-warmed window with zero execution time: the unload is
		// immediate.
		if st.resident {
			s.removeResident(ai, st.prevEnd)
		}
	default:
		// Pre-warmed window: unload at execution end, reload PwSec
		// later (the reload re-checks memory pressure).
		s.setExpiry(ai, st, st.prevEnd)
	}
}

// reload serves a pre-warm: the container comes back under the same
// window, pressure permitting.
func (s *shard) reload(ai int32, t float64) {
	st := &s.e.states[ai]
	if st.resident || st.dead {
		return
	}
	if !s.load(ai, t) {
		st.dead = true
		return
	}
	st.loadedAt = t
	s.setExpiry(ai, st, t+st.cur.KaSec)
}

// setExpiry records the container's scheduled expiry and, on finite
// runs, keeps its victims key a lower bound of it while resident: an
// earlier expiry re-keys the entry and sifts it up, a later one leaves
// the key stale-low for pickVictim to settle. A parked entry moves
// back to victims, since its execution end may have moved too. Every
// write of unloadAt for a resident container goes through here, so no
// stored key is ever above its container's live expiry.
func (s *shard) setExpiry(ai int32, st *appState, unloadAt float64) {
	st.unloadAt = unloadAt
	if !s.e.finite || !st.resident {
		return
	}
	states, nd := s.e.states, &s.e.nodes[st.node]
	if st.pos < 0 {
		nd.parked.remove(states, int(^st.pos))
		nd.victims.push(states, victimEntry{key: unloadAt, app: ai})
		return
	}
	if unloadAt < nd.victims.ents[st.pos].key {
		nd.victims.ents[st.pos].key = unloadAt
		nd.victims.up(states, int(st.pos))
	}
}

// load makes the app resident on its node at time t, evicting idle
// containers (soonest-to-expire first) until it fits. It reports
// whether the load succeeded.
func (s *shard) load(ai int32, t float64) bool {
	e := s.e
	st := &e.states[ai]
	if !st.placed {
		// One-part runs only (a sharded run pre-assigns every app):
		// view-dependent placements choose the node at the app's first
		// load, observing live residency.
		app := Footprint{ID: st.res.AppID, MemMB: st.memMB}
		node := e.place.Place(app, e)
		if node < 0 || node >= len(e.nodes) {
			panic("cluster: placement returned node out of range")
		}
		if e.nodes[node].down {
			node = e.nextUp(node)
		}
		if node < 0 {
			// Every node is out of service: the load fails, and the
			// app stays unplaced so the next load re-tries placement
			// (a join may have restored capacity by then).
			st.deadByFail = true
			return false
		}
		st.placed = true
		st.node = int32(node)
		st.res.Node = node
	}
	nd := &e.nodes[st.node]
	if st.memMB > nd.capMB {
		// Larger than a whole node: can never be resident.
		nd.stats.FailedLoads++
		return false
	}
	for nd.residentMB+st.memMB > nd.capMB {
		victim := s.pickVictim(nd, t)
		if victim < 0 {
			nd.stats.FailedLoads++
			return false
		}
		s.evict(victim, t)
	}
	s.addResident(ai, t)
	return true
}

// pickVictim selects the idle resident container closest to its own
// expiry (ties to the lowest app index) — the cheapest reclaim, since
// its remaining keep-alive had the least predicted value. Parked
// containers whose execution has ended by t move back to victims
// first, keyed by their live expiry. Then the root of victims is
// settled until it is a victim: a tombstone (unloaded container) is
// popped, a stale key is raised to its container's live expiry and
// sifted down, and an executing container moves to parked, keyed by
// execution end — it stays resident and may be a victim later. A
// parked entry's key is its container's execEnd (setExpiry moves it
// out whenever an invocation extends it), and t is monotone per shard,
// so every idle container is in victims when the root is read; every
// stored key is at most its container's live key, so a settled root is
// the minimum (unloadAt, app) among them. The root stays indexed: the
// caller evicts it. Returns -1 when nothing is evictable.
func (s *shard) pickVictim(nd *nodeState, t float64) int32 {
	states := s.e.states
	for len(nd.parked.ents) > 0 && nd.parked.ents[0].key <= t {
		ai := nd.parked.ents[0].app
		nd.parked.remove(states, 0)
		nd.victims.push(states, victimEntry{key: states[ai].unloadAt, app: ai})
	}
	for len(nd.victims.ents) > 0 {
		root := &nd.victims.ents[0]
		ai := root.app
		st := &states[ai]
		switch {
		case !st.resident:
			st.indexed = false
			nd.victims.remove(states, 0)
		case root.key < st.unloadAt:
			root.key = st.unloadAt
			nd.victims.down(states, 0)
		case st.execEnd > t:
			nd.victims.remove(states, 0)
			nd.parked.push(states, victimEntry{key: st.execEnd, app: ai})
		default:
			return ai
		}
	}
	return -1
}

// evict reclaims one idle container under pressure at time t: its
// loaded-but-idle time so far is booked (the window's waste is
// truncated, not the nominal full keep-alive), and the window dies —
// the app's next arrival is cold.
func (s *shard) evict(ai int32, t float64) {
	st := &s.e.states[ai]
	st.res.WastedSeconds += t - st.loadedAt
	st.res.Evictions++
	s.e.nodes[st.node].stats.Evictions++
	st.dead = true
	st.deadByFail = false // pressure, not a node event
	s.removeResident(ai, t)
}

// applyClusterEvent applies Config.Events[idx] at its scheduled time.
func (s *shard) applyClusterEvent(idx int, t float64) {
	ev := s.e.cfg.Events[idx]
	switch ev.Kind {
	case EventFail:
		s.failNode(ev.Node, t)
	case EventDrain:
		s.drainNode(ev.Node, t)
	case EventJoin:
		s.e.nodes[ev.Node].down = false
	case EventResize:
		s.resizeNode(ev.Node, ev.MemMB, t)
	}
}

// failNode takes a node down abruptly: every resident container is
// lost instantly — in-flight executions count as failed loads, idle
// containers book their truncated waste — and every app placed here
// is displaced onto a surviving node.
func (s *shard) failNode(node int, t float64) {
	e := s.e
	nd := &e.nodes[node]
	nd.down = true
	for ai := range e.states {
		st := &e.states[ai]
		if !st.placed || int(st.node) != node {
			continue
		}
		if st.resident {
			if st.execEnd > t {
				// The execution dies with the node: a failed load, not
				// waste (the idle segment never started).
				nd.stats.FailedLoads++
			} else {
				st.res.WastedSeconds += t - st.loadedAt
			}
			nd.stats.FailureUnloads++
			s.removeResident(int32(ai), t)
		}
		s.displace(int32(ai))
	}
}

// drainNode takes a node down gracefully: idle containers unload now,
// executing containers finish their work and release the node's
// memory at execution end (a flush event), and every app placed here
// is displaced — arrivals during the drain-out already go to the new
// placement.
func (s *shard) drainNode(node int, t float64) {
	e := s.e
	nd := &e.nodes[node]
	nd.down = true
	for ai := range e.states {
		st := &e.states[ai]
		if !st.placed || int(st.node) != node {
			continue
		}
		if st.resident {
			nd.stats.FailureUnloads++
			if st.execEnd > t {
				// Detach the app now (displace removes its index
				// entry); the node-level memory frees when the
				// in-flight execution ends. No waste: the idle segment
				// never starts.
				st.resident = false
				s.flushes = append(s.flushes, drainFlush{node: int32(node), memMB: st.memMB})
				s.q.push(cevent{t: st.execEnd, kind: evFlush, app: int32(len(s.flushes) - 1)})
			} else {
				st.res.WastedSeconds += t - st.loadedAt
				s.removeResident(int32(ai), t)
			}
		}
		s.displace(int32(ai))
	}
}

// resizeNode sets a node's live capacity; shrinking below the
// resident set evicts idle containers (soonest-to-expire first) until
// the node fits. Executing containers cannot be evicted and may leave
// the node transiently over capacity.
func (s *shard) resizeNode(node int, memMB, t float64) {
	nd := &s.e.nodes[node]
	nd.capMB = memMB
	if memMB <= 0 {
		nd.capMB = math.Inf(1)
	}
	for nd.residentMB > nd.capMB {
		victim := s.pickVictim(nd, t)
		if victim < 0 {
			break
		}
		s.evict(victim, t)
	}
}

// applyFlush releases a drained container's node memory at its
// execution end (the app itself detached at drain time).
func (s *shard) applyFlush(idx int, t float64) {
	f := s.flushes[idx]
	nd := &s.e.nodes[f.node]
	nd.advance(t, s.e.horizon)
	nd.residentMB -= f.memMB
	if nd.residentMB < 0 {
		nd.residentMB = 0 // float dust
	}
}

// displace kills a displaced app's current window with failure
// attribution (first cause wins), removes its victim-index entry —
// the tombstone of its unloaded container, so an entry only ever sits
// on its app's own node — and re-places the app on a surviving node.
func (s *shard) displace(ai int32) {
	st := &s.e.states[ai]
	if !st.dead {
		st.dead = true
		st.deadByFail = true
	}
	s.unindex(&s.e.nodes[st.node], st)
	s.replaceApp(ai)
}

// replaceApp re-places a displaced app: the placement's Replace hook
// chooses the surviving node, falling back to Place advanced to the
// next in-service node. Apps with no remaining arrivals keep their
// historical node; when no node is in service the app becomes
// unplaced and re-tries placement at its next load.
func (s *shard) replaceApp(ai int32) {
	e := s.e
	st := &e.states[ai]
	if st.inv >= len(st.walk.times) {
		return // no future arrivals: nothing to migrate
	}
	app := Footprint{ID: st.res.AppID, MemMB: st.memMB}
	var node int
	if rp, ok := e.place.(Replacer); ok {
		node = rp.Replace(app, int(st.node), e)
		if node >= len(e.nodes) {
			panic("cluster: Replace returned node out of range")
		}
	} else {
		node = e.place.Place(app, e)
		if node < 0 || node >= len(e.nodes) {
			panic("cluster: placement returned node out of range")
		}
	}
	if node >= 0 && e.nodes[node].down {
		node = e.nextUp(node)
	}
	if node < 0 {
		st.placed = false
		st.node = -1
		return
	}
	st.node = int32(node)
	st.res.Node = node
}

// nextUp returns the first in-service node at or after n (cyclic), or
// -1 when every node is down.
func (e *engine) nextUp(n int) int {
	for i := 0; i < len(e.nodes); i++ {
		c := (n + i) % len(e.nodes)
		if !e.nodes[c].down {
			return c
		}
	}
	return -1
}

// addResident and removeResident keep the node's resident-memory
// integral exact — the utilization series advances to t at the old
// level before the level changes — and keep the container's
// victim-index entry. A loading container revives its app's tombstone,
// whose stored key is still a valid lower bound in heap order, or else
// enters victims with no expiry; schedule or reload sets the expiry
// (and lowers the key to it) before any selection. An unloading
// container leaves its victims entry as a tombstone for pickVictim,
// addResident or displace to settle; a parked entry is removed at
// once, since parked keys are exact.
func (s *shard) addResident(ai int32, t float64) {
	e := s.e
	st := &e.states[ai]
	nd := &e.nodes[st.node]
	nd.advance(t, e.horizon)
	nd.residentMB += st.memMB
	if nd.residentMB > nd.stats.PeakResidentMB {
		nd.stats.PeakResidentMB = nd.residentMB
	}
	st.resident = true
	if e.finite && !st.indexed {
		st.indexed = true
		nd.victims.push(e.states, victimEntry{key: math.Inf(1), app: ai})
	}
}

func (s *shard) removeResident(ai int32, t float64) {
	e := s.e
	st := &e.states[ai]
	nd := &e.nodes[st.node]
	nd.advance(t, e.horizon)
	nd.residentMB -= st.memMB
	if nd.residentMB < 0 {
		nd.residentMB = 0 // float dust
	}
	if st.pos < 0 {
		s.unindex(nd, st)
	}
	st.resident = false
}

// unindex removes the app's victim-index entry, if it has one: a
// parked entry, a victims entry or a tombstone.
func (s *shard) unindex(nd *nodeState, st *appState) {
	if !st.indexed {
		return
	}
	st.indexed = false
	if st.pos < 0 {
		nd.parked.remove(s.e.states, int(^st.pos))
	} else {
		nd.victims.remove(s.e.states, int(st.pos))
	}
}

// advance accumulates the node's resident level over [lastT, t),
// clamped at the horizon, into the integral.
func (nd *nodeState) advance(t, horizon float64) {
	from, to := nd.lastT, t
	if to > horizon {
		to = horizon
	}
	if to > from && nd.residentMB > 0 {
		nd.stats.ResidentMBSeconds += nd.residentMB * (to - from)
	}
	if t > nd.lastT {
		nd.lastT = t
	}
}

// eventLess orders the queue by (time, kind, app): at equal times
// cluster events before the stream and flushes after it, app index
// (the Config.Events or flush index) for determinism.
func eventLess(a, b cevent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.app < b.app
}

// victimArity is the victim heaps' branching factor.
const victimArity = 4

// victimHeap is one of a node's two victim-index heaps: a victimArity-ary
// min-heap in victimLess order. Every write of an entry records its
// slot in its app's pos, xor mask (0 for victims, ^0 for parked), so
// any entry can be re-keyed or removed in place.
type victimHeap struct {
	ents []victimEntry
	mask int32
}

func victimLess(a, b victimEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.app < b.app
}

// set writes ent into slot i and records the slot on its app.
func (h *victimHeap) set(states []appState, i int, ent victimEntry) {
	h.ents[i] = ent
	states[ent.app].pos = int32(i) ^ h.mask
}

func (h *victimHeap) push(states []appState, ent victimEntry) {
	h.ents = append(h.ents, ent)
	h.up(states, len(h.ents)-1)
}

// remove deletes slot i: the last entry takes its place and sifts
// whichever way its key says.
func (h *victimHeap) remove(states []appState, i int) {
	n := len(h.ents) - 1
	last := h.ents[n]
	h.ents = h.ents[:n]
	if i < n {
		h.ents[i] = last
		h.fix(states, i)
	}
}

// fix restores the heap order around slot i after its key changed.
func (h *victimHeap) fix(states []appState, i int) {
	if i > 0 && victimLess(h.ents[i], h.ents[(i-1)/victimArity]) {
		h.up(states, i)
	} else {
		h.down(states, i)
	}
}

func (h *victimHeap) up(states []appState, i int) {
	ent := h.ents[i]
	for i > 0 {
		p := (i - 1) / victimArity
		if !victimLess(ent, h.ents[p]) {
			break
		}
		h.set(states, i, h.ents[p])
		i = p
	}
	h.set(states, i, ent)
}

func (h *victimHeap) down(states []appState, i int) {
	ents := h.ents
	ent := ents[i]
	for {
		c := victimArity*i + 1
		if c >= len(ents) {
			break
		}
		m := c
		for k := c + 1; k < min(c+victimArity, len(ents)); k++ {
			if victimLess(ents[k], ents[m]) {
				m = k
			}
		}
		if !victimLess(ents[m], ent) {
			break
		}
		h.set(states, i, ents[m])
		i = m
	}
	h.set(states, i, ent)
}
