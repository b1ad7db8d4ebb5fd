package cluster

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// nextPlacement places every app on node 0 and moves a displaced app to
// the node after the one it leaves, so fail and drain steps carry apps
// across nodes.
type nextPlacement struct{}

func (nextPlacement) Name() string              { return "next" }
func (nextPlacement) Place(Footprint, View) int { return 0 }
func (nextPlacement) Replace(_ Footprint, from int, v View) int {
	return (from + 1) % v.NumNodes()
}

// newVictimNodes returns a shard driving finite nodes over apps placed
// round-robin, non-resident 1 MB apps with an arrival still ahead (so a
// displacement re-places them), for tests that exercise the victim
// index directly instead of through a trace.
func newVictimNodes(apps, nodes int) *shard {
	e := &engine{finite: true, horizon: math.Inf(1), place: nextPlacement{},
		states: make([]appState, apps), nodes: make([]nodeState, nodes)}
	walk := &appWalk{times: []float64{0}}
	for ai := range e.states {
		st := &e.states[ai]
		st.placed, st.node, st.memMB, st.walk = true, int32(ai%nodes), 1, walk
	}
	for n := range e.nodes {
		e.nodes[n].capMB = math.Inf(1)
		e.nodes[n].parked.mask = ^0
	}
	return &shard{e: e}
}

// loadVictim makes app ai resident at t with the given execution end
// and expiry, the way invoke and schedule do: residency first, then the
// expiry write that keys its entry.
func loadVictim(s *shard, ai int32, t, execEnd, unloadAt float64) {
	st := &s.e.states[ai]
	st.loadedAt = t
	s.addResident(ai, t)
	st.execEnd = execEnd
	s.setExpiry(ai, st, unloadAt)
}

// victimScript applies one victim-index operation per step, each
// through the engine's own code and its choices read from next, and
// checks the index after every step (checkVictimIndex); a selection
// must also return what a linear scan of its node returns. The counts
// record which paths the drive reached, each observed before the step
// that takes it: stale roots re-keyed and tombstones popped by a
// selection, tombstones revived by a load, and tombstones removed by a
// displacement.
type victimScript struct {
	t    *testing.T
	s    *shard
	now  float64
	next func(n int) int // a choice in [0, n)
	last []int32         // the node each app was last loaded on, -1 before

	selections, evictions, parkedLive, detaches, moves int
	rekeys, pops, revives, displacedTombstones         int
}

// lazyEntries counts a node's victims entries that a selection would
// settle: stale keys (below a resident container's live expiry) and
// tombstones (unloaded containers).
func lazyEntries(s *shard, nd *nodeState) (stale, tombstones int) {
	for _, ent := range nd.victims.ents {
		switch st := &s.e.states[ent.app]; {
		case !st.resident:
			tombstones++
		case ent.key < st.unloadAt:
			stale++
		}
	}
	return stale, tombstones
}

// indexedOn counts the indexed apps placed on node. A fail or drain
// unloads or detaches each resident one, leaving a tombstone, and then
// displaces every app placed there, so it removes this many
// tombstones.
func indexedOn(s *shard, node int) int {
	n := 0
	for i := range s.e.states {
		if c := &s.e.states[i]; c.placed && int(c.node) == node && c.indexed {
			n++
		}
	}
	return n
}

func newVictimScript(t *testing.T, s *shard, next func(int) int) *victimScript {
	d := &victimScript{t: t, s: s, next: next, last: make([]int32, len(s.e.states))}
	for ai := range d.last {
		d.last[ai] = -1
	}
	return d
}

// step runs one operation: a clock advance (often exactly onto the
// soonest running execution's end), an arrival (a load or an expiry
// refresh, maybe extending the execution, as in invoke), a natural
// unload, a selection plus eviction on one node, a node fail, drain or
// join, or the displacement of an idle app to another node. Times are
// whole seconds, so expiries and execution ends tie often.
func (d *victimScript) step() {
	s, e := d.s, d.s.e
	ai := int32(d.next(len(e.states)))
	st := &e.states[ai]
	node := d.next(len(e.nodes))
	switch op := d.next(21); {
	case op < 3:
		next := d.now + float64(d.next(4))
		if d.next(2) == 1 {
			for i := range e.states {
				if c := &e.states[i]; c.resident && c.execEnd > d.now && c.execEnd < next {
					next = c.execEnd
				}
			}
		}
		d.now = next
	case op < 10:
		execEnd := st.execEnd
		if d.next(5) < 3 {
			execEnd = max(execEnd, d.now+float64(1+d.next(20)))
		}
		unloadAt := d.now + float64(d.next(40))
		if d.next(10) == 0 {
			unloadAt = math.Inf(1)
		}
		if st.resident {
			st.execEnd = execEnd
			s.setExpiry(ai, st, unloadAt)
			break
		}
		if !st.placed {
			// Every node was down at the app's displacement: place it
			// anew, as load does.
			if st.node = int32(e.nextUp(0)); st.node < 0 {
				break
			}
			st.placed = true
		}
		if d.last[ai] >= 0 && d.last[ai] != st.node {
			d.moves++
		}
		if st.indexed {
			d.revives++
		}
		d.last[ai] = st.node
		loadVictim(s, ai, d.now, execEnd, unloadAt)
	case op < 12:
		if st.resident {
			s.removeResident(ai, d.now)
		}
	case op < 16:
		nd := &e.nodes[node]
		want := int32(-1)
		for i := range e.states {
			c := &e.states[i]
			if !c.resident || int(c.node) != node || c.execEnd > d.now {
				continue
			}
			if want < 0 || c.unloadAt < e.states[want].unloadAt {
				want = int32(i)
			}
		}
		stale, tombstones := lazyEntries(s, nd)
		got := s.pickVictim(nd, d.now)
		d.selections++
		// A selection creates neither (unparked entries carry their
		// live expiry, and a stale root is re-keyed before it can be
		// parked), so the drops are its re-keys and pops.
		staleAfter, tombstonesAfter := lazyEntries(s, nd)
		d.rekeys += stale - staleAfter
		d.pops += tombstones - tombstonesAfter
		if got != want {
			d.t.Fatalf("t=%v node %d: pickVictim = %d, scan = %d", d.now, node, got, want)
		}
		if got >= 0 {
			s.evict(got, d.now)
			d.evictions++
		}
		for _, ent := range nd.parked.ents {
			if ent.key <= d.now {
				d.t.Fatalf("t=%v node %d: parked entry of app %d keyed %v, not after the selection", d.now, node, ent.app, ent.key)
			}
			d.parkedLive++
		}
	case op == 16:
		if st.placed && !st.resident {
			if st.indexed {
				d.displacedTombstones++
			}
			s.displace(ai)
		}
	case op == 17:
		d.displacedTombstones += indexedOn(s, node)
		s.failNode(node, d.now)
	case op == 18:
		d.displacedTombstones += indexedOn(s, node)
		for i := range e.states {
			if c := &e.states[i]; c.resident && int(c.node) == node && c.execEnd > d.now {
				d.detaches++ // detached at once, its memory flushed later
			}
		}
		s.drainNode(node, d.now)
	default:
		e.nodes[node].down = false
	}
	checkVictimIndex(d.t, s, d.now)
}

// TestPickVictimMatchesScan drives two nodes' victim indexes through
// random loads, expiry refreshes, execution extensions, natural
// unloads, evictions, fails, drains and displacements, under a
// monotone clock, so apps leave one node's index and are re-indexed on
// the other. Every pickVictim must return what a linear scan of its
// node's apps returns — the minimum (unloadAt, app) among resident
// containers whose execution has ended by t, or -1 when none is idle —
// and after every operation the index holds at most one entry per app,
// one for every resident container, on its node, at the slot its app
// records, keyed no later than its live expiry (checkVictimIndex). The
// drive must reach every lazy path: stale roots re-keyed, tombstones
// popped, revived and displaced.
func TestPickVictimMatchesScan(t *testing.T) {
	rng := stats.NewRNG(11)
	d := newVictimScript(t, newVictimNodes(24, 2), rng.Intn)
	for range 16000 {
		d.step()
	}
	drive := fmt.Sprintf("%d selections, %d evictions, %d live parked sightings, %d drain detaches, %d cross-node reloads, "+
		"%d stale re-keys, %d tombstone pops, %d revives, %d displaced tombstones",
		d.selections, d.evictions, d.parkedLive, d.detaches, d.moves, d.rekeys, d.pops, d.revives, d.displacedTombstones)
	if d.selections < 1000 || d.evictions == 0 || d.parkedLive == 0 || d.detaches == 0 || d.moves == 0 ||
		d.rekeys == 0 || d.pops == 0 || d.revives == 0 || d.displacedTombstones == 0 {
		t.Fatalf("weak drive: %s", drive)
	}
	t.Log(drive)
}

// FuzzVictimIndex: the input bytes are the victimScript's choices, one
// byte each, over one or two nodes and up to eight apps; the oracle is
// the linear scan and the index invariant it checks after every step.
// The seed corpus under testdata/fuzz holds a tie-heavy selection run
// on one node, a fail / drain / displace run across two, a run on one
// node that revives and pops tombstones and re-keys a stale root, and
// one whose tombstones are displaced by a fail, a drain and a lone
// displacement across two.
func FuzzVictimIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 4096 {
			return
		}
		s := newVictimNodes(1+int(data[0])%8, 1+int(data[1])%2)
		data = data[2:]
		d := newVictimScript(t, s, func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		})
		for len(data) > 0 {
			d.step()
		}
	})
}

// checkVictimIndex asserts the victim index invariant at t: every
// entry belongs to an indexed app placed on the entry's node, sits at
// the slot its app's pos records and respects heap order; a parked
// entry's container is resident and keyed exactly by its execEnd; a
// victims entry of a resident container is keyed at or below its
// unloadAt, and any other victims entry is a tombstone of an unloaded
// one. An indexed app has exactly one entry, any other app none, and
// every resident app is indexed.
func checkVictimIndex(t *testing.T, s *shard, now float64) {
	t.Helper()
	entries := make([]int, len(s.e.states))
	for n := range s.e.nodes {
		nd := &s.e.nodes[n]
		for _, h := range []*victimHeap{&nd.victims, &nd.parked} {
			for i, ent := range h.ents {
				st := &s.e.states[ent.app]
				if !st.indexed || !st.placed || int(st.node) != n {
					t.Fatalf("t=%v node %d: entry of app %d, indexed %v, placed %v on node %d", now, n, ent.app, st.indexed, st.placed, st.node)
				}
				if st.pos != int32(i)^h.mask {
					t.Fatalf("t=%v node %d: app %d at slot %d (mask %d) records pos %d", now, n, ent.app, i, h.mask, st.pos)
				}
				if p := (i - 1) / victimArity; i > 0 && victimLess(ent, h.ents[p]) {
					t.Fatalf("t=%v node %d: slot %d sorts before its parent %d", now, n, i, p)
				}
				switch {
				case h == &nd.parked && (!st.resident || ent.key != st.execEnd):
					t.Fatalf("t=%v node %d: parked app %d (resident %v) keyed %v, execEnd %v", now, n, ent.app, st.resident, ent.key, st.execEnd)
				case h == &nd.victims && st.resident && ent.key > st.unloadAt:
					t.Fatalf("t=%v node %d: app %d keyed %v, above its expiry %v", now, n, ent.app, ent.key, st.unloadAt)
				}
				entries[ent.app]++
			}
		}
	}
	for ai := range s.e.states {
		st := &s.e.states[ai]
		want := 0
		if st.indexed {
			want = 1
		}
		if entries[ai] != want || st.resident && !st.indexed {
			t.Fatalf("t=%v: app %d (resident %v, indexed %v) has %d index entries", now, ai, st.resident, st.indexed, entries[ai])
		}
	}
}

// TestVictimIndexAllocs pins the victim index's steady state at zero
// allocations: once a node's heaps have grown to its app count, expiry
// refreshes, execution extensions, selections, evictions and reloads
// only re-key, move and remove entries in place, leave keys stale and
// entries as tombstones, or revive them.
func TestVictimIndexAllocs(t *testing.T) {
	const apps = 64
	s := newVictimNodes(apps, 1)
	nd := &s.e.nodes[0]
	// Grow both heaps to apps entries: every app loads executing, one
	// selection parks them all, and each leaves.
	for ai := range int32(apps) {
		loadVictim(s, ai, 0, 1, 10)
	}
	if v := s.pickVictim(nd, 0); v != -1 || len(nd.parked.ents) != apps {
		t.Fatalf("warm-up: victim %d with %d parked, want -1 with %d", v, len(nd.parked.ents), apps)
	}
	for ai := range int32(apps) {
		s.removeResident(ai, 0)
	}
	rng := stats.NewRNG(5)
	now := 1.0
	round := func() {
		now++
		for range 8 {
			ai := int32(rng.Intn(apps))
			st := &s.e.states[ai]
			execEnd := max(st.execEnd, now+float64(rng.Intn(3)))
			if !st.resident {
				loadVictim(s, ai, now, execEnd, now+float64(rng.Intn(100)))
				continue
			}
			st.execEnd = execEnd
			s.setExpiry(ai, st, now+float64(rng.Intn(100)))
		}
		if v := s.pickVictim(nd, now); v >= 0 {
			s.evict(v, now)
		}
	}
	if a := testing.AllocsPerRun(2000, round); a != 0 {
		t.Fatalf("%v allocs per round, want 0", a)
	}
}
