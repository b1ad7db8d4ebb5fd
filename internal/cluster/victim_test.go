package cluster

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// newVictimNode returns a shard driving one finite node over apps
// placed, non-resident 1 MB apps, for tests that exercise the victim
// index directly instead of through a trace.
func newVictimNode(apps int) (*shard, *nodeState) {
	e := &engine{finite: true, horizon: math.Inf(1), states: make([]appState, apps), nodes: make([]nodeState, 1)}
	for ai := range e.states {
		st := &e.states[ai]
		st.placed, st.memMB = true, 1
	}
	e.nodes[0].capMB = math.Inf(1)
	return &shard{e: e}, &e.nodes[0]
}

// loadVictim makes app ai resident at t with the given execution end
// and expiry, the way invoke and schedule do: residency first, then the
// expiry write that indexes it.
func loadVictim(s *shard, ai int32, t, execEnd, unloadAt float64) {
	st := &s.e.states[ai]
	st.loadedAt = t
	s.addResident(ai, t)
	st.execEnd = execEnd
	s.setExpiry(ai, st, unloadAt)
}

// TestPickVictimMatchesScan drives one node's victim index through
// random loads, expiry refreshes, execution extensions (each one a new
// expiry write, so a vix bump, as in invoke), natural unloads and
// evictions, under a monotone clock that often lands exactly on an
// execution end. Every pickVictim must return what a linear scan of
// the node's apps returns: the minimum (unloadAt, app) among resident
// containers whose execution has ended by t, or -1 when none is idle.
// After each selection no (app, vix) sits in both heaps, every
// resident app's current entry sits in exactly one, and every live
// parked entry's execution is still running.
func TestPickVictimMatchesScan(t *testing.T) {
	const apps = 24
	rng := stats.NewRNG(11)
	s, nd := newVictimNode(apps)
	states := s.e.states
	now := 0.0
	var selections, evictions, parkedLive, compactions int
	for step := 0; step < 16000; step++ {
		ai := int32(rng.Intn(apps))
		st := &states[ai]
		op := rng.Intn(12)
		if op >= 10 && step/400%2 == 1 {
			// Quiet stretches without pressure let stale entries pile up,
			// so pushVictim's compaction runs between selections.
			op = 7
		}
		switch {
		case op < 3:
			// Advance the clock: a whole-second step (possibly zero), or
			// exactly onto the soonest running execution's end.
			next := now + float64(rng.Intn(4))
			if rng.Bool(0.5) {
				for i := range states {
					if states[i].resident && states[i].execEnd > now && states[i].execEnd < next {
						next = states[i].execEnd
					}
				}
			}
			now = next
		case op < 8:
			// An arrival: load if needed, maybe a new execution, then
			// the window's expiry. Whole seconds so expiries tie often.
			execEnd := st.execEnd
			if rng.Bool(0.6) {
				execEnd = max(execEnd, now+float64(1+rng.Intn(20)))
			}
			unloadAt := now + float64(rng.Intn(40))
			if rng.Bool(0.1) {
				unloadAt = math.Inf(1)
			}
			n := len(nd.victims)
			if st.resident {
				st.execEnd = execEnd
				s.setExpiry(ai, st, unloadAt)
			} else {
				loadVictim(s, ai, now, execEnd, unloadAt)
			}
			if len(nd.victims) <= n {
				compactions++
			}
		case op < 10:
			if st.resident {
				s.removeResident(ai, now) // natural expiry
			}
		default:
			want := int32(-1)
			for i := range states {
				c := &states[i]
				if !c.resident || c.execEnd > now {
					continue
				}
				if want < 0 || c.unloadAt < states[want].unloadAt {
					want = int32(i)
				}
			}
			got := s.pickVictim(nd, now)
			selections++
			if got != want {
				t.Fatalf("step %d t=%v: pickVictim = %d, scan = %d", step, now, got, want)
			}
			if got >= 0 {
				s.evict(got, now)
				evictions++
			}
			parkedLive += checkVictimHeaps(t, s, nd, now)
		}
	}
	if selections < 1000 || evictions == 0 || parkedLive == 0 || compactions == 0 {
		t.Fatalf("weak drive: %d selections, %d evictions, %d live parked sightings, %d compactions",
			selections, evictions, parkedLive, compactions)
	}
	t.Logf("%d selections, %d evictions, %d live parked sightings, %d compactions",
		selections, evictions, parkedLive, compactions)
}

// checkVictimHeaps asserts the index invariants after a selection at t
// and returns the number of live parked entries.
func checkVictimHeaps(t *testing.T, s *shard, nd *nodeState, now float64) int {
	t.Helper()
	type key struct {
		app int32
		vix uint32
	}
	inVictims := make(map[key]bool, len(nd.victims))
	indexed := make(map[int32]int) // live entries per app, both heaps
	for _, ent := range nd.victims {
		inVictims[key{ent.app, ent.vix}] = true
		if st := &s.e.states[ent.app]; st.resident && ent.vix == st.vix {
			indexed[ent.app]++
		}
	}
	live := 0
	for _, ent := range nd.parked {
		if inVictims[key{ent.app, ent.vix}] {
			t.Fatalf("t=%v: entry (app %d, vix %d) in both heaps", now, ent.app, ent.vix)
		}
		st := &s.e.states[ent.app]
		if !st.resident || ent.vix != st.vix {
			continue
		}
		if ent.unloadAt <= now {
			t.Fatalf("t=%v: live parked entry of app %d keyed %v, not after the selection", now, ent.app, ent.unloadAt)
		}
		indexed[ent.app]++
		live++
	}
	for ai := range s.e.states {
		if s.e.states[ai].resident && indexed[int32(ai)] != 1 {
			t.Fatalf("t=%v: resident app %d has %d live index entries, want 1", now, ai, indexed[int32(ai)])
		}
	}
	return live
}
