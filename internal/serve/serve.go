// Package serve is the serving-grade control plane: a concurrent
// keep-alive decision service in the role the paper gives its policy
// inside OpenWhisk's controller path (§4.3, §6). Where
// internal/platform hosts a whole in-process FaaS cluster, serve
// isolates just the decision component — the piece that must answer
// "pre-warm when, keep alive how long?" on every invocation of every
// app at production rates — and makes it safe under load:
//
//   - Per-app policy state (the pooled hybrid histogram of
//     internal/policy) is never touched concurrently; appEntry.mu
//     serializes each app's observation/decision sequence, which is
//     the concurrency contract policy.AppPolicy demands.
//   - App lookup takes no lock. The table is split into N shards by
//     app hash; each shard is an open-addressed table that readers
//     probe with atomic loads, comparing a one-byte hash tag before
//     touching an entry. Only registration and Release take the
//     shard's mutex. So a decision takes exactly one lock, its own
//     app's, and writes no memory that another app's decision writes.
//   - The steady-state Decide path performs no allocation: the entry
//     is found by a probe, and the policy's own decision path is
//     allocation-free once warm (regression-tested here and in
//     internal/policy).
//
// A Recorder can sit beside a controller and capture the live
// invocation stream into a versioned incident bundle (see bundle.go)
// for later what-if replay through the simulator as a source=bundle:
// cell (scenario.RunSweep, coldsim -scenario).
package serve

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
)

// Config parameterizes a Controller.
type Config struct {
	// Shards is the number of shards the app table is split into,
	// each with its own writer lock; it is rounded up to a power of
	// two. Default 32.
	Shards int
}

// DefaultShards is the default shard count: comfortably above the
// core counts this runs on, small enough that Release and Apps stay
// cheap.
const DefaultShards = 32

// Controller is a concurrent keep-alive decision service. One
// Controller serves many apps; Decide may be called from any number
// of goroutines. Decisions for the same app are serialized (the
// policy contract); decisions for different apps proceed in parallel,
// each taking only its own app's lock.
type Controller struct {
	pol    policy.Policy
	shards []shard
	mask   uint64
	seed   maphash.Seed
}

// shard is one slice of the app table. Readers probe tab without a
// lock; mu serializes the writers (register, Release) and guards n and
// released.
type shard struct {
	mu       sync.Mutex
	tab      atomic.Pointer[table]
	n        int   // filled slots in tab
	released int64 // decisions made by entries Release dropped
}

// table is an open-addressed, linearly probed app table, a power of two
// in size and at most 3/4 full. A slot, once filled, is never emptied:
// growth and Release publish a new table instead. tags[i] is the top
// byte of the hash of slots[i]'s app, written before the slot's pointer
// is stored, so a probe skips other apps' slots without touching their
// entries.
type table struct {
	slots []atomic.Pointer[appEntry]
	tags  []uint8
}

// minSlots is the size of a shard's first table.
const minSlots = 8

func newTable(size int) *table {
	return &table{slots: make([]atomic.Pointer[appEntry], size), tags: make([]uint8, size)}
}

// home is the first slot a probe for hash h visits. The low bits pick
// the shard and the top byte is the tag, so the slot index comes from
// the bits between.
func (t *table) home(h uint64) uint64 { return (h >> 16) & uint64(len(t.slots)-1) }

// lookup returns app's entry, or nil. It takes no lock: the slot's
// pointer is loaded first, so its tag is read only after the Store that
// published it.
func (t *table) lookup(app string, h uint64) *appEntry {
	mask := uint64(len(t.slots) - 1)
	tag := uint8(h >> 56)
	for i := t.home(h); ; i = (i + 1) & mask {
		e := t.slots[i].Load()
		if e == nil {
			return nil
		}
		if t.tags[i] == tag && e.name == app {
			return e
		}
	}
}

// insert puts e, whose app hashes to h, in the first empty slot of its
// probe sequence. The caller holds the shard's mu.
func (t *table) insert(e *appEntry, h uint64) {
	mask := uint64(len(t.slots) - 1)
	i := t.home(h)
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.tags[i] = uint8(h >> 56)
	t.slots[i].Store(e)
}

// appEntry is one app's serving state: its policy instance, the
// idle-time bookkeeping and its decision count. mu serializes the
// observe/decide sequence and guards every field but name.
type appEntry struct {
	mu        sync.Mutex
	pol       policy.AppPolicy
	decisions int64
	lastEnd   time.Time
	name      string
}

// NewController builds a decision service over pol.
func NewController(pol policy.Policy, cfg Config) *Controller {
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so shard selection is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	c := &Controller{pol: pol, shards: make([]shard, p), mask: uint64(p - 1), seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].tab.Store(newTable(minSlots))
	}
	return c
}

// Decide makes the keep-alive decision for an invocation of app
// arriving at time at. The idle time observed by the policy is the
// gap since the app's last execution end — or since its last arrival
// when no CompleteExec intervened, which makes a pure Decide stream
// equivalent to the simulator's zero-execution-time idle semantics.
// Decide is safe for concurrent use and allocates nothing in steady
// state: the lookup is a lock-free probe, and the app's own mutex is
// the only lock taken.
func (c *Controller) Decide(app string, at time.Time) policy.Decision {
	h := maphash.String(c.seed, app)
	sh := &c.shards[h&c.mask]
retry:
	e := sh.tab.Load().lookup(app, h)
	if e == nil {
		e = c.register(sh, app, h)
	}
	e.mu.Lock()
	if e.pol == nil {
		// The entry was released under us (Release racing this lookup);
		// its policy state may already be pooled elsewhere. Start over
		// on the fresh table.
		e.mu.Unlock()
		goto retry
	}
	first := e.decisions == 0
	var idle time.Duration
	if !first {
		// First arrivals have no predecessor; policies ignore idle when
		// first is set, and a clean zero keeps that observable.
		if idle = at.Sub(e.lastEnd); idle < 0 {
			idle = 0
		}
	}
	e.decisions++
	// Provisional: a zero-length execution ends at its arrival.
	// CompleteExec moves this forward to the real end.
	e.lastEnd = at
	d := e.pol.NextWindows(idle, first)
	e.mu.Unlock()
	return d
}

// register is the slow path: create the app's entry (or return the
// one a racing goroutine created first). A table that would pass 3/4
// full is doubled first: the copy is filled, then published.
func (c *Controller) register(sh *shard, app string, h uint64) *appEntry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.tab.Load()
	if e := t.lookup(app, h); e != nil {
		return e
	}
	if 4*(sh.n+1) > 3*len(t.slots) {
		grown := newTable(2 * len(t.slots))
		for i := range t.slots {
			if e := t.slots[i].Load(); e != nil {
				grown.insert(e, maphash.String(c.seed, e.name))
			}
		}
		t = grown
		sh.tab.Store(t)
	}
	// The controller owns the pooled policy state; Controller.Release
	// returns every entry to the pools.
	e := &appEntry{pol: c.pol.NewApp(app), name: app}
	t.insert(e, h)
	sh.n++
	return e
}

// CompleteExec records that an execution of app finished at end, so
// the next arrival's idle time is measured from the execution end
// rather than the arrival (§3.4 idle semantics with nonzero execution
// times). Out-of-order completions never move the mark backward.
func (c *Controller) CompleteExec(app string, end time.Time) {
	h := maphash.String(c.seed, app)
	e := c.shards[h&c.mask].tab.Load().lookup(app, h)
	if e == nil {
		return
	}
	e.mu.Lock()
	if end.After(e.lastEnd) {
		e.lastEnd = end
	}
	e.mu.Unlock()
}

// Decisions returns the total number of decisions served.
func (c *Controller) Decisions() int64 {
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.released
		sh.each(func(e *appEntry) { n += e.decisions })
		sh.mu.Unlock()
	}
	return n
}

// Apps returns the number of distinct apps seen.
func (c *Controller) Apps() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// Release drops all per-app state, returning poolable policy state
// (the hybrid policy's histogram buffers) to its pool. The controller
// is reusable afterward; concurrent Decide calls during Release see
// either the old or a fresh entry.
func (c *Controller) Release() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.each(func(e *appEntry) {
			sh.released += e.decisions
			if r, ok := e.pol.(policy.Releasable); ok {
				r.Release()
			}
			e.pol = nil
		})
		sh.tab.Store(newTable(minSlots))
		sh.n = 0
		sh.mu.Unlock()
	}
}

// each calls f on every entry of the shard's table, with the entry's
// mu held. The caller holds the shard's mu.
func (sh *shard) each(f func(*appEntry)) {
	t := sh.tab.Load()
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil {
			e.mu.Lock()
			f(e)
			e.mu.Unlock()
		}
	}
}
