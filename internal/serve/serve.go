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
//   - App lookup is N-way sharded by app hash, so unrelated apps
//     contend only on a read-lock of their shard, not a global map
//     lock.
//   - The steady-state Decide path performs no allocation: the shard
//     table is read-locked, the entry is found by string key, and the
//     policy's own decision path is allocation-free once warm
//     (regression-tested here and in internal/policy).
//
// A Recorder can sit beside a controller and capture the live
// invocation stream into a versioned incident bundle (see bundle.go)
// for later what-if replay through the simulator as a source=bundle:
// cell (scenario.RunSweep, coldsim -scenario).
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
)

// Config parameterizes a Controller.
type Config struct {
	// Shards is the number of lock shards the app table is split
	// into; it is rounded up to a power of two. Default 32.
	Shards int
}

// DefaultShards is the default shard count: comfortably above the
// core counts this runs on, small enough that Release and Apps stay
// cheap.
const DefaultShards = 32

// Controller is a concurrent keep-alive decision service. One
// Controller serves many apps; Decide may be called from any number
// of goroutines. Decisions for the same app are serialized (the
// policy contract); decisions for different apps proceed in parallel
// and contend only on their shard's read lock.
type Controller struct {
	pol    policy.Policy
	shards []shard
	mask   uint32
}

type shard struct {
	mu        sync.RWMutex
	apps      map[string]*appEntry
	decisions atomic.Int64
}

// appEntry is one app's serving state: its policy instance and the
// idle-time bookkeeping. mu serializes the observe/decide sequence.
type appEntry struct {
	mu      sync.Mutex
	pol     policy.AppPolicy
	seen    bool
	lastEnd time.Time
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
	c := &Controller{pol: pol, shards: make([]shard, p), mask: uint32(p - 1)}
	for i := range c.shards {
		c.shards[i].apps = make(map[string]*appEntry)
	}
	return c
}

// shardOf is FNV-1a over the app ID (inlined so the hot path hashes
// without an allocation or a hash.Hash).
func shardOf(app string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(app); i++ {
		h ^= uint32(app[i])
		h *= prime32
	}
	return h
}

// Decide makes the keep-alive decision for an invocation of app
// arriving at time at. The idle time observed by the policy is the
// gap since the app's last execution end — or since its last arrival
// when no CompleteExec intervened, which makes a pure Decide stream
// equivalent to the simulator's zero-execution-time idle semantics.
// Decide is safe for concurrent use and allocates nothing in steady
// state.
func (c *Controller) Decide(app string, at time.Time) policy.Decision {
	sh := &c.shards[shardOf(app)&c.mask]
retry:
	sh.mu.RLock()
	e := sh.apps[app]
	sh.mu.RUnlock()
	if e == nil {
		e = c.register(sh, app)
	}
	e.mu.Lock()
	if e.pol == nil {
		// The entry was released under us (Release racing this lookup);
		// its policy state may already be pooled elsewhere. Start over
		// on the fresh table.
		e.mu.Unlock()
		goto retry
	}
	first := !e.seen
	var idle time.Duration
	if !first {
		// First arrivals have no predecessor; policies ignore idle when
		// first is set, and a clean zero keeps that observable.
		if idle = at.Sub(e.lastEnd); idle < 0 {
			idle = 0
		}
	}
	e.seen = true
	// Provisional: a zero-length execution ends at its arrival.
	// CompleteExec moves this forward to the real end.
	e.lastEnd = at
	d := e.pol.NextWindows(idle, first)
	e.mu.Unlock()
	sh.decisions.Add(1)
	return d
}

// register is the slow path: create the app's entry (or return the
// one a racing goroutine created first).
func (c *Controller) register(sh *shard, app string) *appEntry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.apps[app]; ok {
		return e
	}
	// The controller owns the pooled policy state; Controller.Release
	// returns every entry to the pools.
	e := &appEntry{pol: c.pol.NewApp(app)}
	sh.apps[app] = e
	return e
}

// CompleteExec records that an execution of app finished at end, so
// the next arrival's idle time is measured from the execution end
// rather than the arrival (§3.4 idle semantics with nonzero execution
// times). Out-of-order completions never move the mark backward.
func (c *Controller) CompleteExec(app string, end time.Time) {
	sh := &c.shards[shardOf(app)&c.mask]
	sh.mu.RLock()
	e := sh.apps[app]
	sh.mu.RUnlock()
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
		n += c.shards[i].decisions.Load()
	}
	return n
}

// Apps returns the number of distinct apps seen.
func (c *Controller) Apps() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.apps)
		sh.mu.RUnlock()
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
		for _, e := range sh.apps {
			e.mu.Lock()
			if r, ok := e.pol.(policy.Releasable); ok {
				r.Release()
			}
			e.pol = nil
			e.mu.Unlock()
		}
		sh.apps = make(map[string]*appEntry)
		sh.mu.Unlock()
	}
}
