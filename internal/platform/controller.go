package platform

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/serve"
)

// dispatchState is the controller's per-application bookkeeping: the
// invoker pin, the registered memory footprint, the pending pre-warm
// timer and the app's invocation counters. The policy side of per-app
// state (the histogram, idle tracking, decision path) lives in the
// serve controller, behind its sharded locks.
type dispatchState struct {
	mu          sync.Mutex
	memoryMB    float64
	invoker     int
	prewarm     *time.Timer
	invocations int
	coldStarts  int
}

// Controller mirrors the OpenWhisk Controller with the paper's
// modified Load Balancer (§4.3, modification #1). Keep-alive
// decisions flow through the internal/serve decision service, while
// the controller keeps what is platform-specific: invoker pinning,
// activation dispatch, and pre-warm scheduling on the (possibly
// scaled) clock.
type Controller struct {
	clock    Clock
	dec      *serve.Controller
	rec      *serve.Recorder // optional incident-stream capture
	invokers []*Invoker

	// life is the platform lock: every invocation and every pre-warm
	// holds it shared, stop holds it exclusively, so stop returns only
	// after in-flight work and nothing loads a container after it.
	life    sync.RWMutex
	stopped bool

	mu   sync.Mutex
	apps map[string]*dispatchState

	// overheadNs and overheadCount accumulate the real time spent in
	// policy decisions, backing the §5.3 overhead measurements.
	overheadNs    atomic.Int64
	overheadCount atomic.Int64
}

func newController(clock Clock, pol policy.Policy, invokers []*Invoker, rec *serve.Recorder) *Controller {
	return &Controller{
		clock:    clock,
		dec:      serve.NewController(pol, serve.Config{}),
		rec:      rec,
		invokers: invokers,
		apps:     make(map[string]*dispatchState),
	}
}

// state returns (creating if needed) the app's dispatch state. Apps
// are pinned to an invoker by hash, the simplest
// healthy-capacity-aware stand-in for OpenWhisk's scheduling, and the
// one that preserves container affinity.
func (c *Controller) state(app string, memoryMB float64) *dispatchState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.apps[app]
	if !ok {
		h := fnv.New32a()
		h.Write([]byte(app))
		st = &dispatchState{
			memoryMB: memoryMB,
			invoker:  int(h.Sum32()) % len(c.invokers),
		}
		c.apps[app] = st
	}
	return st
}

// Invoke runs one function invocation on its app's invoker, on the
// caller's goroutine, and returns the outcome once it completes.
func (c *Controller) Invoke(app, fn string, exec time.Duration, memoryMB float64) (Outcome, error) {
	c.life.RLock()
	defer c.life.RUnlock()
	if c.stopped {
		return Outcome{}, fmt.Errorf("platform: invoking %s/%s: platform stopped", app, fn)
	}
	st := c.state(app, memoryMB)

	// Cancel any pending pre-warm; the invocation supersedes it.
	st.mu.Lock()
	if st.prewarm != nil {
		st.prewarm.Stop()
		st.prewarm = nil
	}
	inv := c.invokers[st.invoker]
	st.mu.Unlock()

	// Policy decision for the window after this execution: idle time
	// runs from the last execution end to this arrival (§3.4), tracked
	// inside the decision service.
	now := c.clock.Now()
	t0 := time.Now()
	d := c.dec.Decide(app, now)
	c.overheadNs.Add(int64(time.Since(t0)))
	c.overheadCount.Add(1)
	if c.rec != nil {
		c.rec.Record(app, fn, now)
	}

	ka := keepAliveFor(d)
	prewarm := !d.Forever && d.PreWarm > 0
	out := inv.activate(activation{
		app: app, fn: fn, exec: exec, memoryMB: memoryMB,
		keepAlive: ka, unloadAfterExec: prewarm,
	})

	c.dec.CompleteExec(app, out.End)
	st.mu.Lock()
	st.invocations++
	if out.Cold {
		st.coldStarts++
	}
	// Schedule the pre-warm after the execution that just finished.
	if prewarm {
		mem := st.memoryMB
		st.prewarm = c.clock.AfterFunc(d.PreWarm, func() {
			c.life.RLock()
			defer c.life.RUnlock()
			if !c.stopped {
				inv.prewarm(app, mem, ka)
			}
		})
	}
	st.mu.Unlock()
	return out, nil
}

// stop waits out in-flight invocations, cancels pending pre-warms and
// drops every container. Invocations after it return an error.
func (c *Controller) stop() {
	c.life.Lock()
	defer c.life.Unlock()
	if c.stopped {
		return
	}
	c.stopped = true
	c.mu.Lock()
	for _, st := range c.apps {
		st.mu.Lock()
		if st.prewarm != nil {
			st.prewarm.Stop()
			st.prewarm = nil
		}
		st.mu.Unlock()
	}
	c.mu.Unlock()
	for _, inv := range c.invokers {
		inv.dropAll()
	}
}

// keepAliveFor translates a policy decision into the keep-alive stamp
// carried on the activation; Forever maps to a year, effectively
// infinite at experiment scale.
func keepAliveFor(d policy.Decision) time.Duration {
	if d.Forever {
		return 365 * 24 * time.Hour
	}
	return d.KeepAlive
}

// PolicyOverhead returns the mean real-time cost of one policy
// decision and the number of decisions made.
func (c *Controller) PolicyOverhead() (mean time.Duration, count int64) {
	count = c.overheadCount.Load()
	if count == 0 {
		return 0, 0
	}
	return time.Duration(c.overheadNs.Load() / count), count
}
