package platform

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/serve"
)

// dispatchState is the controller's per-application bookkeeping: the
// invoker pin, the registered memory footprint, the pending pre-warm
// and the app's invocation counters. The policy side of per-app state
// (the histogram, idle tracking, decision path) lives in the serve
// controller, behind its sharded locks.
type dispatchState struct {
	mu          sync.Mutex
	memoryMB    float64
	invoker     int
	prewarm     Timer     // pending pre-warm, due at prewarmAt
	prewarmAt   time.Time // and loading for prewarmKA
	prewarmKA   time.Duration
	invocations int
	coldStarts  int
}

// Controller mirrors the OpenWhisk Controller with the paper's
// modified Load Balancer (§4.3, modification #1). Keep-alive
// decisions flow through the internal/serve decision service, while
// the controller keeps what is platform-specific: invoker pinning,
// activation dispatch, and pre-warm scheduling on the platform clock.
type Controller struct {
	clock    Clock
	dec      *serve.Controller
	rec      *serve.Recorder // optional incident-stream capture
	invokers []*Invoker

	// life guards stopped: invocations and pre-warms hold it shared
	// while they start, stop exclusively, so nothing starts or loads a
	// container after stop, which waits out inflight invocations.
	life     sync.RWMutex
	stopped  bool
	inflight sync.WaitGroup

	mu   sync.Mutex
	apps map[string]*dispatchState

	latHist *metrics.LatencyHistogram // bounded: 960 counters however long the platform lives
	latSum  atomic.Int64              // nanoseconds, exact, so the mean carries no bucket error

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
		latHist:  metrics.NewLatencyHistogram(),
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

// invoke starts one function invocation on its app's invoker and calls
// done with the outcome once it completes.
func (c *Controller) invoke(app, fn string, exec time.Duration, memoryMB float64, done func(Outcome, error)) {
	c.life.RLock()
	if c.stopped {
		c.life.RUnlock()
		done(Outcome{}, fmt.Errorf("platform: invoking %s/%s: platform stopped", app, fn))
		return
	}
	c.inflight.Add(1)
	st := c.state(app, memoryMB)
	now := c.clock.Now()

	// Cancel any pending pre-warm; the invocation supersedes it. One
	// due now has not fired only because it ties with this arrival: it
	// loads first, as the simulator's reload-before-invocation order
	// has it (kernel.Classify).
	st.mu.Lock()
	inv := c.invokers[st.invoker]
	if st.prewarm != nil && st.prewarm.Stop() && !now.Before(st.prewarmAt) {
		inv.prewarm(app, st.memoryMB, st.prewarmKA)
	}
	st.prewarm = nil
	st.mu.Unlock()
	c.life.RUnlock()

	// Policy decision for the window after this execution: idle time
	// runs from the last execution end to this arrival (§3.4), tracked
	// inside the decision service.
	t0 := time.Now()
	d := c.dec.Decide(app, now)
	c.overheadNs.Add(int64(time.Since(t0)))
	c.overheadCount.Add(1)
	if c.rec != nil {
		c.rec.Record(app, fn, now)
	}

	ka := d.KeepAlive
	if d.Forever {
		ka = 365 * 24 * time.Hour // effectively infinite at experiment scale
	}
	prewarm := !d.Forever && d.PreWarm > 0
	inv.activate(activation{
		app: app, fn: fn, exec: exec, memoryMB: memoryMB,
		keepAlive: ka, unloadAfterExec: prewarm,
	}, func(out Outcome) {
		c.dec.CompleteExec(app, out.End)
		c.latSum.Add(int64(out.Latency))
		c.latHist.Observe(out.Latency)
		st.mu.Lock()
		st.invocations++
		if out.Cold {
			st.coldStarts++
		}
		// Schedule the pre-warm after the execution that just finished,
		// replacing one an overlapping execution scheduled.
		if prewarm {
			if st.prewarm != nil {
				st.prewarm.Stop()
			}
			mem := st.memoryMB
			st.prewarmAt, st.prewarmKA = out.End.Add(d.PreWarm), ka
			st.prewarm = c.clock.AfterFunc(d.PreWarm, func() {
				c.life.RLock()
				defer c.life.RUnlock()
				if !c.stopped {
					inv.prewarm(app, mem, ka)
				}
			})
		}
		st.mu.Unlock()
		done(out, nil)
		c.inflight.Done()
	})
}

// stop waits out in-flight invocations, cancels pending pre-warms and
// drops every container. Invocations after it return an error.
func (c *Controller) stop() {
	c.life.Lock()
	c.stopped = true
	c.life.Unlock()
	c.inflight.Wait()

	c.life.Lock()
	defer c.life.Unlock()
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

// PolicyOverhead returns the mean real-time cost of one policy
// decision and the number of decisions made.
func (c *Controller) PolicyOverhead() (mean time.Duration, count int64) {
	count = c.overheadCount.Load()
	if count == 0 {
		return 0, 0
	}
	return time.Duration(c.overheadNs.Load() / count), count
}
