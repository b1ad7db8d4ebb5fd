package platform

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/policy"
	"repro/internal/serve"
)

// dispatchState is the controller's per-application dispatch
// bookkeeping: the invoker pin, the registered memory footprint and
// the pending pre-warm timer. The policy side of per-app state (the
// histogram, idle tracking, decision path) lives in the serve
// controller, behind its sharded locks.
type dispatchState struct {
	mu       sync.Mutex
	memoryMB float64
	invoker  int
	prewarm  *time.Timer
}

// Controller mirrors the OpenWhisk Controller with the paper's
// modified Load Balancer (§4.3, modification #1). Keep-alive
// decisions flow through the internal/serve decision service, while
// the controller keeps what is platform-specific: invoker pinning,
// activation dispatch, and pre-warm scheduling on the (possibly
// scaled) clock.
type Controller struct {
	clock Clock
	bus   *Bus
	dec   *serve.Controller
	rec   *serve.Recorder // optional incident-stream capture
	n     int             // invokers

	mu   sync.Mutex
	apps map[string]*dispatchState

	// PolicyOverhead accumulates time spent in policy decisions (real
	// time), backing the §5.3 overhead measurements.
	overheadMu    sync.Mutex
	overheadTotal time.Duration
	overheadCount int64
}

// NewController creates a controller balancing across n invokers,
// with decisions served by a fresh serve.Controller over pol.
func NewController(clock Clock, bus *Bus, pol policy.Policy, n int) *Controller {
	return &Controller{
		clock: clock,
		bus:   bus,
		dec:   serve.NewController(pol, serve.Config{}),
		n:     n,
		apps:  make(map[string]*dispatchState),
	}
}

// SetRecorder attaches an incident-stream recorder: every invocation
// routed through the controller is captured (at the platform clock's
// timestamps) for later bundle export. Attach before traffic starts.
func (c *Controller) SetRecorder(r *serve.Recorder) { c.rec = r }

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
			invoker:  int(h.Sum32()) % c.n,
		}
		c.apps[app] = st
	}
	return st
}

// Invoke runs one function invocation through the platform and blocks
// until it completes, returning the outcome.
func (c *Controller) Invoke(app, fn string, exec time.Duration, memoryMB float64) (Outcome, error) {
	st := c.state(app, memoryMB)

	// Cancel any pending pre-warm; the invocation supersedes it.
	st.mu.Lock()
	if st.prewarm != nil {
		st.prewarm.Stop()
		st.prewarm = nil
	}
	invoker := st.invoker
	st.mu.Unlock()

	// Policy decision for the window after this execution: idle time
	// runs from the last execution end to this arrival (§3.4), tracked
	// inside the decision service.
	now := c.clock.Now()
	t0 := time.Now() //wildlint:allow wallclock
	d := c.dec.Decide(app, now)
	c.recordOverhead(time.Since(t0)) //wildlint:allow wallclock
	if c.rec != nil {
		c.rec.Record(app, fn, now)
	}

	reply := make(chan Outcome, 1)
	msg := ActivationMessage{
		App: app, Function: fn, Exec: exec, MemoryMB: memoryMB,
		KeepAlive:       keepAliveFor(d),
		UnloadAfterExec: !d.Forever && d.PreWarm > 0,
		Reply:           reply,
	}
	if err := c.bus.Publish(InvokerTopic(invoker), msg); err != nil {
		return Outcome{}, fmt.Errorf("platform: dispatching %s/%s: %w", app, fn, err)
	}
	out := <-reply

	c.dec.CompleteExec(app, out.End)
	st.mu.Lock()
	// Schedule the pre-warm after the execution that just finished.
	if !d.Forever && d.PreWarm > 0 {
		ka := keepAliveFor(d)
		mem := st.memoryMB
		st.prewarm = c.clock.AfterFunc(d.PreWarm, func() {
			// Ignore a full-queue error: a missed pre-warm only costs a
			// cold start, exactly as in the real system.
			_ = c.bus.Publish(InvokerTopic(invoker), PrewarmMessage{
				App: app, MemoryMB: mem, KeepAlive: ka,
			})
		})
	}
	st.mu.Unlock()
	return out, nil
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

func (c *Controller) recordOverhead(d time.Duration) {
	c.overheadMu.Lock()
	c.overheadTotal += d
	c.overheadCount++
	c.overheadMu.Unlock()
}

// PolicyOverhead returns the mean real-time cost of one policy
// decision and the number of decisions made.
func (c *Controller) PolicyOverhead() (mean time.Duration, count int64) {
	c.overheadMu.Lock()
	defer c.overheadMu.Unlock()
	if c.overheadCount == 0 {
		return 0, 0
	}
	return c.overheadTotal / time.Duration(c.overheadCount), c.overheadCount
}
