package platform

import (
	"sort"
	"time"

	"repro/internal/policy"
	"repro/internal/serve"
)

// Config parameterizes a platform instance. Zero values select the
// noted defaults.
type Config struct {
	// NumInvokers is the worker count (default 4; the paper's testbed
	// ran 18 invoker VMs).
	NumInvokers int
	// ColdStartDelay is the container instantiation cost in virtual
	// time (default 500ms; §5.3 cites O(100ms) for container start).
	ColdStartDelay time.Duration
	// RuntimeInitDelay is the language runtime initiation cost
	// (default 10ms, §5.3's O(10ms)).
	RuntimeInitDelay time.Duration
	// Clock is the time source (default RealClock). A VirtualClock
	// replays hours of trace in milliseconds.
	Clock Clock
	// Recorder, when set, captures every invocation routed through the
	// controller (at the platform clock's timestamps) into an incident
	// bundle recorder, for later what-if replay as a source=bundle:
	// cell (scenario.RunSweep, coldsim -scenario).
	Recorder *serve.Recorder
}

func (c Config) withDefaults() Config {
	if c.NumInvokers == 0 {
		c.NumInvokers = 4
	}
	if c.ColdStartDelay == 0 {
		c.ColdStartDelay = 500 * time.Millisecond
	}
	if c.RuntimeInitDelay == 0 {
		c.RuntimeInitDelay = 10 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = RealClock{}
	}
	return c
}

// Platform wires the controller and invokers into a runnable
// in-process FaaS cluster (Figure 13). The controller calls the pinned
// invoker directly: OpenWhisk's Kafka queue between the two is
// omitted because an activation only changes state and sets clock
// timers, so a queue would add a hand-off per invocation and bound
// nothing.
type Platform struct {
	controller *Controller
}

// AppOutcome summarizes one application's invocations on the platform.
type AppOutcome struct {
	App         string
	Invocations int
	ColdStarts  int
}

// ColdPercent returns the app's cold-start percentage.
func (a AppOutcome) ColdPercent() float64 {
	if a.Invocations == 0 {
		return 0
	}
	return 100 * float64(a.ColdStarts) / float64(a.Invocations)
}

// NewPlatform assembles a platform running pol. Call Stop when done.
func NewPlatform(cfg Config, pol policy.Policy) *Platform {
	cfg = cfg.withDefaults()
	invokers := make([]*Invoker, cfg.NumInvokers)
	for i := range invokers {
		invokers[i] = newInvoker(i, cfg.Clock, cfg.ColdStartDelay, cfg.RuntimeInitDelay)
	}
	return &Platform{controller: newController(cfg.Clock, pol, invokers, cfg.Recorder)}
}

// InvokeAsync starts one invocation and calls done with its outcome
// once it completes, from the platform clock's timer callback, or
// before InvokeAsync returns when a warm zero-length execution or an
// error needs no timer.
func (p *Platform) InvokeAsync(app, fn string, exec time.Duration, memoryMB float64, done func(Outcome, error)) {
	p.controller.invoke(app, fn, exec, memoryMB, done)
}

// Invoke runs one invocation and blocks until it completes. It is for
// live clocks, whose timers fire on their own; on a VirtualClock use
// InvokeAsync and step the clock.
func (p *Platform) Invoke(app, fn string, exec time.Duration, memoryMB float64) (out Outcome, err error) {
	done := make(chan struct{})
	p.InvokeAsync(app, fn, exec, memoryMB, func(o Outcome, e error) {
		out, err = o, e
		close(done)
	})
	<-done
	return out, err
}

// Stop waits for in-flight invocations to finish, cancels pending
// pre-warms and unloads every container. Invocations after Stop return
// an error. Stop is idempotent. On a VirtualClock, step the clock until
// in-flight invocations complete before calling Stop.
func (p *Platform) Stop() { p.controller.stop() }

// Controller exposes the controller (for overhead measurements).
func (p *Platform) Controller() *Controller { return p.controller }

// AppOutcomes returns per-app summaries of the completed invocations,
// sorted by app ID.
func (p *Platform) AppOutcomes() []AppOutcome {
	c := p.controller
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]AppOutcome, 0, len(c.apps))
	for app, st := range c.apps {
		st.mu.Lock()
		if st.invocations > 0 {
			out = append(out, AppOutcome{App: app, Invocations: st.invocations, ColdStarts: st.coldStarts})
		}
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// LatencyStats summarizes the recorded invocation latencies (virtual
// time): the exact mean, and the 99th percentile as the upper edge of
// its histogram bucket — at most 6.25% above the exact sample. Both
// are zero before the first invocation. Read it once invocations have
// quiesced: the sum and the histogram are updated separately.
func (p *Platform) LatencyStats() (mean, p99 time.Duration) {
	c := p.controller
	n := c.latHist.Count()
	if n == 0 {
		return 0, 0
	}
	return time.Duration(c.latSum.Load() / n), c.latHist.Quantile(99)
}

// ClusterStats aggregates invoker counters, settling memory first.
func (p *Platform) ClusterStats() InvokerStats {
	var total InvokerStats
	for _, inv := range p.controller.invokers {
		s := inv.settledStats()
		total.ColdStarts += s.ColdStarts
		total.WarmStarts += s.WarmStarts
		total.Prewarms += s.Prewarms
		total.Unloads += s.Unloads
		total.MemoryMBSeconds += s.MemoryMBSeconds
		total.LoadedContainers += s.LoadedContainers
	}
	return total
}
