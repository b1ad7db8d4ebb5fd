package platform

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
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
	// Clock is the time source (default RealClock). Use a ScaledClock
	// to replay hours of trace in seconds.
	Clock Clock
	// Recorder, when set, captures every invocation routed through the
	// controller (at the platform clock's timestamps) into an incident
	// bundle recorder, for later what-if replay via
	// replay.ReplayBundle.
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
// omitted because every activation is blocking — the caller waits for
// its outcome — so a queue would add a hand-off per invocation and
// bound nothing.
type Platform struct {
	cfg        Config
	controller *Controller

	latHist *metrics.LatencyHistogram // bounded: 960 counters however long the platform lives
	latSum  atomic.Int64              // nanoseconds, exact, so the mean carries no bucket error
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
	return &Platform{
		cfg:        cfg,
		controller: newController(cfg.Clock, pol, invokers, cfg.Recorder),
		latHist:    metrics.NewLatencyHistogram(),
	}
}

// Invoke runs one invocation synchronously and records its outcome.
func (p *Platform) Invoke(app, fn string, exec time.Duration, memoryMB float64) (Outcome, error) {
	out, err := p.controller.Invoke(app, fn, exec, memoryMB)
	if err != nil {
		return out, err
	}
	p.latSum.Add(int64(out.Latency))
	p.latHist.Observe(out.Latency)
	return out, nil
}

// Stop waits for in-flight invocations to finish, cancels pending
// pre-warms and unloads every container. Invocations after Stop return
// an error. Stop is idempotent.
func (p *Platform) Stop() { p.controller.stop() }

// Controller exposes the controller (for overhead measurements).
func (p *Platform) Controller() *Controller { return p.controller }

// Clock returns the platform's time source.
func (p *Platform) Clock() Clock { return p.cfg.Clock }

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
	n := p.latHist.Count()
	if n == 0 {
		return 0, 0
	}
	return time.Duration(p.latSum.Load() / n), p.latHist.Quantile(99)
}

// ClusterStats aggregates invoker counters, settling memory first.
func (p *Platform) ClusterStats() InvokerStats {
	var total InvokerStats
	for _, inv := range p.controller.invokers {
		inv.SettleMemory()
		s := inv.Stats()
		total.ColdStarts += s.ColdStarts
		total.WarmStarts += s.WarmStarts
		total.Prewarms += s.Prewarms
		total.Unloads += s.Unloads
		total.MemoryMBSeconds += s.MemoryMBSeconds
		total.LoadedContainers += s.LoadedContainers
	}
	return total
}
