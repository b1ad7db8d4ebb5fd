package platform

import (
	"sort"
	"sync"
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

// Platform wires the controller, message bus and invokers into a
// runnable in-process FaaS cluster (Figure 13).
type Platform struct {
	cfg        Config
	bus        *Bus
	controller *Controller
	invokers   []*Invoker

	mu      sync.Mutex
	perApp  map[string]*AppOutcome
	latHist *metrics.LatencyHistogram // bounded: 960 counters however long the platform lives
	latSum  time.Duration             // exact, so the mean carries no bucket error
	stopped bool
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
	p := &Platform{
		cfg:     cfg,
		bus:     NewBus(),
		perApp:  make(map[string]*AppOutcome),
		latHist: metrics.NewLatencyHistogram(),
	}
	p.controller = NewController(cfg.Clock, p.bus, pol, cfg.NumInvokers)
	if cfg.Recorder != nil {
		p.controller.SetRecorder(cfg.Recorder)
	}
	for i := 0; i < cfg.NumInvokers; i++ {
		inv := NewInvoker(i, cfg.Clock, cfg.ColdStartDelay, cfg.RuntimeInitDelay)
		inv.Serve(p.bus.Subscribe(InvokerTopic(i)))
		p.invokers = append(p.invokers, inv)
	}
	return p
}

// Invoke runs one invocation synchronously and records its outcome.
func (p *Platform) Invoke(app, fn string, exec time.Duration, memoryMB float64) (Outcome, error) {
	out, err := p.controller.Invoke(app, fn, exec, memoryMB)
	if err != nil {
		return out, err
	}
	p.mu.Lock()
	ao, ok := p.perApp[app]
	if !ok {
		ao = &AppOutcome{App: app}
		p.perApp[app] = ao
	}
	ao.Invocations++
	if out.Cold {
		ao.ColdStarts++
	}
	p.latSum += out.Latency
	p.latHist.Observe(out.Latency)
	p.mu.Unlock()
	return out, nil
}

// Stop drains the cluster: closes the bus, waits for invokers, and
// settles memory integrals.
func (p *Platform) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	p.mu.Unlock()

	p.bus.Close()
	for _, inv := range p.invokers {
		inv.Stop()
	}
}

// Controller exposes the controller (for overhead measurements).
func (p *Platform) Controller() *Controller { return p.controller }

// Clock returns the platform's time source.
func (p *Platform) Clock() Clock { return p.cfg.Clock }

// AppOutcomes returns per-app summaries sorted by app ID.
func (p *Platform) AppOutcomes() []AppOutcome {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]AppOutcome, 0, len(p.perApp))
	for _, ao := range p.perApp {
		out = append(out, *ao)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// LatencyStats summarizes the recorded invocation latencies (virtual
// time): the exact mean, and the 99th percentile as the upper edge of
// its histogram bucket — at most 6.25% above the exact sample. Both
// are zero before the first invocation.
func (p *Platform) LatencyStats() (mean, p99 time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.latHist.Count()
	if n == 0 {
		return 0, 0
	}
	return p.latSum / time.Duration(n), p.latHist.Quantile(99)
}

// ClusterStats aggregates invoker counters, settling memory first.
func (p *Platform) ClusterStats() InvokerStats {
	var total InvokerStats
	for _, inv := range p.invokers {
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
