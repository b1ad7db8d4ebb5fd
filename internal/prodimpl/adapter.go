package prodimpl

import (
	"time"

	"repro/internal/ithist"
	"repro/internal/policy"
)

// PolicyAdapter exposes a Manager as a policy.Policy so the §6
// production implementation (daily histograms, weighted aggregation,
// pre-warm lead) can be evaluated in the cold-start simulator next to
// the plain hybrid policy.
//
// The simulator supplies idle durations rather than wall-clock times,
// so the adapter advances a virtual per-app clock from a fixed epoch
// by the observed idle times; day rotation and retention operate on
// that virtual clock.
//
// Because it satisfies policy.Policy it also drops straight into the
// serving path: serve.NewController(prodimpl.NewPolicyAdapter(cfg), …)
// serializes per-app state exactly as the AppPolicy contract assumes.
type PolicyAdapter struct {
	cfg Config
	// Epoch anchors the virtual clock (defaults to 2026-01-05, a
	// Monday, matching the generator's Monday trace start).
	Epoch time.Time

	mgr *Manager
}

// NewPolicyAdapter wraps a fresh Manager (with an in-memory store)
// in a policy.Policy.
func NewPolicyAdapter(cfg Config) *PolicyAdapter {
	return &PolicyAdapter{
		cfg:   cfg,
		Epoch: time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC),
		mgr:   NewManager(cfg, NewMemStore()),
	}
}

// Name implements policy.Policy.
func (p *PolicyAdapter) Name() string { return "prod-hybrid-daily" }

// Manager returns the underlying manager (for backup/prune tests).
func (p *PolicyAdapter) Manager() *Manager { return p.mgr }

// NewApp implements policy.Policy.
func (p *PolicyAdapter) NewApp(appID string) policy.AppPolicy {
	return &adapterApp{parent: p, app: appID, now: p.Epoch}
}

type adapterApp struct {
	parent *PolicyAdapter
	app    string
	now    time.Time
}

// NextWindows implements policy.AppPolicy: record the idle time at
// the virtual clock, then derive windows from the weighted daily
// aggregate. While the aggregate is unrepresentative it falls back to
// the conservative standard keep-alive, like the base hybrid policy.
func (a *adapterApp) NextWindows(idle time.Duration, first bool) policy.Decision {
	if !first {
		a.now = a.now.Add(idle)
		a.parent.mgr.Observe(a.app, idle, a.now)
	}
	agg := a.parent.mgr.Aggregate(a.app, a.now)
	standard := policy.Decision{
		PreWarm: 0,
		KeepAlive: ithist.BinWidth *
			time.Duration(a.parent.cfg.Histogram.NumBins),
		Mode: policy.ModeStandard,
	}
	if agg == nil || agg.Total() < 2 || agg.CVBelow(2) {
		return standard
	}
	pw, ka, ok := agg.Windows()
	if !ok {
		return standard
	}
	// Apply the production pre-warm lead: load PrewarmLead early and
	// extend the keep-alive to still cover through the tail.
	lead := a.parent.cfg.PrewarmLead
	if pw > lead {
		pw -= lead
		ka += lead
	} else {
		ka += pw
		pw = 0
	}
	return policy.Decision{PreWarm: pw, KeepAlive: ka, Mode: policy.ModeHistogram}
}
