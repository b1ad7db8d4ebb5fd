package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fixedKeepAlives are the keep-alive lengths swept in Figure 14/15.
var fixedKeepAlives = []time.Duration{
	5 * time.Minute, 10 * time.Minute, 20 * time.Minute, 30 * time.Minute,
	45 * time.Minute, 60 * time.Minute, 90 * time.Minute, 120 * time.Minute,
}

// hybridRanges are the histogram ranges swept in Figure 15.
var hybridRanges = []time.Duration{time.Hour, 2 * time.Hour, 3 * time.Hour, 4 * time.Hour}

// hybridWithRange returns the default hybrid policy with the given
// histogram range.
func hybridWithRange(r time.Duration) *policy.Hybrid {
	cfg := policy.DefaultHybridConfig()
	cfg.Histogram.NumBins = int(r / cfg.Histogram.BinWidth)
	return policy.NewHybrid(cfg)
}

// baseline10min simulates the 10-minute fixed keep-alive policy — the
// normalization baseline used throughout §5.2.
func baseline10min(tr *trace.Trace, workers int) *sim.Result {
	return sim.Simulate(tr, policy.FixedKeepAlive{KeepAlive: 10 * time.Minute},
		sim.Options{Workers: workers})
}

// Figure14 reproduces the cold-start CDFs of the fixed keep-alive
// policy across keep-alive lengths, plus the no-unloading bound.
func Figure14(tr *trace.Trace, workers int) *Figure {
	f := &Figure{
		ID: "figure-14", Title: "Cold start behavior of the fixed keep-alive policy",
		XLabel: "app cold start (%)", YLabel: "CDF",
	}
	noUnload := sim.Simulate(tr, policy.NoUnloading{}, sim.Options{Workers: workers})
	f.Series = append(f.Series, Series{
		Name: "no unloading", Points: cdfPoints(noUnload.ColdPercents(), 64),
	})
	for _, ka := range fixedKeepAlives {
		r := sim.Simulate(tr, policy.FixedKeepAlive{KeepAlive: ka}, sim.Options{Workers: workers})
		f.Series = append(f.Series, Series{
			Name: r.Policy, Points: cdfPoints(r.ColdPercents(), 64),
		})
		if ka == 10*time.Minute || ka == 60*time.Minute {
			f.AddNote("%s: 75th-pct app cold start %.1f%% (paper: 50.3%% at 10min, 25%% at 1h)",
				r.Policy, metrics.ThirdQuartileColdPercent(r))
		}
	}
	f.AddNote("no-unloading always-cold apps: %.1f%% (paper: ~3.5%%, single-invocation apps)",
		100*noUnload.AlwaysColdFraction(false))
	return f
}

// Figure15 reproduces the cold-start vs wasted-memory trade-off:
// fixed keep-alive sweep vs the hybrid policy across histogram ranges.
func Figure15(tr *trace.Trace, workers int) *Figure {
	f := &Figure{
		ID: "figure-15", Title: "Trade-off between cold starts and wasted memory time",
		XLabel: "3rd-quartile app cold start (%)", YLabel: "normalized wasted memory (%)",
	}
	base := baseline10min(tr, workers)

	var fixedPts, hybridPts []stats.Point
	f.Table = [][]string{{"Policy", "ColdQ3 (%)", "WastedMem (% of fixed-10m)"}}
	for _, ka := range fixedKeepAlives {
		r := sim.Simulate(tr, policy.FixedKeepAlive{KeepAlive: ka}, sim.Options{Workers: workers})
		q3 := metrics.ThirdQuartileColdPercent(r)
		wm := metrics.NormalizedWastedMemory(r, base)
		fixedPts = append(fixedPts, stats.Point{X: q3, Y: wm})
		f.Table = append(f.Table, []string{r.Policy, fmt.Sprintf("%.2f", q3), fmt.Sprintf("%.2f", wm)})
	}
	var hybrid4hQ3, fixed10Q3 float64
	fixed10Q3 = metrics.ThirdQuartileColdPercent(base)
	for _, rng := range hybridRanges {
		r := sim.Simulate(tr, hybridWithRange(rng), sim.Options{Workers: workers})
		q3 := metrics.ThirdQuartileColdPercent(r)
		wm := metrics.NormalizedWastedMemory(r, base)
		hybridPts = append(hybridPts, stats.Point{X: q3, Y: wm})
		f.Table = append(f.Table, []string{r.Policy, fmt.Sprintf("%.2f", q3), fmt.Sprintf("%.2f", wm)})
		if rng == 4*time.Hour {
			hybrid4hQ3 = q3
		}
	}
	f.Series = []Series{
		{Name: "fixed keep-alive", Points: fixedPts},
		{Name: "hybrid (1-4h range)", Points: hybridPts},
	}
	if hybrid4hQ3 > 0 {
		f.AddNote("fixed-10min cold starts / hybrid-4h cold starts at Q3: %.2fx (paper: ~2.5x at equal memory)",
			fixed10Q3/hybrid4hQ3)
	}
	return f
}

// cutoffVariants are the Figure 16 head/tail percentile combinations.
var cutoffVariants = []struct{ head, tail float64 }{
	{0, 100}, {5, 100}, {1, 99}, {5, 99}, {1, 95}, {5, 95},
}

// Figure16 reproduces the cutoff-percentile sensitivity study.
func Figure16(tr *trace.Trace, workers int) *Figure {
	f := &Figure{
		ID: "figure-16", Title: "Impact of the histogram cutoff percentiles",
		XLabel: "app cold start (%)", YLabel: "CDF",
	}
	base := baseline10min(tr, workers)
	f.Table = [][]string{{"Variant", "ColdQ3 (%)", "WastedMem (% of fixed-10m)"}}
	var wm0100, wm599 float64
	for _, v := range cutoffVariants {
		cfg := policy.DefaultHybridConfig()
		cfg.Histogram.HeadPercentile = v.head
		cfg.Histogram.TailPercentile = v.tail
		r := sim.Simulate(tr, policy.NewHybrid(cfg), sim.Options{Workers: workers})
		name := fmt.Sprintf("hybrid[%g,%g]", v.head, v.tail)
		f.Series = append(f.Series, Series{Name: name, Points: cdfPoints(r.ColdPercents(), 64)})
		q3 := metrics.ThirdQuartileColdPercent(r)
		wm := metrics.NormalizedWastedMemory(r, base)
		f.Table = append(f.Table, []string{name, fmt.Sprintf("%.2f", q3), fmt.Sprintf("%.2f", wm)})
		switch {
		case v.head == 0 && v.tail == 100:
			wm0100 = wm
		case v.head == 5 && v.tail == 99:
			wm599 = wm
		}
	}
	if wm0100 > 0 {
		f.AddNote("[5,99] vs [0,100] wasted memory: %.1f%% lower (paper: ~15%%)",
			100*(1-wm599/wm0100))
	}
	return f
}

// Figure17 reproduces the pre-warming ablation: hybrid without
// pre-warming vs pre-warming at the 1st and 5th percentile heads.
func Figure17(tr *trace.Trace, workers int) *Figure {
	f := &Figure{
		ID: "figure-17", Title: "Impact of unloading and pre-warming",
		XLabel: "app cold start (%)", YLabel: "CDF",
	}
	base := baseline10min(tr, workers)
	f.Table = [][]string{{"Variant", "ColdQ3 (%)", "WastedMem (% of fixed-10m)"}}

	variants := []struct {
		name string
		cfg  policy.HybridConfig
	}{
		{"no PW, KA:99th", func() policy.HybridConfig {
			c := policy.DefaultHybridConfig()
			c.DisablePreWarm = true
			return c
		}()},
		{"PW:1st, KA:99th", func() policy.HybridConfig {
			c := policy.DefaultHybridConfig()
			c.Histogram.HeadPercentile = 1
			return c
		}()},
		{"PW:5th, KA:99th", policy.DefaultHybridConfig()},
	}
	var noPW, pw5 float64
	for _, v := range variants {
		r := sim.Simulate(tr, policy.NewHybrid(v.cfg), sim.Options{Workers: workers})
		f.Series = append(f.Series, Series{Name: v.name, Points: cdfPoints(r.ColdPercents(), 64)})
		q3 := metrics.ThirdQuartileColdPercent(r)
		wm := metrics.NormalizedWastedMemory(r, base)
		f.Table = append(f.Table, []string{v.name, fmt.Sprintf("%.2f", q3), fmt.Sprintf("%.2f", wm)})
		switch v.name {
		case "no PW, KA:99th":
			noPW = wm
		case "PW:5th, KA:99th":
			pw5 = wm
		}
	}
	if noPW > 0 {
		f.AddNote("pre-warming (5th) vs no-PW wasted memory: %.1f%% lower (paper: significant reduction)",
			100*(1-pw5/noPW))
	}
	return f
}

// cvThresholds are the Figure 18 representativeness thresholds.
var cvThresholds = []float64{0, 2, 5, 10}

// Figure18 reproduces the CV-threshold study.
func Figure18(tr *trace.Trace, workers int) *Figure {
	f := &Figure{
		ID: "figure-18", Title: "Impact of the histogram representativeness (CV) threshold",
		XLabel: "app cold start (%)", YLabel: "CDF",
	}
	base := baseline10min(tr, workers)
	f.Table = [][]string{{"CV threshold", "ColdQ3 (%)", "WastedMem (% of fixed-10m)"}}
	for _, cv := range cvThresholds {
		cfg := policy.DefaultHybridConfig()
		cfg.CVThreshold = cv
		r := sim.Simulate(tr, policy.NewHybrid(cfg), sim.Options{Workers: workers})
		name := fmt.Sprintf("CV=%g", cv)
		f.Series = append(f.Series, Series{Name: name, Points: cdfPoints(r.ColdPercents(), 64)})
		f.Table = append(f.Table, []string{
			name,
			fmt.Sprintf("%.2f", metrics.ThirdQuartileColdPercent(r)),
			fmt.Sprintf("%.2f", metrics.NormalizedWastedMemory(r, base)),
		})
	}
	f.AddNote("paper selects CV=2: gains over CV=0, negligible benefit beyond")
	return f
}

// Figure19 reproduces the always-cold-applications study: fixed
// keep-alive (4h), hybrid without ARIMA, and the full hybrid.
func Figure19(tr *trace.Trace, workers int) *Figure {
	f := &Figure{
		ID: "figure-19", Title: "Percentage of applications that always experience cold starts",
	}
	policies := []policy.Policy{
		policy.FixedKeepAlive{KeepAlive: 4 * time.Hour},
		func() policy.Policy {
			cfg := policy.DefaultHybridConfig()
			cfg.DisableARIMA = true
			return policy.NewHybrid(cfg)
		}(),
		policy.NewHybrid(policy.DefaultHybridConfig()),
	}
	f.Table = [][]string{{"Policy", "Always-cold (%)", "Always-cold excl. 1-invocation (%)"}}
	var noARIMA, full float64
	for _, p := range policies {
		r := sim.Simulate(tr, p, sim.Options{Workers: workers})
		all := 100 * r.AlwaysColdFraction(false)
		excl := 100 * r.AlwaysColdFraction(true)
		f.Table = append(f.Table, []string{
			r.Policy, fmt.Sprintf("%.2f", all), fmt.Sprintf("%.2f", excl),
		})
		switch p.(type) {
		case *policy.Hybrid:
			if p.Name() == "hybrid-4h0m0s[5,99]-noarima" {
				noARIMA = excl
			} else {
				full = excl
			}
		}
	}
	if noARIMA > 0 {
		f.AddNote("ARIMA reduces always-cold (excl. single-invocation) by %.0f%% (paper: 75%%, 6.9%% -> 1.7%%)",
			100*(1-full/noARIMA))
	}
	return f
}

// PolicySweep simulates an arbitrary set of registry policy specs
// (e.g. "hybrid?cv=5", "fixed?ka=30m") over tr and tabulates their
// (cold starts, wasted memory) trade-off against the 10-minute fixed
// baseline — the Figure 15 plane for user-supplied policies. It is a
// thin Grid consumer: the specs become a policy axis, the baseline is
// cell 0, and the scenario sweep engine runs the cells.
func PolicySweep(ctx context.Context, tr *trace.Trace, specs []string, workers int) (*Figure, error) {
	f := &Figure{
		ID: "extra-policy-sweep", Title: "Custom policy sweep (registry specs)",
		XLabel: "3rd-quartile app cold start (%)", YLabel: "normalized wasted memory (%)",
	}
	cells, err := scenario.Grid{
		Base: scenario.Scenario{Sinks: []string{"coldstart", "waste"}, Workers: workers},
		Axes: []scenario.Axis{{Key: "policy", Values: append([]string{"fixed?ka=10m"}, specs...)}},
	}.Scenarios()
	if err != nil {
		return nil, err
	}
	rep, err := scenario.RunSweep(ctx, cells, scenario.WithFixedTrace(tr))
	if err != nil {
		return nil, err
	}
	baseWasted, _ := rep.Cells[0].Metric("wasted_seconds")
	f.Table = [][]string{{"Spec", "Policy", "ColdQ3 (%)", "WastedMem (% of fixed-10m)"}}
	var pts []stats.Point
	for i, c := range rep.Cells[1:] {
		q3, _ := c.Metric("cold_p75")
		wasted, _ := c.Metric("wasted_seconds")
		wm := 0.0
		if baseWasted > 0 {
			wm = 100 * wasted / baseWasted
		}
		pts = append(pts, stats.Point{X: q3, Y: wm})
		f.Table = append(f.Table, []string{
			specs[i], c.PolicyName, fmt.Sprintf("%.2f", q3), fmt.Sprintf("%.2f", wm),
		})
	}
	f.Series = []Series{{Name: "custom policies", Points: pts}}
	return f, nil
}

// PlatformConfig parameterizes the Figure 20 platform experiment.
type PlatformConfig struct {
	// Apps is the number of mid-popularity apps to replay (paper: 68).
	Apps int
	// Window truncates the replay (paper: 8 hours).
	Window time.Duration
	// Invokers is the worker count (paper: 18).
	Invokers int
	// Seed drives the app selection.
	Seed uint64
}

func (c PlatformConfig) withDefaults() PlatformConfig {
	if c.Apps == 0 {
		c.Apps = 68
	}
	if c.Window == 0 {
		c.Window = 8 * time.Hour
	}
	if c.Invokers == 0 {
		c.Invokers = 18
	}
	return c
}

// Figure20 reproduces the OpenWhisk-analogue experiment: the hybrid
// policy vs the 10-minute fixed keep-alive on the in-process platform,
// replaying mid-popularity apps. It reports the cold-start CDFs, the
// worker-memory reduction, latency improvements and policy overhead.
// The replay runs in virtual time; ctx cancels it mid-flight.
func Figure20(ctx context.Context, tr *trace.Trace, cfg PlatformConfig) (*Figure, error) {
	cfg = cfg.withDefaults()
	f := &Figure{
		ID: "figure-20", Title: "Cold start behavior of fixed and hybrid policies on the platform",
		XLabel: "app cold start (%)", YLabel: "CDF",
	}
	// The paper replays 68 mid-range-popularity apps totalling 12,383
	// invocations over 8 hours (~180 per app, gaps of minutes). Select
	// apps in that absolute activity regime within the window, and give
	// every app the same memory footprint, matching the simulator's
	// §5.1 uniform-memory assumption (per-app Burr draws would let a
	// single heavy app dominate a 68-app comparison).
	sel := selectByWindowActivity(tr, cfg.Apps, cfg.Seed, cfg.Window, 100, 400)
	uniform := &trace.Trace{Duration: sel.Duration}
	for _, app := range sel.Apps {
		cp := app.Clone()
		cp.MemoryMB = 128
		uniform.Apps = append(uniform.Apps, cp)
	}
	sel = uniform

	// Executions run with zero duration so latency isolates the
	// platform overhead the paper's latency numbers capture (cold
	// container instantiation and runtime init are eliminated on warm
	// starts).
	run := func(pol policy.Policy) (*replay.Report, error) {
		return replay.Replay(ctx, platform.Config{NumInvokers: cfg.Invokers}, pol, sel,
			replay.Options{Limit: cfg.Window})
	}

	fixedRep, err := run(policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	if err != nil {
		return nil, err
	}
	hybridRep, err := run(policy.NewHybrid(policy.DefaultHybridConfig()))
	if err != nil {
		return nil, err
	}

	f.Series = []Series{
		{Name: "hybrid", Points: cdfPoints(hybridRep.ColdPercents(), 64)},
		{Name: "fixed (10-min)", Points: cdfPoints(fixedRep.ColdPercents(), 64)},
	}
	f.AddNote("invocations replayed: %d (paper: 12,383 over 8h)", fixedRep.Invocations)
	if fixedRep.Cluster.MemoryMBSeconds > 0 {
		f.AddNote("worker memory reduction: %.1f%% (paper: 15.6%%)",
			100*(1-hybridRep.Cluster.MemoryMBSeconds/fixedRep.Cluster.MemoryMBSeconds))
	}
	if fixedRep.MeanLatency > 0 {
		f.AddNote("latency reduction: %.1f%% mean / %.1f%% p99 (paper: 32.5%% mean / 82.4%% p99)",
			100*(1-float64(hybridRep.MeanLatency)/float64(fixedRep.MeanLatency)),
			100*(1-float64(hybridRep.P99Latency)/float64(fixedRep.P99Latency)))
	}
	f.AddNote("hybrid policy decision overhead: %v mean (paper: 835.7us in Scala)",
		hybridRep.PolicyOverheadMean)
	return f, nil
}

// selectByWindowActivity picks up to n apps whose invocation count
// inside the window falls in [minInv, maxInv] — the paper's
// "mid-range popularity" in absolute terms. If too few qualify, the
// bounds are progressively relaxed.
func selectByWindowActivity(tr *trace.Trace, n int, seed uint64,
	window time.Duration, minInv, maxInv int) *trace.Trace {

	horizon := window.Seconds()
	count := func(app *trace.App) int {
		c := 0
		for _, t := range app.InvocationTimes() {
			if t > horizon {
				break
			}
			c++
		}
		return c
	}
	for relax := 0; relax < 8; relax++ {
		var eligible []*trace.App
		for _, app := range tr.Apps {
			if c := count(app); c >= minInv && c <= maxInv {
				eligible = append(eligible, app)
			}
		}
		if len(eligible) >= n || (minInv <= 1 && relax > 0) {
			if len(eligible) == 0 {
				break
			}
			if n > len(eligible) {
				n = len(eligible)
			}
			r := stats.NewRNG(seed)
			perm := r.Perm(len(eligible))
			sel := &trace.Trace{Duration: tr.Duration}
			for _, idx := range perm[:n] {
				sel.Apps = append(sel.Apps, eligible[idx])
			}
			trace.SortAppsByID(sel)
			return sel
		}
		minInv /= 2
		if minInv < 1 {
			minInv = 1
		}
		maxInv *= 2
	}
	return replay.SelectMidPopularity(tr, n, seed)
}
