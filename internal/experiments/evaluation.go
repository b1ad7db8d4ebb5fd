package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The §5.2 figures are policy grids over one trace: each names the
// policy specs of its grid and reduces the executed cells. Section5
// runs the union of the grids as one scenario sweep, so a policy shared
// by several figures simulates once.

// baseline is the 10-minute fixed keep-alive policy every §5.2
// wasted-memory column is normalized to.
const baseline = "fixed?ka=10m"

// evalSinks feed every column: the per-app cold-start distribution and
// the wasted-memory total.
var evalSinks = []string{"coldstart?q=75", "waste"}

// variant is a labelled policy spec: one row or series of a figure.
// The default hybrid has range 4h, cutoffs [5,99], CV 2 and ARIMA.
type variant struct{ label, spec string }

var (
	fixedKeepAlives = []string{
		"fixed?ka=5m", baseline, "fixed?ka=20m", "fixed?ka=30m",
		"fixed?ka=45m", "fixed?ka=1h", "fixed?ka=90m", "fixed?ka=2h",
	}
	hybridRanges   = []string{"hybrid?range=1h", "hybrid?range=2h", "hybrid?range=3h", "hybrid"}
	cutoffVariants = []variant{
		{"hybrid[0,100]", "hybrid?head=0&tail=100"}, {"hybrid[5,100]", "hybrid?tail=100"},
		{"hybrid[1,99]", "hybrid?head=1"}, {"hybrid[5,99]", "hybrid"},
		{"hybrid[1,95]", "hybrid?head=1&tail=95"}, {"hybrid[5,95]", "hybrid?tail=95"},
	}
	preWarmVariants = []variant{
		{"no PW, KA:99th", "hybrid?prewarm=off"}, {"PW:1st, KA:99th", "hybrid?head=1"},
		{"PW:5th, KA:99th", "hybrid"},
	}
	cvThresholds = []variant{
		{"CV=0", "hybrid?cv=0"}, {"CV=2", "hybrid"}, {"CV=5", "hybrid?cv=5"}, {"CV=10", "hybrid?cv=10"},
	}
	alwaysColdPolicies = []string{"fixed?ka=4h", "hybrid?arima=off", "hybrid"}
	// Figure 19b's "arima" row is the default hybrid: Figure 19's cell.
	forecasters = []variant{
		{"none (standard fallback)", "hybrid?arima=off"}, {"arima", "hybrid"},
		{"expsmooth", "hybrid?forecaster=ses"}, {"mean", "hybrid?forecaster=mean"},
	}
	rangeSweep = []variant{
		{"30m0s", "hybrid?range=30m"}, {"1h0m0s", "hybrid?range=1h"}, {"2h0m0s", "hybrid?range=2h"},
		{"4h0m0s", "hybrid"}, {"8h0m0s", "hybrid?range=8h"},
	}
)

// policiesOf returns the extra specs followed by the variants' specs.
func policiesOf(vs []variant, extra ...string) []string {
	for _, v := range vs {
		extra = append(extra, v.spec)
	}
	return extra
}

// evalFigure is one §5.2 figure as data: the policy axis of its grid
// and the reducer that turns the executed cells into the figure.
type evalFigure struct {
	policies []string
	reduce   func(cells) *Figure
}

// section5 lists the §5.2 figures in report order.
var section5 = []evalFigure{
	{append([]string{"nounload"}, fixedKeepAlives...), figure14},
	{append(append([]string(nil), fixedKeepAlives...), hybridRanges...), figure15},
	{policiesOf(cutoffVariants, baseline), figure16},
	{policiesOf(preWarmVariants, baseline), figure17},
	{policiesOf(cvThresholds, baseline), figure18},
	{alwaysColdPolicies, figure19},
	{policiesOf(forecasters), figure19b},
	{policiesOf(rangeSweep, baseline), figureRangeSweep},
}

// Section5 regenerates the §5.2 simulation figures (14–19, 19b and the
// range sweep) over tr, running the grids' distinct policies as one
// sweep; workers bounds each cell's parallelism (0 = GOMAXPROCS). src
// is the gen: source spec that generates tr: each figure prints its
// grid over src as a note, so `coldsim -scenario` reruns the figure.
func Section5(ctx context.Context, tr *trace.Trace, src string, workers int) ([]*Figure, error) {
	c, err := runGrid(ctx, scenario.Scenario{Sinks: evalSinks, Workers: workers},
		section5Policies(), scenario.WithFixedTrace(tr))
	if err != nil {
		return nil, err
	}
	figs := make([]*Figure, len(section5))
	for i, ef := range section5 {
		figs[i] = ef.reduce(c)
		figs[i].AddNote("grid: coldsim -scenario '%s; policy=[%s]'",
			scenario.Scenario{Source: src, Sinks: evalSinks}, strings.Join(ef.policies, ","))
	}
	return figs, nil
}

// section5Policies returns the distinct policies of the §5.2 grids.
func section5Policies() []string {
	var all []string
	for _, ef := range section5 {
		all = append(all, ef.policies...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// cells maps each policy spec of a grid to its executed cell.
type cells map[string]*scenario.CellResult

// runGrid runs the grid of base over a policy axis and keys the cells
// by spec.
func runGrid(ctx context.Context, base scenario.Scenario, policies []string, opts ...scenario.Option) (cells, error) {
	scs, err := scenario.Grid{Base: base, Axes: []scenario.Axis{{Key: "policy", Values: policies}}}.Scenarios()
	if err != nil {
		return nil, err
	}
	rep, err := scenario.RunSweep(ctx, scs, opts...)
	if err != nil {
		return nil, err
	}
	c := make(cells, len(policies))
	for i, p := range policies {
		c[p] = rep.Cells[i]
	}
	return c, nil
}

// q3 returns spec's 3rd-quartile app cold-start percentage.
func (c cells) q3(spec string) float64 {
	v, _ := c[spec].Metric("cold_p75")
	return v
}

// wastedMem returns spec's wasted memory time as a percentage of the
// baseline's (0 when the baseline wastes none).
func (c cells) wastedMem(spec string) float64 {
	base, _ := c[baseline].Metric("wasted_seconds")
	if base == 0 {
		return 0
	}
	w, _ := c[spec].Metric("wasted_seconds")
	return 100 * w / base
}

// coldDist is the read side of the coldstart sink (a
// metrics.ColdStartSink).
type coldDist interface {
	Quantile(p float64) float64
	AlwaysColdFraction(excludeSingleInvocation bool) float64
}

// cold returns spec's per-app cold-start distribution.
func (c cells) cold(spec string) coldDist {
	for _, s := range c[spec].Sinks {
		if d, ok := s.Sink.(coldDist); ok {
			return d
		}
	}
	panic("experiments: cell " + spec + " has no coldstart sink")
}

// cdf returns spec's per-app cold-start CDF at 64 quantiles.
func (c cells) cdf(spec string) []stats.Point {
	d := c.cold(spec)
	pts := make([]stats.Point, 64)
	for i := range pts {
		q := float64(i) / float64(len(pts)-1)
		pts[i] = stats.Point{X: d.Quantile(100 * q), Y: q}
	}
	return pts
}

// tradeoffHeader heads a table of tradeoffRows.
func tradeoffHeader(first string) []string {
	return []string{first, "ColdQ3 (%)", "WastedMem (% of fixed-10m)"}
}

// tradeoffRow tabulates spec's 3rd-quartile cold start and normalized
// wasted memory under label.
func (c cells) tradeoffRow(label, spec string) []string {
	return []string{label, fmt.Sprintf("%.2f", c.q3(spec)), fmt.Sprintf("%.2f", c.wastedMem(spec))}
}

// tradeoffPoint is spec's point on the Figure 15 plane.
func (c cells) tradeoffPoint(spec string) stats.Point {
	return stats.Point{X: c.q3(spec), Y: c.wastedMem(spec)}
}

// alwaysColdHeader heads a table of alwaysColdRows.
func alwaysColdHeader(first string) []string {
	return []string{first, "Always-cold (%)", "Always-cold excl. 1-invocation (%)"}
}

// alwaysColdRow tabulates spec's always-cold app percentages under
// label.
func (c cells) alwaysColdRow(label, spec string) []string {
	d := c.cold(spec)
	return []string{label,
		fmt.Sprintf("%.2f", 100*d.AlwaysColdFraction(false)),
		fmt.Sprintf("%.2f", 100*d.AlwaysColdFraction(true)),
	}
}

// figure14 reproduces the cold-start CDFs of the fixed keep-alive
// policy across keep-alive lengths, plus the no-unloading bound.
func figure14(c cells) *Figure {
	f := &Figure{
		ID: "figure-14", Title: "Cold start behavior of the fixed keep-alive policy",
		XLabel: "app cold start (%)", YLabel: "CDF",
	}
	f.Series = append(f.Series, Series{Name: "no unloading", Points: c.cdf("nounload")})
	for _, ka := range fixedKeepAlives {
		f.Series = append(f.Series, Series{Name: c[ka].PolicyName, Points: c.cdf(ka)})
	}
	for _, ka := range []string{baseline, "fixed?ka=1h"} {
		f.AddNote("%s: 75th-pct app cold start %.1f%% (paper: 50.3%% at 10min, 25%% at 1h)",
			c[ka].PolicyName, c.q3(ka))
	}
	f.AddNote("no-unloading always-cold apps: %.1f%% (paper: ~3.5%%, single-invocation apps)",
		100*c.cold("nounload").AlwaysColdFraction(false))
	return f
}

// figure15 reproduces the cold-start vs wasted-memory trade-off:
// fixed keep-alive sweep vs the hybrid policy across histogram ranges.
func figure15(c cells) *Figure {
	f := &Figure{
		ID: "figure-15", Title: "Trade-off between cold starts and wasted memory time",
		XLabel: "3rd-quartile app cold start (%)", YLabel: "normalized wasted memory (%)",
	}
	f.Table = [][]string{tradeoffHeader("Policy")}
	var fixedPts, hybridPts []stats.Point
	for _, p := range fixedKeepAlives {
		fixedPts = append(fixedPts, c.tradeoffPoint(p))
		f.Table = append(f.Table, c.tradeoffRow(c[p].PolicyName, p))
	}
	for _, p := range hybridRanges {
		hybridPts = append(hybridPts, c.tradeoffPoint(p))
		f.Table = append(f.Table, c.tradeoffRow(c[p].PolicyName, p))
	}
	f.Series = []Series{
		{Name: "fixed keep-alive", Points: fixedPts},
		{Name: "hybrid (1-4h range)", Points: hybridPts},
	}
	if hybrid4hQ3 := c.q3("hybrid"); hybrid4hQ3 > 0 {
		f.AddNote("fixed-10min cold starts / hybrid-4h cold starts at Q3: %.2fx (paper: ~2.5x at equal memory)",
			c.q3(baseline)/hybrid4hQ3)
	}
	return f
}

// cdfTradeoff fills f with one CDF series and one trade-off row per
// variant.
func cdfTradeoff(f *Figure, c cells, first string, vs []variant) *Figure {
	f.XLabel, f.YLabel = "app cold start (%)", "CDF"
	f.Table = [][]string{tradeoffHeader(first)}
	for _, v := range vs {
		f.Series = append(f.Series, Series{Name: v.label, Points: c.cdf(v.spec)})
		f.Table = append(f.Table, c.tradeoffRow(v.label, v.spec))
	}
	return f
}

// figure16 reproduces the cutoff-percentile sensitivity study.
func figure16(c cells) *Figure {
	f := cdfTradeoff(&Figure{ID: "figure-16", Title: "Impact of the histogram cutoff percentiles"},
		c, "Variant", cutoffVariants)
	if wm0100 := c.wastedMem("hybrid?head=0&tail=100"); wm0100 > 0 {
		f.AddNote("[5,99] vs [0,100] wasted memory: %.1f%% lower (paper: ~15%%)",
			100*(1-c.wastedMem("hybrid")/wm0100))
	}
	return f
}

// figure17 reproduces the pre-warming ablation: hybrid without
// pre-warming vs pre-warming at the 1st and 5th percentile heads.
func figure17(c cells) *Figure {
	f := cdfTradeoff(&Figure{ID: "figure-17", Title: "Impact of unloading and pre-warming"},
		c, "Variant", preWarmVariants)
	if noPW := c.wastedMem("hybrid?prewarm=off"); noPW > 0 {
		f.AddNote("pre-warming (5th) vs no-PW wasted memory: %.1f%% lower (paper: significant reduction)",
			100*(1-c.wastedMem("hybrid")/noPW))
	}
	return f
}

// figure18 reproduces the CV-threshold study.
func figure18(c cells) *Figure {
	f := cdfTradeoff(&Figure{
		ID: "figure-18", Title: "Impact of the histogram representativeness (CV) threshold",
	}, c, "CV threshold", cvThresholds)
	f.AddNote("paper selects CV=2: gains over CV=0, negligible benefit beyond")
	return f
}

// figure19 reproduces the always-cold-applications study: fixed
// keep-alive (4h), hybrid without ARIMA, and the full hybrid.
func figure19(c cells) *Figure {
	f := &Figure{
		ID: "figure-19", Title: "Percentage of applications that always experience cold starts",
	}
	f.Table = [][]string{alwaysColdHeader("Policy")}
	for _, p := range alwaysColdPolicies {
		f.Table = append(f.Table, c.alwaysColdRow(c[p].PolicyName, p))
	}
	if noARIMA := c.cold("hybrid?arima=off").AlwaysColdFraction(true); noARIMA > 0 {
		f.AddNote("ARIMA reduces always-cold (excl. single-invocation) by %.0f%% (paper: 75%%, 6.9%% -> 1.7%%)",
			100*(1-c.cold("hybrid").AlwaysColdFraction(true)/noARIMA))
	}
	return f
}

// PolicySweep simulates an arbitrary set of registry policy specs
// (e.g. "hybrid?cv=5", "fixed?ka=30m") over tr and tabulates their
// (cold starts, wasted memory) trade-off against the 10-minute fixed
// baseline — the Figure 15 plane for user-supplied policies. The specs
// become a policy axis after the baseline, run by the same grid sweep
// as the §5.2 figures.
func PolicySweep(ctx context.Context, tr *trace.Trace, specs []string, workers int) (*Figure, error) {
	f := &Figure{
		ID: "extra-policy-sweep", Title: "Custom policy sweep (registry specs)",
		XLabel: "3rd-quartile app cold start (%)", YLabel: "normalized wasted memory (%)",
	}
	c, err := runGrid(ctx, scenario.Scenario{Sinks: evalSinks, Workers: workers},
		append([]string{baseline}, specs...), scenario.WithFixedTrace(tr))
	if err != nil {
		return nil, err
	}
	f.Table = [][]string{append([]string{"Spec"}, tradeoffHeader("Policy")...)}
	var pts []stats.Point
	for _, spec := range specs {
		pts = append(pts, c.tradeoffPoint(spec))
		f.Table = append(f.Table, append([]string{spec}, c.tradeoffRow(c[spec].PolicyName, spec)...))
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
