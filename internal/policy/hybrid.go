package policy

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/arima"
	"repro/internal/forecast"
	"repro/internal/ithist"
)

// Fixed parameters of the hybrid policy; no spec key sets them.
const (
	// MinObservations is the minimum number of recorded ITs before the
	// histogram may be trusted at all.
	MinObservations = 2
	// OOBThreshold is the fraction of out-of-bounds ITs above which
	// the policy switches to the ARIMA path ("too many OOB ITs",
	// Figure 10).
	OOBThreshold = 0.5
	// ARIMAMargin is the forecast error allowance: the pre-warm window
	// is the prediction minus the margin, and the keep-alive window
	// spans the margin on both sides of it (§4.2).
	ARIMAMargin = 0.15
	// ARIMAMinSamples is the minimum IT count before fitting ARIMA.
	ARIMAMinSamples = 4
	// ARIMAMaxSeries caps the retained IT series length (oldest
	// dropped), bounding per-app state.
	ARIMAMaxSeries = 1000
)

// HybridConfig parameterizes the hybrid histogram policy. The zero
// value is invalid; start from DefaultHybridConfig.
type HybridConfig struct {
	// Histogram configures the per-app idle-time histogram (range and
	// cutoff percentiles).
	Histogram ithist.Config
	// CVThreshold is the minimum bin-count coefficient of variation
	// for the histogram to be considered representative (the paper
	// selects 2; Figure 18).
	CVThreshold float64
	// DisableARIMA turns the time-series path off; apps with OOB-heavy
	// IT distributions fall back to the standard keep-alive (used for
	// the Figure 19 ablation).
	DisableARIMA bool
	// DisablePreWarm keeps applications loaded after execution (pre-
	// warming window forced to 0) with the keep-alive extended to cover
	// through the histogram tail — the "Hybrid No PW, KA:99th" variant
	// of the Figure 17 ablation.
	DisablePreWarm bool
	// Forecaster predicts the next idle time (in minutes) on the
	// time-series path. Nil selects ARIMA, the paper's default; the
	// paper notes the model is replaceable (§4.2), and
	// forecast.ExpSmoothing is a cheap drop-in.
	Forecaster forecast.Forecaster
	// RefitInterval (spec refit=<dur>) amortizes the ARIMA refit for
	// OOB-managed apps: a fitted forecast is reused until at least
	// RefitInterval of observed idle (trace) time has accumulated since
	// the fit, instead of refitting on every invocation. 0 keeps the
	// paper's §4.2 refit-per-invocation semantics exactly; nonzero is
	// the one opt-in departure from them, measured by internal/equiv.
	RefitInterval time.Duration
}

// DefaultHybridConfig returns the paper's defaults: 4-hour histogram
// with [5,99] cutoffs and CV threshold 2.
func DefaultHybridConfig() HybridConfig {
	return HybridConfig{
		Histogram:   ithist.DefaultConfig(),
		CVThreshold: 2,
	}
}

// Validate reports whether the configuration is usable.
func (c HybridConfig) Validate() error {
	if err := c.Histogram.Validate(); err != nil {
		return err
	}
	if !(c.CVThreshold >= 0) {
		return fmt.Errorf("policy: CVThreshold %v is not >= 0", c.CVThreshold)
	}
	if c.RefitInterval < 0 {
		return fmt.Errorf("policy: RefitInterval %v negative", c.RefitInterval)
	}
	return nil
}

// Hybrid is the paper's hybrid histogram policy.
type Hybrid struct {
	cfg HybridConfig
	// fc is the forecaster the time-series path asks: cfg.Forecaster,
	// the default ARIMA search when that is nil, or a memo of the
	// default handed over by ShareForecasts.
	fc forecast.Forecaster
	// apps recycles the policy's per-app state across NewApp/Release
	// cycles (sim walks hundreds of thousands of apps per policy; a
	// recycled app reuses its histogram and ring-buffer backing instead
	// of allocating them again: 384 B for an app whose histogram is
	// still in its small form, plus the 960 B bin array once it is
	// dense). It is per policy, so every pooled state has the policy's
	// histogram shape: a walker that walks each app under several
	// hybrid configurations in turn reuses each one's states.
	apps sync.Pool
}

// NewHybrid constructs the policy, panicking on invalid configuration
// (programming error, as configs are code-supplied).
func NewHybrid(cfg HybridConfig) *Hybrid {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	fc := cfg.Forecaster
	if fc == nil {
		fc = defaultForecaster
	}
	return &Hybrid{cfg: cfg, fc: fc}
}

// NewForecastMemo returns an empty memo of the paper's default ARIMA
// forecaster, the one ShareForecasts expects.
func NewForecastMemo() *forecast.Memo { return forecast.NewMemo(defaultForecaster) }

// ShareForecasts makes p's time-series path fit through memo, which
// must come from NewForecastMemo, if p is a hybrid policy on the
// default forecaster with the time-series path on; any other policy, or
// a nil memo, is left alone. Every decision is unchanged: the memo only
// replays fits of series it has already seen. Call it before p makes
// its first app.
func ShareForecasts(p Policy, memo *forecast.Memo) {
	h, ok := p.(*Hybrid)
	if !ok || memo == nil || h.cfg.Forecaster != nil || h.cfg.DisableARIMA {
		return
	}
	h.fc = memo
}

// Name implements Policy.
func (p *Hybrid) Name() string {
	h := p.cfg.Histogram
	name := fmt.Sprintf("hybrid-%s[%g,%g]", ithist.BinWidth*time.Duration(h.NumBins),
		h.HeadPercentile, h.TailPercentile)
	if p.cfg.DisableARIMA {
		name += "-noarima"
	}
	if p.cfg.DisablePreWarm {
		name += "-nopw"
	}
	if p.cfg.RefitInterval > 0 {
		name += fmt.Sprintf("-refit%s", p.cfg.RefitInterval)
	}
	return name
}

// Config returns the policy configuration.
func (p *Hybrid) Config() HybridConfig { return p.cfg }

// NewApp implements Policy. If an app of this policy was Released
// since, its backing state is reused.
func (p *Hybrid) NewApp(string) AppPolicy {
	a, _ := p.apps.Get().(*hybridApp)
	if a == nil {
		a = &hybridApp{hist: ithist.New(p.cfg.Histogram)}
	}
	a.reset(p)
	return a
}

// defaultForecaster is the paper's default ARIMA order search, boxed
// once so recycling an app never re-allocates the interface value.
var defaultForecaster forecast.Forecaster = forecast.ARIMA{
	Options: arima.Options{MaxP: 2, MaxD: 1, MaxQ: 1},
}

type hybridApp struct {
	pol  *Hybrid // shared by all the policy's apps
	hist *ithist.Histogram

	// its is the retained idle-time series feeding the forecaster: a
	// fixed-capacity ring (capacity ARIMAMaxSeries) holding the raw
	// durations, oldest at itsHead once wrapped. Durations convert to
	// the forecaster's minutes scale only at fit time, so the common
	// per-invocation path does no float division. obsSeen counts every
	// recorded IT and keys the decision and forecast memos.
	its     []time.Duration
	itsHead int
	obsSeen uint64

	series []float64          // scratch: linearized minutes series for fits
	wruns  []ithist.WindowRun // scratch: batch kernel output

	// Decision memo: the last decision remains valid until new data
	// arrives (the decision is a pure function of histogram and series
	// state, and every NextWindows observation bumps obsSeen), so
	// back-to-back queries without an observation are free.
	lastDecision Decision
	lastSeen     uint64
	lastValid    bool

	// Forecast memo: prediction fitted when obsSeen was fitSeen. The
	// paper refits after every invocation of an ARIMA-managed app; with
	// RefitInterval 0 the memo only skips refits when no new IT arrived,
	// preserving that semantics. RefitInterval > 0 additionally reuses
	// the memo while less than RefitInterval of observed idle time has
	// passed since the fit (clock - fitAt).
	fitSeen  uint64
	fitPred  float64
	fitOK    bool
	fitValid bool

	// clock accumulates observed idle (trace) time and fitAt stamps
	// the clock at the last actual fit, so clk - fitAt is the fit's
	// age. The per-call path advances the clock on every
	// observation; the batch kernel only across forecast-path (OOB)
	// observations — the fit is only consulted there, and since fitAt
	// comes from the same clock, stretches skipped by both cancel out
	// of the age.
	clock time.Duration
	fitAt time.Duration

	// Pads the struct to 192 B, three whole cache lines, for the
	// reason ithist.Histogram is padded: app state is written on every
	// decision, and the pool hands neighbouring apps to different
	// goroutines.
	_ [8]byte
}

// reset prepares a fresh or recycled app for a new lifetime.
func (a *hybridApp) reset(pol *Hybrid) {
	a.pol = pol
	a.hist.Reset()
	a.its = a.its[:0]
	a.itsHead = 0
	a.obsSeen = 0
	a.lastValid = false
	a.fitValid = false
	a.clock = 0
	a.fitAt = 0
}

// Release implements Releasable: the app's state returns to its
// policy's pool for a future NewApp. The caller must not use the app
// afterwards.
func (a *hybridApp) Release() { a.pol.apps.Put(a) }

// pushIT records one idle time in the ring buffer. The buffer grows
// geometrically to its fixed capacity, then overwrites the oldest
// entry, so steady state allocates nothing.
func (a *hybridApp) pushIT(idle time.Duration) {
	a.obsSeen++
	if len(a.its) < ARIMAMaxSeries {
		a.its = append(a.its, idle)
		return
	}
	a.its[a.itsHead] = idle
	a.itsHead++
	if a.itsHead == len(a.its) {
		a.itsHead = 0
	}
}

// seriesMinutes linearizes the ring into the scratch slice, oldest
// first, converted to minutes (the forecaster's scale).
func (a *hybridApp) seriesMinutes() []float64 {
	n := len(a.its)
	if cap(a.series) < n {
		a.series = make([]float64, n)
	}
	s := a.series[:n]
	k := 0
	for _, d := range a.its[a.itsHead:] {
		s[k] = d.Minutes()
		k++
	}
	for _, d := range a.its[:a.itsHead] {
		s[k] = d.Minutes()
		k++
	}
	return s
}

// NextWindows implements AppPolicy, following Figure 10: update the IT
// distribution, then choose the ARIMA path (too many OOB ITs), the
// histogram (representative pattern), or the conservative standard
// keep-alive.
func (a *hybridApp) NextWindows(idle time.Duration, first bool) Decision {
	if !first {
		if idle > 0 {
			a.clock += idle
		}
		a.hist.Observe(idle)
		a.pushIT(idle)
		// No memo write: the observation just invalidated any cached
		// decision, and the next call observes again, so a cache filled
		// here could never be read.
		return a.decide()
	}
	if a.lastValid && a.lastSeen == a.obsSeen {
		// No new data since the last decision: the decision pipeline is
		// deterministic, so the cached decision is exact.
		return a.lastDecision
	}
	d := a.decide()
	a.lastDecision = d
	a.lastSeen = a.obsSeen
	a.lastValid = true
	return d
}

// NextWindowsSeq implements SequencePolicy. The histogram work — the
// dominant per-invocation cost — runs as one batch kernel
// (ithist.DecideSeq) that emits run-length-encoded regimes; this
// method maps regime runs to decisions, expanding per invocation only
// on the rare time-series path, whose refit-per-invocation semantics
// the paper mandates. The retained IT series at invocation j is by
// construction the last ARIMAMaxSeries entries of idles[1:j+1], so the
// ring buffer is not consulted during the batch and is rebuilt once at
// the end.
func (a *hybridApp) NextWindowsSeq(idles []time.Duration, runs []DecisionRun) []DecisionRun {
	if len(idles) == 0 {
		return runs
	}
	acc := runAcc{runs: runs, cur: a.NextWindows(idles[0], true), curN: 1}
	// The batch path needs a fresh app — it reconstructs the ARIMA
	// series from idles alone and rebuilds the ring from it, which
	// would silently drop previously recorded ITs — and a configuration
	// the kernel's integer forms represent. Otherwise walk the per-call
	// path, which handles both.
	batched := false
	if a.obsSeen == 0 {
		a.wruns, batched = a.hist.DecideSeq(idles, MinObservations, OOBThreshold, a.pol.cfg.CVThreshold, a.wruns[:0])
	}
	if !batched {
		for _, idle := range idles[1:] {
			acc.emit(a.NextWindows(idle, false), 1)
		}
		return append(acc.runs, DecisionRun{D: acc.cur, N: acc.curN})
	}
	standard := a.standard()
	disablePW := a.pol.cfg.DisablePreWarm
	// The batch advances the refit clock solely across forecast-path
	// (OOB) observations: the fit is only consulted there, and fitAt is
	// stamped from the same clock, so skipped stretches cancel out of
	// the clk - fitAt age. Summing the windows/standard runs' idles too
	// would put an O(invocations) pass on the hot path for apps that
	// never touch the forecast.
	clk := a.clock
	idx := 1 // invocation index of the next run's first observation
	for _, wr := range a.wruns {
		switch wr.Regime {
		case ithist.RegimeWindows:
			if disablePW {
				// Keep the app loaded from execution end through
				// the tail.
				acc.emit(Decision{PreWarm: 0, KeepAlive: wr.PreWarm + wr.KeepAlive, Mode: ModeHistogram}, wr.Count)
			} else {
				acc.emit(Decision{PreWarm: wr.PreWarm, KeepAlive: wr.KeepAlive, Mode: ModeHistogram}, wr.Count)
			}
		case ithist.RegimeStandard:
			acc.emit(standard, wr.Count)
		default: // ithist.RegimeOOB: the time-series path
			for k := 0; k < int(wr.Count); k++ {
				if it := idles[idx+k]; it > 0 {
					clk += it
				}
				d, ok := a.arimaDecisionAt(idles, idx+k, clk)
				if !ok {
					d = standard
				}
				acc.emit(d, 1)
			}
		}
		idx += int(wr.Count)
	}
	// Leave the ring, counters and memos as the per-call path would
	// have, so subsequent single NextWindows calls continue correctly:
	// marking the forecast memo seen lets the next observation apply
	// the refit gate (which never holds at RefitInterval 0).
	a.rebuildRing(idles[1:])
	a.clock = clk
	a.lastValid = false
	if a.fitValid {
		a.fitSeen = a.obsSeen
	}
	return append(acc.runs, DecisionRun{D: acc.cur, N: acc.curN})
}

// runAcc accumulates run-length-encoded decisions.
type runAcc struct {
	runs []DecisionRun
	cur  Decision
	curN int32
}

func (r *runAcc) emit(d Decision, n int32) {
	if d == r.cur {
		r.curN += n
	} else {
		r.runs = append(r.runs, DecisionRun{D: r.cur, N: r.curN})
		r.cur, r.curN = d, n
	}
}

// arimaDecisionAt is arimaDecision with the IT series sliced directly
// out of the idle sequence: after invocation j, the retained series is
// the last ARIMAMaxSeries entries of idles[1 : j+1]. clk is the refit
// clock after this invocation's idle; a fit younger than RefitInterval
// is reused through the forecast memo, skipping both the
// minutes-series re-derivation and the fit. With RefitInterval 0 the
// gate never holds and every invocation refits (§4.2).
func (a *hybridApp) arimaDecisionAt(idles []time.Duration, j int, clk time.Duration) (Decision, bool) {
	if a.pol.cfg.DisableARIMA || j < ARIMAMinSamples {
		return Decision{}, false
	}
	if !a.fitValid || clk-a.fitAt >= a.pol.cfg.RefitInterval {
		lo := 1
		if m := j - ARIMAMaxSeries + 1; m > lo {
			lo = m
		}
		n := j - lo + 1
		if cap(a.series) < n {
			a.series = make([]float64, n)
		}
		s := a.series[:n]
		for k := range s {
			s[k] = idles[lo+k].Minutes()
		}
		a.fitPred, a.fitOK = a.pol.fc.PredictNext(s)
		a.fitAt = clk
		a.fitValid = true
	}
	if !a.fitOK {
		return Decision{}, false
	}
	return a.arimaWindows(a.fitPred), true
}

// rebuildRing replaces the ring contents with the tail of the observed
// idle sequence, in oldest-first order, and advances the observation
// counter — the state the per-call path would have accumulated.
func (a *hybridApp) rebuildRing(observed []time.Duration) {
	a.obsSeen += uint64(len(observed))
	if len(observed) > ARIMAMaxSeries {
		observed = observed[len(observed)-ARIMAMaxSeries:]
	}
	a.its = append(a.its[:0], observed...)
	a.itsHead = 0
}

// decide runs the Figure 10 regime selection on the current state.
func (a *hybridApp) decide() Decision {
	total := a.hist.Total() + a.hist.OutOfBounds()
	if total >= MinObservations && a.hist.OOBHeavy(OOBThreshold) {
		if d, ok := a.arimaDecision(); ok {
			return d
		}
		return a.standard()
	}
	if total < MinObservations || a.hist.CVBelow(a.pol.cfg.CVThreshold) {
		return a.standard()
	}
	pw, ka, ok := a.hist.Windows()
	if !ok {
		return a.standard()
	}
	if a.pol.cfg.DisablePreWarm {
		// Keep the app loaded from execution end through the tail.
		return Decision{PreWarm: 0, KeepAlive: pw + ka, Mode: ModeHistogram}
	}
	return Decision{PreWarm: pw, KeepAlive: ka, Mode: ModeHistogram}
}

// standard is the conservative fallback: no unloading after execution
// and a keep-alive as long as the histogram range (§4.2).
func (a *hybridApp) standard() Decision {
	return Decision{PreWarm: 0, KeepAlive: a.hist.Range(), Mode: ModeStandard}
}

// arimaDecision fits the per-app forecast model on the IT series and
// converts the next-IT prediction into windows with ARIMAMargin:
// pre-warm = pred*(1-margin), keep-alive = 2*margin*pred (margin on
// each side of the prediction).
func (a *hybridApp) arimaDecision() (Decision, bool) {
	if a.pol.cfg.DisableARIMA || len(a.its) < ARIMAMinSamples {
		return Decision{}, false
	}
	// The paper rebuilds the model after every invocation of an
	// ARIMA-managed app (§4.2); these apps are invoked rarely, so the
	// cost is off the critical path and negligible in aggregate. The
	// memo only short-circuits refits on an unchanged series — except
	// with a refit interval, where a fit younger than RefitInterval of
	// observed idle time is reused (and the minutes series not
	// re-derived) even after new observations.
	if !a.fitValid || a.fitSeen != a.obsSeen {
		if a.fitValid && a.clock-a.fitAt < a.pol.cfg.RefitInterval {
			a.fitSeen = a.obsSeen
		} else {
			a.fitPred, a.fitOK = a.pol.fc.PredictNext(a.seriesMinutes())
			a.fitSeen = a.obsSeen
			a.fitAt = a.clock
			a.fitValid = true
		}
	}
	if !a.fitOK {
		return Decision{}, false
	}
	return a.arimaWindows(a.fitPred), true
}

// arimaWindows converts a next-IT prediction (in minutes) into the
// margin windows: pre-warm = pred*(1-margin), keep-alive =
// 2*margin*pred (margin on each side of the prediction).
func (a *hybridApp) arimaWindows(predMinutes float64) Decision {
	pred := time.Duration(predMinutes * float64(time.Minute))
	pw := time.Duration(float64(pred) * (1 - ARIMAMargin))
	ka := time.Duration(float64(pred) * 2 * ARIMAMargin)
	if ka < ithist.BinWidth {
		ka = ithist.BinWidth
	}
	return Decision{PreWarm: pw, KeepAlive: ka, Mode: ModeARIMA}
}
