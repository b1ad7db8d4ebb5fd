package workload

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// ArrivalKind labels the inter-arrival process assigned to a
// function, producing the CV structure of Figure 6.
type ArrivalKind uint8

// Arrival process kinds.
const (
	// KindTimer is a strictly periodic schedule (CV 0), used for
	// timer-triggered functions.
	KindTimer ArrivalKind = iota
	// KindPeriodicExternal is near-periodic with small jitter,
	// modeling periodic external callers such as sensors (the ~10% of
	// no-timer apps with CV ~ 0; §3.3).
	KindPeriodicExternal
	// KindPoisson is a (diurnally modulated) Poisson process (CV ~ 1).
	KindPoisson
	// KindBursty is a hyper-exponential renewal process (CV > 1).
	KindBursty
	// KindSession is an ON/OFF process: short clusters of invocations
	// minutes apart, separated by long idle gaps. This reproduces the
	// concentrated idle-time distributions of Figure 12 (most IT mass
	// within tens of minutes even for apps whose average rate is low)
	// and the high app-level IAT CV of Figure 6.
	KindSession
)

// DiurnalProfile models Figure 4's platform load shape: a constant
// baseline of roughly half the traffic plus a diurnal bump that
// shrinks on weekends. Factor is normalized to mean 1 over a week so
// modulation preserves a function's average rate.
type DiurnalProfile struct {
	// Baseline is the constant fraction (default 0.5).
	Baseline float64
	// WeekendDamp scales the diurnal component on Saturday/Sunday
	// (default 0.6).
	WeekendDamp float64

	norm float64
}

// NewDiurnalProfile constructs the default profile used throughout.
func NewDiurnalProfile() *DiurnalProfile {
	p := &DiurnalProfile{Baseline: 0.5, WeekendDamp: 0.6}
	p.normalize()
	return p
}

func (p *DiurnalProfile) normalize() {
	// Numerical mean over one week at 1-minute resolution.
	p.norm = 1
	var sum float64
	const steps = 7 * 24 * 60
	for i := 0; i < steps; i++ {
		sum += p.raw(float64(i) * 60)
	}
	p.norm = sum / steps
}

// raw computes the unnormalized factor at t seconds from the trace
// start (which is taken to be Monday 00:00).
func (p *DiurnalProfile) raw(t float64) float64 {
	day := int(t/86400) % 7
	hour := math.Mod(t, 86400) / 3600
	// Diurnal bump peaking mid-afternoon (15:00), zero at 03:00.
	bump := 0.5 * (1 - math.Cos(2*math.Pi*(hour-3)/24))
	damp := 1.0
	if day >= 5 { // Saturday, Sunday (trace starts Monday)
		damp = p.WeekendDamp
	}
	return p.Baseline + (1-p.Baseline)*2*bump*damp
}

// Factor returns the normalized load multiplier at t seconds from
// trace start (mean ~1 over a full week).
func (p *DiurnalProfile) Factor(t float64) float64 {
	return p.raw(t) / p.norm
}

// MaxFactor returns an upper bound of Factor, used for thinning.
func (p *DiurnalProfile) MaxFactor() float64 {
	return (p.Baseline + (1-p.Baseline)*2) / p.norm
}

// genTimer produces a strictly periodic schedule with the given
// period (seconds), truncated to horizon and maxEvents. The phase is
// basePhase mod period: timers of one application share a base phase,
// mirroring cron-style schedules aligned to a common grid, so a
// multi-timer app's idle times land on few distinct values rather
// than smearing across the histogram.
func genTimer(basePhase, period, horizon float64, maxEvents int) []float64 {
	if period <= 0 {
		return nil
	}
	phase := math.Mod(basePhase, period)
	var out []float64
	for t := phase; t <= horizon && len(out) < maxEvents; t += period {
		out = append(out, t)
	}
	return out
}

// genJitteredPeriodic produces a near-periodic schedule: period with
// Gaussian jitter of jitterFrac*period, clamped positive.
func genJitteredPeriodic(r *stats.RNG, period, jitterFrac, horizon float64, maxEvents int) []float64 {
	if period <= 0 {
		return nil
	}
	t := r.Float64() * period
	var out []float64
	for t <= horizon && len(out) < maxEvents {
		out = append(out, t)
		step := period * (1 + jitterFrac*r.NormFloat64())
		if step < period*0.05 {
			step = period * 0.05
		}
		t += step
	}
	return out
}

// genPoisson produces a (possibly diurnally modulated) Poisson
// process with the given mean rate (events/second) via thinning.
func genPoisson(r *stats.RNG, rate, horizon float64, profile *DiurnalProfile, maxEvents int) []float64 {
	if rate <= 0 {
		return nil
	}
	var out []float64
	if profile == nil {
		t := 0.0
		for len(out) < maxEvents {
			t += r.ExpFloat64() / rate
			if t > horizon {
				break
			}
			out = append(out, t)
		}
		return out
	}
	lambdaMax := rate * profile.MaxFactor()
	t := 0.0
	for len(out) < maxEvents {
		t += r.ExpFloat64() / lambdaMax
		if t > horizon {
			break
		}
		if r.Float64() <= rate*profile.Factor(t)/lambdaMax {
			out = append(out, t)
		}
	}
	return out
}

// genBursty produces a hyper-exponential renewal process with the
// given mean rate and coefficient of variation (cv > 1).
func genBursty(r *stats.RNG, rate, cv, horizon float64, maxEvents int) []float64 {
	if rate <= 0 {
		return nil
	}
	d := stats.HyperExpForCV(1/rate, cv)
	t := 0.0
	var out []float64
	for len(out) < maxEvents {
		t += d.Sample(r)
		if t > horizon {
			break
		}
		out = append(out, t)
	}
	return out
}

// genSessions produces an ON/OFF session process averaging dailyRate
// invocations per day: sessions start at diurnally weighted times of
// day and hold a cluster of invocations spaced intraGap seconds apart
// (with mild log-normal jitter). Apps rarer than ~2/day degenerate to
// single-invocation sessions, whose idle times all exceed typical
// histogram ranges — exactly the population the paper's ARIMA path
// serves.
func genSessions(r *stats.RNG, dailyRate, intraGap, horizon float64,
	profile *DiurnalProfile, maxEvents int) []float64 {
	if dailyRate <= 0 {
		return nil
	}
	// At most one session per day (a "business-hours" episode) so
	// inter-session gaps land reliably beyond typical histogram ranges:
	// they become the rare out-of-bounds tail rather than an in-range
	// bimodal mode. Rare apps get ~2-invocation sessions spaced
	// multiple days apart.
	invPerSession := dailyRate
	sessionsPerDay := 1.0
	if invPerSession < 2 {
		sessionsPerDay = dailyRate / 2
		invPerSession = 2
	}
	var out []float64
	days := int(math.Ceil(horizon / 86400))
	// Sessions stay inside a working-hours window and are capped in
	// length so consecutive days' sessions never close to within a
	// histogram range of each other: the overnight gap must remain out
	// of bounds, as in the paper's concentrated Figure 12 distributions.
	const sessionCap = 8 * 3600
	for day := 0; day < days && len(out) < maxEvents; day++ {
		n := r.Poisson(sessionsPerDay)
		for s := 0; s < n && len(out) < maxEvents; s++ {
			start := float64(day)*86400 + sessionTimeOfDay(r, profile)
			count := 1 + r.Poisson(invPerSession-1)
			t := start
			for i := 0; i < count && len(out) < maxEvents; i++ {
				if t > horizon || t-start > sessionCap {
					break
				}
				out = append(out, t)
				gap := intraGap * math.Exp(0.3*r.NormFloat64())
				t += gap
			}
		}
	}
	sort.Float64s(out)
	return out
}

// sessionTimeOfDay samples a second-of-day inside working hours
// (07:00-15:00 starts), weighted by the diurnal profile via rejection.
func sessionTimeOfDay(r *stats.RNG, profile *DiurnalProfile) float64 {
	const windowStart, windowLen = 7 * 3600, 8 * 3600
	if profile == nil {
		return windowStart + r.Float64()*windowLen
	}
	max := profile.MaxFactor()
	for i := 0; i < 64; i++ {
		t := windowStart + r.Float64()*windowLen
		if r.Float64()*max <= profile.Factor(t) {
			return t
		}
	}
	return windowStart + r.Float64()*windowLen
}
