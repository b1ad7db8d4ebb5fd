// Package equiv is the tolerance-based equivalence harness for policy
// variants that are licensed to decide differently from the written
// semantics (internal/ithist/SEMANTICS.md).
//
// Exactly one such variant exists: hybrid's refit=<dur>, which reuses
// an ARIMA fit for up to <dur> of observed idle time instead of
// refitting per invocation as §4.2 mandates. This package turns
// "licensed to differ" into a measured contract: it runs a base
// policy and its variant over a trace, counts per-invocation decision
// flips by merging the two run-length-encoded decision streams,
// compares the end metrics the paper reports (per-app cold-start
// percentage percentiles, wasted memory normalized to the base,
// cluster cold-start attribution totals), and asserts everything
// under configurable tolerances. CI runs it over the golden scenario
// corpus and the incident corpus, so a change that widens the
// divergence fails loudly instead of shipping as a silent behavioral
// drift.
package equiv

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/sim/kernel"
	"repro/internal/stats"
	"repro/internal/trace"
)

// coldPcts are the percentiles of the per-app cold-start percentage
// distribution the harness compares (the paper's CDF summary points).
var coldPcts = [3]float64{50, 75, 99}

// Tolerances bounds a variant's divergence from its base policy.
// The zero value tolerates nothing; use DefaultTolerances for the
// repo's CI contract.
type Tolerances struct {
	// MaxFlipRate is the largest acceptable fraction of invocations
	// whose decision differs between the two policies (0.01 = 1%).
	MaxFlipRate float64
	// MaxColdDelta is the largest acceptable absolute difference, in
	// percentage points, at each compared percentile (p50/p75/p99) of
	// the per-app cold-start percentage distribution.
	MaxColdDelta float64
	// MaxWasteDelta is the largest acceptable deviation, in points,
	// of the variant's wasted memory normalized to the base's
	// (100 = identical).
	MaxWasteDelta float64
	// MaxAttrDelta is the largest acceptable absolute difference in
	// each cluster attribution total (cold starts, eviction-induced,
	// failure-induced). Only checked for cluster comparisons.
	MaxAttrDelta int64
}

// DefaultTolerances is the CI contract: flip rate at most 1%, cold
// percentile movement at most half a point, normalized waste within a
// point, attribution totals within a handful of a scenario's events.
func DefaultTolerances() Tolerances {
	return Tolerances{
		MaxFlipRate:   0.01,
		MaxColdDelta:  0.5,
		MaxWasteDelta: 1.0,
		MaxAttrDelta:  5,
	}
}

// Attribution is a cluster run's cold-start attribution totals.
type Attribution struct {
	ColdStarts int64
	Eviction   int64
	Failure    int64
}

// Report is the measured divergence of one base-vs-variant comparison.
type Report struct {
	Name string
	// Invocations is the total decision count compared; Flips is how
	// many of them differed between the two policies.
	Invocations int64
	Flips       int64
	// ColdBase and ColdVariant are the per-app cold-start percentage
	// percentiles (p50, p75, p99) of each policy.
	ColdBase    [3]float64
	ColdVariant [3]float64
	// WastePct is the variant's total wasted memory as a percentage
	// of the base's (100 = identical).
	WastePct float64
	// HasCluster marks that the attribution totals were measured
	// (cluster comparison); AttrBase/AttrVariant are zero otherwise.
	HasCluster  bool
	AttrBase    Attribution
	AttrVariant Attribution
}

// FlipRate returns the fraction of compared decisions that differed.
func (r *Report) FlipRate() float64 {
	if r.Invocations == 0 {
		return 0
	}
	return float64(r.Flips) / float64(r.Invocations)
}

// ColdDeltas returns the absolute percentile differences, in points.
func (r *Report) ColdDeltas() [3]float64 {
	var d [3]float64
	for i := range d {
		d[i] = abs(r.ColdVariant[i] - r.ColdBase[i])
	}
	return d
}

// WasteDelta returns the normalized-waste deviation from 100, in
// points.
func (r *Report) WasteDelta() float64 { return abs(r.WastePct - 100) }

// Check returns an error describing every tolerance the report
// violates, or nil if the divergence is within bounds.
func (r *Report) Check(tol Tolerances) error {
	var viol []string
	if fr := r.FlipRate(); fr > tol.MaxFlipRate {
		viol = append(viol, fmt.Sprintf("flip rate %.4f%% (%d/%d) > %.4f%%",
			fr*100, r.Flips, r.Invocations, tol.MaxFlipRate*100))
	}
	for i, d := range r.ColdDeltas() {
		if d > tol.MaxColdDelta {
			viol = append(viol, fmt.Sprintf("cold-start p%.0f delta %.3f points (%.3f vs %.3f) > %.3f",
				coldPcts[i], d, r.ColdBase[i], r.ColdVariant[i], tol.MaxColdDelta))
		}
	}
	if d := r.WasteDelta(); d > tol.MaxWasteDelta {
		viol = append(viol, fmt.Sprintf("normalized waste %.3f%% deviates from the base by %.3f points > %.3f",
			r.WastePct, d, tol.MaxWasteDelta))
	}
	if r.HasCluster {
		checkAttr := func(label string, b, v int64) {
			if d := b - v; d > tol.MaxAttrDelta || -d > tol.MaxAttrDelta {
				viol = append(viol, fmt.Sprintf("%s attribution %d (base) vs %d (variant), |delta| > %d",
					label, b, v, tol.MaxAttrDelta))
			}
		}
		checkAttr("cold-start", r.AttrBase.ColdStarts, r.AttrVariant.ColdStarts)
		checkAttr("eviction", r.AttrBase.Eviction, r.AttrVariant.Eviction)
		checkAttr("failure", r.AttrBase.Failure, r.AttrVariant.Failure)
	}
	if len(viol) == 0 {
		return nil
	}
	return fmt.Errorf("equiv: %s: %s", r.Name, strings.Join(viol, "; "))
}

// CountFlips merge-walks two run-length-encoded decision streams and
// returns the number of per-invocation positions whose decisions
// differ, plus the number of positions compared. Streams of unequal
// length count every unpaired trailing decision as a flip (the policies
// disagreeing on how many decisions exist is the worst divergence).
func CountFlips(a, b []policy.DecisionRun) (flips, total int64) {
	ai, bi := 0, 0
	var an, bn int64
	for {
		for an == 0 && ai < len(a) {
			an = int64(a[ai].N)
			ai++
		}
		for bn == 0 && bi < len(b) {
			bn = int64(b[bi].N)
			bi++
		}
		if an == 0 || bn == 0 {
			break
		}
		n := an
		if bn < n {
			n = bn
		}
		if a[ai-1].D != b[bi-1].D {
			flips += n
		}
		total += n
		an -= n
		bn -= n
	}
	// Unpaired tails.
	flips += an + bn
	total += an + bn
	return flips, total
}

// CompareTrace runs the base and variant policies over the trace and
// reports the divergence: per-invocation decision flips (from the
// batch decision streams, app by app) and the end-metric deltas from
// two full simulations.
func CompareTrace(name string, tr *trace.Trace, base, variant policy.Policy, execTime bool) *Report {
	rep := &Report{Name: name}
	var sb, sv kernel.Scratch
	for _, app := range tr.Apps {
		times := app.InvocationTimes()
		if len(times) == 0 {
			continue
		}
		var execs []float64
		if execTime {
			execs = sb.ExecSeconds(app)
		}
		idles := sb.IdleTimes(times, execs)
		// DecideRuns' result aliases its scratch, so each policy needs
		// its own.
		runsB := sb.DecideRuns(newApp(base, app.ID), idles)
		runsV := sv.DecideRuns(newApp(variant, app.ID), idles)
		flips, total := CountFlips(runsB, runsV)
		rep.Flips += flips
		rep.Invocations += total
	}

	resB := sim.Simulate(tr, base, sim.WithExecTime(execTime))
	resV := sim.Simulate(tr, variant, sim.WithExecTime(execTime))
	rep.fillMetrics(resB, resV)
	return rep
}

// CompareCluster is CompareTrace under the cluster engine: the flip
// and metric comparison is identical (policy decisions do not depend
// on cluster state), and additionally the cold-start attribution
// totals of both policies are captured from two cluster simulations.
func CompareCluster(name string, tr *trace.Trace, base, variant policy.Policy, cfg cluster.Config, execTime bool) *Report {
	rep := CompareTrace(name, tr, base, variant, execTime)
	rep.HasCluster = true
	rep.AttrBase = clusterAttr(cluster.Simulate(tr, base, cfg))
	rep.AttrVariant = clusterAttr(cluster.Simulate(tr, variant, cfg))
	return rep
}

func (r *Report) fillMetrics(resB, resV *sim.Result) {
	pb := resB.ColdPercents()
	pv := resV.ColdPercents()
	for i, p := range coldPcts {
		r.ColdBase[i] = stats.Percentile(pb, p)
		r.ColdVariant[i] = stats.Percentile(pv, p)
	}
	// Normalize the variant's waste to the base's: 100 means they
	// waste identically. A base that wastes nothing (degenerate tiny
	// traces) reports 100 iff the variant also wastes nothing.
	if resB.TotalWastedSeconds() == 0 {
		if resV.TotalWastedSeconds() == 0 {
			r.WastePct = 100
		} else {
			r.WastePct = 200 // any waste over a zero baseline: out of tolerance
		}
		return
	}
	r.WastePct = 100 * resV.TotalWastedSeconds() / resB.TotalWastedSeconds()
}

func clusterAttr(res *cluster.Result) Attribution {
	var a Attribution
	for _, app := range res.Apps {
		a.ColdStarts += int64(app.ColdStarts)
		a.Eviction += int64(app.EvictionColdStarts)
		a.Failure += int64(app.FailureColdStarts)
	}
	return a
}

// newApp instantiates per-app policy state, releasing nothing: the
// harness compares short corpora and lets the states be collected.
func newApp(p policy.Policy, id string) policy.AppPolicy { return p.NewApp(id) }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
