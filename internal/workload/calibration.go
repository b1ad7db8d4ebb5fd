package workload

import (
	"repro/internal/stats"
	"repro/internal/trace"
)

// Calibration constants, each tied to a figure or number in the paper.

// functionsPerAppCDF encodes Figure 1's app-size distribution: 54% of
// apps have one function, 95% at most 10, ~0.04% more than 100.
// Anchors are (size, cumulative fraction of apps).
var functionsPerAppAnchors = []struct {
	size int
	cum  float64
}{
	{1, 0.54},
	{2, 0.70},
	{3, 0.79},
	{5, 0.89},
	{10, 0.95},
	{30, 0.988},
	{100, 0.9996},
	{1000, 0.99995},
	{2000, 1.0},
}

// sampleFunctionsPerApp draws an app size from the Figure 1 CDF,
// interpolating log-uniformly inside each anchor segment.
func sampleFunctionsPerApp(r *stats.RNG) int {
	u := r.Float64()
	prev := functionsPerAppAnchors[0]
	if u <= prev.cum {
		return prev.size
	}
	for _, a := range functionsPerAppAnchors[1:] {
		if u <= a.cum {
			// Uniform over the integer range (prev.size, a.size].
			span := a.size - prev.size
			return prev.size + 1 + r.Intn(span)
		}
		prev = a
	}
	return functionsPerAppAnchors[len(functionsPerAppAnchors)-1].size
}

// triggerFunctionShare is Figure 2's %Functions column, normalized.
var triggerFunctionShare = map[trace.TriggerType]float64{
	trace.TriggerHTTP:          0.550,
	trace.TriggerQueue:         0.152,
	trace.TriggerTimer:         0.156,
	trace.TriggerOrchestration: 0.069,
	trace.TriggerStorage:       0.028,
	trace.TriggerEvent:         0.022,
	trace.TriggerOthers:        0.022,
}

// triggerRateMultiplier skews per-function invocation rates so that
// the share of invocations per trigger approaches Figure 2's
// %Invocations column: multiplier ~ (%invocations / %functions).
var triggerRateMultiplier = map[trace.TriggerType]float64{
	trace.TriggerHTTP:          0.359 / 0.550,
	trace.TriggerQueue:         0.335 / 0.152,
	trace.TriggerEvent:         0.247 / 0.022,
	trace.TriggerOrchestration: 0.023 / 0.069,
	trace.TriggerTimer:         0.020 / 0.156,
	trace.TriggerStorage:       0.007 / 0.028,
	trace.TriggerOthers:        0.010 / 0.022,
}

// triggerCombos is Figure 3(b)'s table of app trigger combinations
// (fraction of apps). The bitmask uses 1<<TriggerType. "o" (others)
// appears in the Ho row.
var triggerCombos = []struct {
	mask uint8
	frac float64
}{
	{1 << trace.TriggerHTTP, 0.4327},
	{1 << trace.TriggerTimer, 0.1336},
	{1 << trace.TriggerQueue, 0.0947},
	{1<<trace.TriggerHTTP | 1<<trace.TriggerTimer, 0.0459},
	{1<<trace.TriggerHTTP | 1<<trace.TriggerQueue, 0.0422},
	{1 << trace.TriggerEvent, 0.0301},
	{1 << trace.TriggerStorage, 0.0280},
	{1<<trace.TriggerTimer | 1<<trace.TriggerQueue, 0.0257},
	{1<<trace.TriggerHTTP | 1<<trace.TriggerTimer | 1<<trace.TriggerQueue, 0.0248},
	{1<<trace.TriggerHTTP | 1<<trace.TriggerOthers, 0.0169},
	{1<<trace.TriggerHTTP | 1<<trace.TriggerStorage, 0.0105},
	{1<<trace.TriggerHTTP | 1<<trace.TriggerOrchestration, 0.0103},
}

// sampleTriggerComboSized draws a trigger combination conditioned on
// the app's function count, keeping BOTH marginals calibrated:
// single-function apps can only hold single-trigger combos, so those
// are renormalized for size 1, while multi-trigger combos are
// up-weighted for sizes >= 2 by exactly the factor that restores their
// unconditional Figure 3(b) share.
func sampleTriggerComboSized(r *stats.RNG, nFuncs int) uint8 {
	pSize2 := 1 - functionsPerAppAnchors[0].cum // P(app has >= 2 functions)

	var singleSum, multiSum float64
	for _, c := range triggerCombos {
		if isSingleMask(c.mask) {
			singleSum += c.frac
		} else {
			multiSum += c.frac
		}
	}
	var explicit float64
	for _, c := range triggerCombos {
		explicit += c.frac
	}
	tailFrac := 1 - explicit // random 2-3 trigger combos
	pMulti := multiSum + tailFrac

	if nFuncs == 1 {
		// Renormalize over single-trigger combos.
		u := r.Float64() * singleSum
		var cum float64
		for _, c := range triggerCombos {
			if !isSingleMask(c.mask) {
				continue
			}
			cum += c.frac
			if u <= cum {
				return c.mask
			}
		}
		return 1 << trace.TriggerHTTP
	}

	// Size >= 2: multi combos scaled by 1/pSize2; singles absorb the
	// remaining mass proportionally.
	singleScale := (1 - pMulti/pSize2) / singleSum
	if singleScale < 0 {
		singleScale = 0
	}
	u := r.Float64()
	var cum float64
	for _, c := range triggerCombos {
		w := c.frac / pSize2
		if isSingleMask(c.mask) {
			w = c.frac * singleScale
		}
		cum += w
		if u <= cum {
			return c.mask
		}
	}
	return sampleTailCombo(r, nFuncs)
}

func isSingleMask(mask uint8) bool { return mask&(mask-1) == 0 }

// sampleTailCombo draws a random 2-3 class combination (bounded by
// nFuncs) weighted by Figure 3(a)'s per-trigger marginal app shares.
func sampleTailCombo(r *stats.RNG, nFuncs int) uint8 {
	weights := []float64{64, 24, 6, 3, 29, 7, 6} // indexed by TriggerType
	n := 2
	if nFuncs > 2 && r.Bool(0.5) {
		n = 3
	}
	var mask uint8
	for bits := 0; bits < n; {
		t := sampleWeighted(r, weights)
		bit := uint8(1) << t
		if mask&bit == 0 {
			mask |= bit
			bits++
		}
	}
	return mask
}

func sampleWeighted(r *stats.RNG, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	u := r.Float64() * total
	var cum float64
	for i, w := range weights {
		cum += w
		if u <= cum {
			return i
		}
	}
	return len(weights) - 1
}

// triggerFillWeight weights the triggers used to fill an app's
// remaining function slots once its combo is covered. Coverage alone
// over-represents timers and queues (every T-containing app is forced
// one timer) and starves orchestration (rare in combos but, per
// Figure 2, 6.9% of functions — durable workflows hold many
// orchestration functions). These weights counteract both so the
// population's function shares track Figure 2's %Functions column.
var triggerFillWeight = map[trace.TriggerType]float64{
	trace.TriggerHTTP:          1.00,
	trace.TriggerQueue:         0.18,
	trace.TriggerTimer:         0.08,
	trace.TriggerOrchestration: 0.70,
	trace.TriggerStorage:       0.15,
	trace.TriggerEvent:         0.25,
	trace.TriggerOthers:        0.20,
}

// dailyRateDist is Figure 5(a)'s per-function daily invocation rate
// CDF, pinned at the paper's stated anchors: 45% of apps average at
// most one invocation per hour (24/day) and 81% at most one per
// minute (1440/day), with the full range spanning 8 orders of
// magnitude.
var dailyRateDist = stats.NewPiecewiseLogCDF(
	[]float64{1.0 / 14, 1, 24, 1440, 86400, 8.64e6, 1e8},
	[]float64{0, 0.20, 0.45, 0.81, 0.95, 0.995, 1},
)

// execTimeDist is Figure 7's log-normal fit to average function
// execution times (seconds): ln-mean -0.38, ln-sigma 2.36.
var execTimeDist = stats.LogNormal{Mu: -0.38, Sigma: 2.36}

// memoryDist is Figure 8's Burr fit to per-app allocated memory (MB):
// c = 11.652, k = 0.221, lambda = 107.083.
var memoryDist = stats.Burr{C: 11.652, K: 0.221, Lambda: 107.083}
