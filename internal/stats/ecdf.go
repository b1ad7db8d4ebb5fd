package stats

import "sort"

// ECDF is an empirical cumulative distribution function built from a
// sample. It answers both P(X <= x) queries and quantile queries, and
// can render itself as (x, F(x)) points for figure output.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (which it copies and sorts).
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns P(X <= x), the fraction of observations <= x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	idx := sort.SearchFloat64s(e.sorted, x)
	for idx < len(e.sorted) && e.sorted[idx] == x {
		idx++
	}
	return float64(idx) / float64(len(e.sorted))
}

// Quantile returns the q-quantile (q in [0,1]) by linear interpolation.
// It panics if the ECDF is empty or q is out of range.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		panic("stats: Quantile of empty ECDF")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	return percentileSorted(e.sorted, q*100)
}

// Point is a single (X, Y) coordinate of a rendered curve.
type Point struct {
	X float64
	Y float64
}

// Points renders the ECDF at n evenly spaced quantiles (plus both
// endpoints), suitable for plotting a CDF curve.
func (e *ECDF) Points(n int) []Point {
	if len(e.sorted) == 0 || n < 2 {
		return nil
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		pts = append(pts, Point{X: e.Quantile(q), Y: q})
	}
	return pts
}
