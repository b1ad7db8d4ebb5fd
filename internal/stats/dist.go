package stats

import "math"

// LogNormal is the two-parameter log-normal distribution. The paper
// fits function execution times with a log-normal of ln-mean -0.38 and
// ln-sigma 2.36 (Figure 7).
type LogNormal struct {
	Mu    float64 // mean of ln X
	Sigma float64 // stddev of ln X
}

// Sample draws one variate.
func (d LogNormal) Sample(r *RNG) float64 {
	return math.Exp(d.Mu + d.Sigma*r.NormFloat64())
}

// CDF returns P(X <= x).
func (d LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-d.Mu)/(d.Sigma*math.Sqrt2))
}

// Quantile returns the q-quantile (q in (0,1)).
func (d LogNormal) Quantile(q float64) float64 {
	return math.Exp(d.Mu + d.Sigma*normalQuantile(q))
}

// Burr is the Burr type XII distribution with shape parameters C and K
// and scale Lambda. The paper fits per-application allocated memory
// with Burr(c=11.652, k=0.221, lambda=107.083) MB (Figure 8).
type Burr struct {
	C      float64
	K      float64
	Lambda float64
}

// CDF returns P(X <= x) = 1 - (1 + (x/lambda)^c)^(-k).
func (d Burr) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Pow(1+math.Pow(x/d.Lambda, d.C), -d.K)
}

// Quantile returns the q-quantile via the closed-form inverse CDF.
func (d Burr) Quantile(q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return math.Inf(1)
	}
	return d.Lambda * math.Pow(math.Pow(1-q, -1/d.K)-1, 1/d.C)
}

// Sample draws one variate by inverse-CDF sampling.
func (d Burr) Sample(r *RNG) float64 {
	return d.Quantile(r.Float64Open())
}

// HyperExp is a two-phase hyper-exponential distribution: with
// probability P the variate is Exp(Rate1), otherwise Exp(Rate2).
// Mixing two very different rates produces the CV > 1 inter-arrival
// behaviour the paper observes for a large share of applications
// (Figure 6).
type HyperExp struct {
	P     float64
	Rate1 float64
	Rate2 float64
}

// Sample draws one variate.
func (d HyperExp) Sample(r *RNG) float64 {
	if r.Bool(d.P) {
		return r.ExpFloat64() / d.Rate1
	}
	return r.ExpFloat64() / d.Rate2
}

// Mean returns E[X].
func (d HyperExp) Mean() float64 {
	return d.P/d.Rate1 + (1-d.P)/d.Rate2
}

// CV returns the coefficient of variation of the distribution.
func (d HyperExp) CV() float64 {
	m := d.Mean()
	m2 := 2*d.P/(d.Rate1*d.Rate1) + 2*(1-d.P)/(d.Rate2*d.Rate2)
	return math.Sqrt(m2-m*m) / m
}

// HyperExpForCV constructs a balanced two-phase hyper-exponential with
// the requested mean and coefficient of variation (cv >= 1). It uses
// the standard balanced-means parameterization.
func HyperExpForCV(mean, cv float64) HyperExp {
	if cv < 1 {
		cv = 1
	}
	c2 := cv * cv
	p := 0.5 * (1 + math.Sqrt((c2-1)/(c2+1)))
	r1 := 2 * p / mean
	r2 := 2 * (1 - p) / mean
	return HyperExp{P: p, Rate1: r1, Rate2: r2}
}

// Poisson draws a Poisson-distributed count with the given mean using
// Knuth's method for small means and normal approximation for large.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction.
		n := int(math.Round(mean + math.Sqrt(mean)*r.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// normalQuantile computes the standard normal quantile function using
// the Acklam rational approximation (relative error < 1.15e-9).
func normalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// PiecewiseLogCDF is a distribution defined by CDF anchor points whose
// X values are interpolated log-linearly between anchors. The workload
// generator uses it to reproduce the daily-invocation-rate CDF of
// Figure 5(a), which spans 8 orders of magnitude and is published only
// as a curve: we pin the curve at the anchor values the paper states
// (45% of apps at <= 1/hour, 81% at <= 1/minute, ...) and interpolate
// between them.
type PiecewiseLogCDF struct {
	xs []float64 // ascending, > 0
	ps []float64 // ascending in [0,1], same length
}

// NewPiecewiseLogCDF builds the distribution from anchors (x_i, p_i)
// with x ascending and positive and p ascending spanning [0, 1]. It
// panics on malformed input.
func NewPiecewiseLogCDF(xs, ps []float64) *PiecewiseLogCDF {
	if len(xs) != len(ps) || len(xs) < 2 {
		panic("stats: PiecewiseLogCDF needs >= 2 matched anchors")
	}
	for i := range xs {
		if xs[i] <= 0 {
			panic("stats: PiecewiseLogCDF requires positive x anchors")
		}
		if i > 0 && (xs[i] <= xs[i-1] || ps[i] < ps[i-1]) {
			panic("stats: PiecewiseLogCDF anchors must be ascending")
		}
	}
	if ps[0] != 0 || ps[len(ps)-1] != 1 {
		panic("stats: PiecewiseLogCDF probabilities must span [0,1]")
	}
	cx := make([]float64, len(xs))
	cp := make([]float64, len(ps))
	copy(cx, xs)
	copy(cp, ps)
	return &PiecewiseLogCDF{xs: cx, ps: cp}
}

// Quantile returns the q-quantile, interpolating log-linearly in x.
func (d *PiecewiseLogCDF) Quantile(q float64) float64 {
	if q <= d.ps[0] {
		return d.xs[0]
	}
	n := len(d.ps)
	if q >= d.ps[n-1] {
		return d.xs[n-1]
	}
	// Find segment with ps[i] <= q < ps[i+1].
	lo, hi := 0, n-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if d.ps[mid] <= q {
			lo = mid
		} else {
			hi = mid
		}
	}
	p0, p1 := d.ps[lo], d.ps[lo+1]
	if p1 == p0 {
		return d.xs[lo]
	}
	frac := (q - p0) / (p1 - p0)
	lx0, lx1 := math.Log(d.xs[lo]), math.Log(d.xs[lo+1])
	return math.Exp(lx0 + frac*(lx1-lx0))
}

// CDF returns P(X <= x) by inverse interpolation.
func (d *PiecewiseLogCDF) CDF(x float64) float64 {
	if x <= d.xs[0] {
		return d.ps[0]
	}
	n := len(d.xs)
	if x >= d.xs[n-1] {
		return 1
	}
	lo, hi := 0, n-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if d.xs[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	lx0, lx1 := math.Log(d.xs[lo]), math.Log(d.xs[lo+1])
	frac := (math.Log(x) - lx0) / (lx1 - lx0)
	return d.ps[lo] + frac*(d.ps[lo+1]-d.ps[lo])
}

// Sample draws one variate.
func (d *PiecewiseLogCDF) Sample(r *RNG) float64 {
	return d.Quantile(r.Float64())
}
