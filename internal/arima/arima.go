// Package arima implements ARIMA(p,d,q) modeling and forecasting in
// pure Go, standing in for the pmdarima auto_arima the paper uses for
// applications whose idle times exceed the histogram range (§4.2).
//
// Estimation follows the classical two-stage Hannan–Rissanen
// procedure: a long autoregression captures innovations, then the
// ARMA coefficients are obtained by least squares on lagged values
// and lagged innovations, optionally refined by minimizing the
// conditional sum of squares with Nelder–Mead. Order selection in Fit
// (the auto_arima analogue) searches a small (p,d,q) grid and picks
// the model minimizing AIC.
package arima

import (
	"errors"
	"math"
	"slices"
	"sync"

	"repro/internal/stats"
)

// Model is a fitted ARIMA(p,d,q) model.
type Model struct {
	P, D, Q int

	// AR coefficients (phi), length P (nil when P is 0), applied to
	// the differenced, mean-centered series.
	AR []float64
	// MA coefficients (theta), length Q (nil when Q is 0).
	MA []float64
	// Mean of the differenced series (the model's intercept is
	// Mean*(1-sum(AR))).
	Mean float64
	// Sigma2 is the innovation variance estimate.
	Sigma2 float64
	// AIC is the Akaike information criterion of the fit.
	AIC float64

	series []float64 // original (undifferenced) series
}

// ErrTooShort indicates the series is too short for the requested
// model order.
var ErrTooShort = errors.New("arima: series too short")

// fitCtx is the reusable scratch arena for one fitting (or
// forecasting) operation. The estimators run on every invocation of an
// ARIMA-managed app, so everything a fit touches is pooled instead of
// reallocated: the differenced and centered series, innovations,
// residuals, the OLS design matrix and solution, the Nelder–Mead
// simplex, the best candidate's coefficients and the forecast
// recursion's buffers. A warm search and one-step forecast
// (FitForecastNext) allocate nothing; Fit allocates only the model it
// returns. The arithmetic the buffers carry is unchanged.
type fitCtx struct {
	diff     []float64
	centered []float64
	eps      []float64
	resid    []float64
	ext      []float64
	extEps   []float64
	lasts    []float64
	params   []float64
	rows     [][]float64
	rowBuf   []float64
	ys       []float64
	bestAR   []float64
	bestMA   []float64
	ls       stats.LSScratch
	nm       stats.NelderMeadScratch
}

var fitCtxPool = sync.Pool{New: func() any { return new(fitCtx) }}

func getFitCtx() *fitCtx  { return fitCtxPool.Get().(*fitCtx) }
func putFitCtx(c *fitCtx) { fitCtxPool.Put(c) }

// grow returns buf resized to n, reallocating only when the capacity
// is insufficient. Contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// differenceInto computes the d-th order difference of xs into the
// context's diff buffer (nil once the series runs out); xs is not
// modified.
func (c *fitCtx) differenceInto(xs []float64, d int) []float64 {
	c.diff = grow(c.diff, len(xs))
	out := c.diff
	copy(out, xs)
	ln := len(xs)
	for i := 0; i < d; i++ {
		if ln < 2 {
			return nil
		}
		for j := 1; j < ln; j++ {
			out[j-1] = out[j] - out[j-1]
		}
		ln--
	}
	return out[:ln]
}

// designRows returns an nRows x k design matrix backed by the
// context's flat buffer, plus the matching target vector.
func (c *fitCtx) designRows(nRows, k int) ([][]float64, []float64) {
	if cap(c.rows) < nRows {
		c.rows = make([][]float64, nRows)
	}
	c.rows = c.rows[:nRows]
	c.rowBuf = grow(c.rowBuf, nRows*k)
	for i := 0; i < nRows; i++ {
		c.rows[i] = c.rowBuf[i*k : (i+1)*k : (i+1)*k]
	}
	c.ys = grow(c.ys, nRows)
	return c.rows, c.ys
}

// needObs returns the minimum differenced-series length for an
// ARMA(p,q) fit at differencing level d: enough observations to
// estimate all parameters with a few degrees of freedom to spare.
func needObs(p, d, q int) int {
	need := p + q + d + 3
	if p+q > 0 {
		need += maxInt(p, q)
	}
	return need
}

// errSingular marks a least-squares stage whose normal equations were
// singular to working precision.
var errSingular = errors.New("arima: fit failed (singular)")

// fitARMA fits ARMA(p,q) to the centered d-times-differenced series.
// The caller has already length-gated the series against needObs. The
// candidate's AR and MA alias ctx's least-squares or Nelder–Mead
// scratch and are valid until the next fit in ctx.
func fitARMA(ctx *fitCtx, centered []float64, mean float64, p, d, q int) (Model, error) {
	var ar, ma []float64
	var ok bool
	switch {
	case p == 0 && q == 0:
		ar, ma, ok = nil, nil, true
	case q == 0:
		ar, ok = fitAR(ctx, centered, p)
		if !ok {
			return Model{}, errSingular
		}
	default:
		ar, ma, ok = hannanRissanen(ctx, centered, p, q)
		if !ok {
			return Model{}, errSingular
		}
		ar, ma = refineCSS(ctx, centered, ar, ma)
	}

	ctx.resid = grow(ctx.resid, len(centered))
	resid := residualsInto(ctx.resid, centered, ar, ma)
	n := float64(len(resid))
	var rss float64
	for _, e := range resid {
		rss += e * e
	}
	sigma2 := rss / n
	if sigma2 <= 0 {
		sigma2 = 1e-12
	}
	k := float64(p + q + 1) // +1 for the mean
	aic := n*math.Log(sigma2) + 2*k

	return Model{
		P: p, D: d, Q: q,
		AR: ar, MA: ma,
		Mean:   mean,
		Sigma2: sigma2,
		AIC:    aic,
	}, nil
}

// Options controls the Fit order search.
type Options struct {
	MaxP int // default 3
	MaxD int // default 1
	MaxQ int // default 2
}

// Fit searches (p,d,q) up to the bounds in opt and returns the model
// minimizing AIC, mimicking auto_arima. Differencing levels are
// compared on the same footing by AIC of the differenced fit plus a
// penalty discouraging unnecessary differencing on short series.
func Fit(series []float64, opt Options) (*Model, error) {
	ctx := getFitCtx()
	defer putFitCtx(ctx)
	best, err := ctx.search(series, opt)
	if err != nil {
		return nil, err
	}
	best.AR = owned(best.AR)
	best.MA = owned(best.MA)
	best.series = slices.Clone(series)
	return &best, nil
}

// FitForecastNext is Fit followed by the model's ForecastNext, bit for
// bit, without materializing the model: the search and the forecast
// share one pooled fitCtx, so a warm call allocates nothing. It is the
// per-invocation refit of an ARIMA-managed app (§4.2).
func FitForecastNext(series []float64, opt Options) (float64, error) {
	ctx := getFitCtx()
	defer putFitCtx(ctx)
	best, err := ctx.search(series, opt)
	if err != nil {
		return 0, err
	}
	var fc [1]float64
	ctx.forecast(&best, fc[:])
	return fc[0], nil
}

// search runs Fit's order search in c. The returned model's AR and MA
// alias c's best-candidate buffers and its series aliases series, so
// it is valid only while c is held and series is unchanged.
func (c *fitCtx) search(series []float64, opt Options) (Model, error) {
	if opt.MaxP == 0 {
		opt.MaxP = 3
	}
	if opt.MaxQ == 0 {
		opt.MaxQ = 2
	}
	var best Model
	found := false
	for d := 0; d <= opt.MaxD; d++ {
		// Difference, de-mean and length-gate once per differencing
		// level rather than once per (p,q) candidate.
		lenW := len(series) - d
		if lenW < 2 || lenW < needObs(0, d, 0) {
			continue
		}
		w := c.differenceInto(series, d)
		mean := stats.Mean(w)
		c.centered = grow(c.centered, len(w))
		centered := c.centered
		for i, v := range w {
			centered[i] = v - mean
		}
		for p := 0; p <= opt.MaxP; p++ {
			for q := 0; q <= opt.MaxQ; q++ {
				if lenW < needObs(p, d, q) {
					continue
				}
				m, err := fitARMA(c, centered, mean, p, d, q)
				if err != nil {
					continue
				}
				if !found || m.AIC < best.AIC {
					// The candidate's coefficients live in scratch the
					// next candidate overwrites.
					found = true
					c.bestAR = append(c.bestAR[:0], m.AR...)
					c.bestMA = append(c.bestMA[:0], m.MA...)
					best = m
					best.AR, best.MA = c.bestAR, c.bestMA
				}
			}
		}
	}
	if !found {
		return Model{}, ErrTooShort
	}
	best.series = series
	return best, nil
}

// owned returns a caller-owned copy of scratch coefficients, nil when
// there are none.
func owned(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	return slices.Clone(xs)
}

// fitAR estimates AR(p) coefficients by OLS on lagged values.
func fitAR(ctx *fitCtx, x []float64, p int) ([]float64, bool) {
	n := len(x)
	if n <= p {
		return nil, false
	}
	rows, ys := ctx.designRows(n-p, p)
	for t := p; t < n; t++ {
		row := rows[t-p]
		for j := 0; j < p; j++ {
			row[j] = x[t-1-j]
		}
		ys[t-p] = x[t]
	}
	return stats.OLSInto(&ctx.ls, rows, ys)
}

// hannanRissanen performs the two-stage ARMA estimation.
func hannanRissanen(ctx *fitCtx, x []float64, p, q int) (ar, ma []float64, ok bool) {
	n := len(x)
	// Stage 1: long AR to estimate innovations.
	m := maxInt(p, q) + 2
	if m > n/3 {
		m = n / 3
	}
	if m < 1 {
		return nil, nil, false
	}
	longAR, ok := fitAR(ctx, x, m)
	if !ok {
		return nil, nil, false
	}
	ctx.eps = grow(ctx.eps, n)
	eps := ctx.eps
	for t := 0; t < m; t++ {
		eps[t] = 0
	}
	for t := m; t < n; t++ {
		pred := 0.0
		for j := 0; j < m; j++ {
			pred += longAR[j] * x[t-1-j]
		}
		eps[t] = x[t] - pred
	}
	// Stage 2: regress x_t on p lags of x and q lags of eps.
	start := maxInt(p, q) + m
	if start >= n {
		return nil, nil, false
	}
	rows, ys := ctx.designRows(n-start, p+q)
	for t := start; t < n; t++ {
		row := rows[t-start]
		for j := 0; j < p; j++ {
			row[j] = x[t-1-j]
		}
		for j := 0; j < q; j++ {
			row[p+j] = eps[t-1-j]
		}
		ys[t-start] = x[t]
	}
	beta, ok := stats.OLSInto(&ctx.ls, rows, ys)
	if !ok {
		return nil, nil, false
	}
	return beta[:p], beta[p:], true
}

// refineCSS polishes ARMA coefficients by minimizing the conditional
// sum of squares, keeping the result only if it improves and remains
// numerically sane.
func refineCSS(ctx *fitCtx, x []float64, ar, ma []float64) ([]float64, []float64) {
	p, q := len(ar), len(ma)
	ctx.params = grow(ctx.params[:0], p+q)
	params := ctx.params
	copy(params[:p], ar)
	copy(params[p:], ma)
	ctx.resid = grow(ctx.resid, len(x))
	css := func(theta []float64) float64 {
		for _, v := range theta {
			if math.Abs(v) > 10 {
				return math.Inf(1)
			}
		}
		return cssRSS(ctx.resid, x, theta[:p], theta[p:])
	}
	refined, after, before := stats.NelderMead(&ctx.nm, css, params, stats.NelderMeadOptions{MaxIter: 300, Tol: 1e-10})
	if after < before && !math.IsInf(after, 1) {
		return refined[:p], refined[p:]
	}
	return ar, ma
}

// cssRSS computes the conditional sum of squares of the ARMA(p,q)
// residuals in a single fused pass — the inner loop of every
// Nelder–Mead objective evaluation. The residual values, the order of
// the squared-term additions, and the +Inf result on overflow are
// bit-identical to residualsInto followed by a separate summation (an
// Inf or NaN entering rss is absorbing, so one final check replaces
// the per-element one). The small fixed orders the CSS refinement
// visits get dedicated steady-state loops that carry the one-step
// lags in registers.
func cssRSS(eps, x []float64, ar, ma []float64) float64 {
	p, q := len(ar), len(ma)
	lo := maxInt(p, q)
	if lo > len(x) {
		lo = len(x)
	}
	var rss float64
	for t := 0; t < lo; t++ {
		pred := 0.0
		for j := 0; j < p && j < t; j++ {
			pred += ar[j] * x[t-1-j]
		}
		for j := 0; j < q && j < t; j++ {
			pred += ma[j] * eps[t-1-j]
		}
		e := x[t] - pred
		eps[t] = e
		rss += e * e
	}
	switch {
	case p == 1 && q == 1 && lo >= 1:
		a0, m0 := ar[0], ma[0]
		x1, e1 := x[lo-1], eps[lo-1]
		for t := lo; t < len(x); t++ {
			e := x[t] - (a0*x1 + m0*e1)
			eps[t] = e
			rss += e * e
			x1, e1 = x[t], e
		}
	case p == 2 && q == 1 && lo >= 2:
		a0, a1, m0 := ar[0], ar[1], ma[0]
		x1, x2, e1 := x[lo-1], x[lo-2], eps[lo-1]
		for t := lo; t < len(x); t++ {
			e := x[t] - (a0*x1 + a1*x2 + m0*e1)
			eps[t] = e
			rss += e * e
			x2, x1, e1 = x1, x[t], e
		}
	case p == 0 && q == 1 && lo >= 1:
		m0 := ma[0]
		e1 := eps[lo-1]
		for t := lo; t < len(x); t++ {
			e := x[t] - m0*e1
			eps[t] = e
			rss += e * e
			e1 = e
		}
	default:
		for t := lo; t < len(x); t++ {
			pred := 0.0
			for j := 0; j < p; j++ {
				pred += ar[j] * x[t-1-j]
			}
			for j := 0; j < q; j++ {
				pred += ma[j] * eps[t-1-j]
			}
			e := x[t] - pred
			eps[t] = e
			rss += e * e
		}
	}
	if math.IsInf(rss, 1) || math.IsNaN(rss) {
		return math.Inf(1)
	}
	return rss
}

// residualsInto writes the one-step-ahead in-sample residuals of an
// ARMA model on a centered series into eps (len(eps) == len(x)),
// conditioning on zero pre-sample values.
// Every entry is written in index order before it is read, so eps need
// not be cleared. The warm-up prefix (t < max(p,q)) carries the
// pre-sample guards; past it all lags exist, so the steady-state loop
// — the hot path of every CSS objective evaluation — is branch-free.
// Term order matches the guarded loop exactly (the guard only skips
// trailing lags), so the sums are bit-identical.
func residualsInto(eps, x []float64, ar, ma []float64) []float64 {
	p, q := len(ar), len(ma)
	lo := maxInt(p, q)
	if lo > len(x) {
		lo = len(x)
	}
	for t := 0; t < lo; t++ {
		pred := 0.0
		for j := 0; j < p && j < t; j++ {
			pred += ar[j] * x[t-1-j]
		}
		for j := 0; j < q && j < t; j++ {
			pred += ma[j] * eps[t-1-j]
		}
		eps[t] = x[t] - pred
	}
	for t := lo; t < len(x); t++ {
		pred := 0.0
		for j := 0; j < p; j++ {
			pred += ar[j] * x[t-1-j]
		}
		for j := 0; j < q; j++ {
			pred += ma[j] * eps[t-1-j]
		}
		eps[t] = x[t] - pred
	}
	return eps
}

// Forecast predicts the next h values of the original series.
func (m *Model) Forecast(h int) []float64 {
	if h <= 0 {
		return nil
	}
	ctx := getFitCtx()
	defer putFitCtx(ctx)
	fc := make([]float64, h)
	ctx.forecast(m, fc)
	return fc
}

// ForecastNext returns the one-step-ahead forecast.
func (m *Model) ForecastNext() float64 {
	ctx := getFitCtx()
	defer putFitCtx(ctx)
	var fc [1]float64
	ctx.forecast(m, fc[:])
	return fc[0]
}

// forecast writes m's next len(fc) values of its original series into
// fc, using c's buffers for the recursion.
func (c *fitCtx) forecast(m *Model, fc []float64) {
	// Build the difference pyramid to recover integration constants,
	// differencing in place one level at a time.
	c.lasts = grow(c.lasts, m.D)
	lasts := c.lasts
	c.diff = grow(c.diff, len(m.series))
	cur := c.diff
	copy(cur, m.series)
	ln := len(m.series)
	for i := 0; i < m.D; i++ {
		lasts[i] = cur[ln-1]
		for j := 1; j < ln; j++ {
			cur[j-1] = cur[j] - cur[j-1]
		}
		ln--
	}
	cur = cur[:ln]
	// cur is now the d-times differenced series.
	c.centered = grow(c.centered, ln)
	centered := c.centered
	for i, v := range cur {
		centered[i] = v - m.Mean
	}
	c.resid = grow(c.resid, ln)
	eps := residualsInto(c.resid, centered, m.AR, m.MA)

	// Iterate forward; future innovations are zero.
	h := len(fc)
	c.ext = grow(c.ext, ln+h)
	extended := c.ext[:ln]
	copy(extended, centered)
	c.extEps = grow(c.extEps, ln+h)
	extEps := c.extEps[:ln]
	copy(extEps, eps)
	for step := 0; step < h; step++ {
		t := len(extended)
		pred := 0.0
		for j := 0; j < m.P; j++ {
			if t-1-j >= 0 {
				pred += m.AR[j] * extended[t-1-j]
			}
		}
		for j := 0; j < m.Q; j++ {
			if t-1-j >= 0 {
				pred += m.MA[j] * extEps[t-1-j]
			}
		}
		extended = append(extended, pred)
		extEps = append(extEps, 0)
		fc[step] = pred + m.Mean
	}
	// Integrate in place (same arithmetic as Integrate, without the
	// defensive copy).
	for level := len(lasts) - 1; level >= 0; level-- {
		cum := lasts[level]
		for i := range fc {
			cum += fc[i]
			fc[i] = cum
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
