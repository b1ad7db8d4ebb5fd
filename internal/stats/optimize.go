package stats

import (
	"math"
)

// NelderMeadOptions configures the derivative-free simplex optimizer
// used by the ARIMA estimator's conditional-sum-of-squares refinement.
type NelderMeadOptions struct {
	MaxIter int     // maximum iterations (default 400)
	Tol     float64 // convergence tolerance on simplex spread (default 1e-8)
	Step    float64 // initial simplex step per coordinate (default 0.1)
}

// NelderMeadScratch holds the simplex and trial-point buffers of one
// NelderMead call, so a hot caller (the per-invocation ARIMA refit)
// reuses them across calls. The zero value is ready.
type NelderMeadScratch struct {
	simplex []nmVertex
	buf     []float64
}

// nmVertex is one simplex vertex and its objective value.
type nmVertex struct {
	x []float64
	v float64
}

// NelderMead minimizes f starting from x0 and returns the best point,
// its value, and f(x0). The best value never exceeds f(x0), so a
// caller that keeps the result only on improvement compares against
// the third return instead of evaluating the start point again. It
// never evaluates f outside what the caller's f tolerates; f may
// return +Inf to reject a region.
//
// The simplex and trial points live in s (may be nil; the arithmetic
// is identical, only allocation behavior differs), so a call with a
// warm scratch allocates nothing. f must not retain the slice it is
// handed: candidate points are written into a small set of rotating
// buffers. The returned slice aliases s and is valid until s is next
// used; with a nil s it is owned by the caller.
func NelderMead(s *NelderMeadScratch, f func([]float64) float64, x0 []float64, opt NelderMeadOptions) (best []float64, bestV, startV float64) {
	if opt.MaxIter == 0 {
		opt.MaxIter = 400
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-8
	}
	if opt.Step == 0 {
		opt.Step = 0.1
	}
	n := len(x0)
	if n == 0 {
		v := f(nil)
		return nil, v, v
	}
	if s == nil {
		s = new(NelderMeadScratch)
	}

	// n+1 vertices plus the centroid and two candidates, carved from
	// one flat buffer.
	if cap(s.simplex) < n+1 {
		s.simplex = make([]nmVertex, n+1)
	}
	simplex := s.simplex[:n+1]
	if cap(s.buf) < (n+4)*n {
		s.buf = make([]float64, (n+4)*n)
	}
	vec := func(i int) []float64 { return s.buf[i*n : (i+1)*n : (i+1)*n] }
	base := vec(0)
	copy(base, x0)
	simplex[0] = nmVertex{x: base, v: f(base)}
	startV = simplex[0].v
	for i := 0; i < n; i++ {
		x := vec(i + 1)
		copy(x, x0)
		if x[i] != 0 {
			x[i] *= 1 + opt.Step
		} else {
			x[i] = opt.Step
		}
		simplex[i+1] = nmVertex{x: x, v: f(x)}
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	// Scratch vectors. When a candidate is accepted into the simplex it
	// swaps storage with the evicted worst vertex, so the n+4 vectors
	// carved from s are all the storage a call uses.
	//
	// sortSimplex is insertion sort, the exact algorithm sort.Slice
	// applies to slices this small (n+1 <= dims+1), so the ordering —
	// including the permutation of equal-valued vertices — matches the
	// library sort while avoiding its per-call reflection allocation.
	sortSimplex := func() {
		for i := 1; i <= n; i++ {
			for j := i; j > 0 && simplex[j].v < simplex[j-1].v; j-- {
				simplex[j], simplex[j-1] = simplex[j-1], simplex[j]
			}
		}
	}
	centroid := vec(n + 1)
	cand := vec(n + 2)  // reflection candidate
	cand2 := vec(n + 3) // expansion/contraction candidate
	accept := func(x []float64, v float64) []float64 {
		old := simplex[n].x
		simplex[n] = nmVertex{x: x, v: v}
		return old
	}

	for iter := 0; iter < opt.MaxIter; iter++ {
		sortSimplex()
		// Converged only when both the value spread and the simplex
		// diameter are small; a value check alone stops early when the
		// simplex straddles a minimum symmetrically.
		if math.Abs(simplex[n].v-simplex[0].v) < opt.Tol*(math.Abs(simplex[0].v)+opt.Tol) {
			var diam float64
			for j := 0; j < n; j++ {
				d := math.Abs(simplex[n].x[j] - simplex[0].x[j])
				if d > diam {
					diam = d
				}
			}
			if diam < opt.Tol*(1+math.Abs(simplex[0].x[0])) {
				break
			}
		}

		// Centroid of all but worst.
		for j := 0; j < n; j++ {
			centroid[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				centroid[j] += simplex[i].x[j]
			}
		}
		for j := 0; j < n; j++ {
			centroid[j] /= float64(n)
		}

		worst := simplex[n]
		reflect := cand
		for j := 0; j < n; j++ {
			reflect[j] = centroid[j] + alpha*(centroid[j]-worst.x[j])
		}
		rv := f(reflect)

		switch {
		case rv < simplex[0].v:
			// Try expansion.
			expand := cand2
			for j := 0; j < n; j++ {
				expand[j] = centroid[j] + gamma*(reflect[j]-centroid[j])
			}
			if ev := f(expand); ev < rv {
				cand2 = accept(expand, ev)
			} else {
				cand = accept(reflect, rv)
			}
		case rv < simplex[n-1].v:
			cand = accept(reflect, rv)
		default:
			// Contraction.
			contract := cand2
			for j := 0; j < n; j++ {
				contract[j] = centroid[j] + rho*(worst.x[j]-centroid[j])
			}
			if cv := f(contract); cv < worst.v {
				cand2 = accept(contract, cv)
			} else {
				// Shrink toward best.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						simplex[i].x[j] = simplex[0].x[j] + sigma*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].v = f(simplex[i].x)
				}
			}
		}
	}
	sortSimplex()
	return simplex[0].x, simplex[0].v, startV
}

// LSScratch holds reusable buffers for the least-squares routines, so
// hot callers (the per-invocation ARIMA refit) avoid re-allocating the
// small normal-equation and elimination matrices, and the solution, on
// every fit. The zero value is ready; a nil *LSScratch falls back to
// fresh allocations. A solution returned through a scratch aliases it
// and is valid until the scratch is next used.
type LSScratch struct {
	xtx    [][]float64
	xtxBuf []float64
	xty    []float64
	aug    [][]float64
	augBuf []float64
	x      []float64
}

// matrix returns a rows x cols matrix backed by buf, zeroed when asked.
func lsMatrix(hdrs *[][]float64, buf *[]float64, rows, cols int, zero bool) [][]float64 {
	if cap(*hdrs) < rows {
		*hdrs = make([][]float64, rows)
	}
	m := (*hdrs)[:rows]
	if cap(*buf) < rows*cols {
		*buf = make([]float64, rows*cols)
	}
	flat := (*buf)[:rows*cols]
	if zero {
		for i := range flat {
			flat[i] = 0
		}
	}
	for i := 0; i < rows; i++ {
		m[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return m
}

// SolveLinearInto solves A x = b by Gaussian elimination with partial
// pivoting, with workspace and the solution drawn from s (may be nil;
// the arithmetic is identical, only allocation behavior differs). A is
// row-major n x n and is not modified. It returns false if the system
// is singular (to working precision).
func SolveLinearInto(s *LSScratch, a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	if len(a) != n {
		panic("stats: SolveLinear dimension mismatch")
	}
	// Copy into augmented matrix.
	var m [][]float64
	if s != nil {
		m = lsMatrix(&s.aug, &s.augBuf, n, n+1, false)
	} else {
		m = make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n+1)
		}
	}
	for i := 0; i < n; i++ {
		if len(a[i]) != n {
			panic("stats: SolveLinear requires square A")
		}
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, false
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := col + 1; r < n; r++ {
			factor := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= factor * m[col][c]
			}
		}
	}
	var x []float64
	if s != nil {
		if cap(s.x) < n {
			s.x = make([]float64, n)
		}
		x = s.x[:n]
	} else {
		x = make([]float64, n)
	}
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for j := i + 1; j < n; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	return x, true
}

// OLSInto fits y = X beta by ordinary least squares via the normal
// equations (X'X) beta = X'y, with workspace and beta drawn from s (may
// be nil; the arithmetic — including the accumulation order of the
// normal equations — is identical, only allocation behavior differs). X is
// row-major with one row per observation. It returns false if X'X is
// singular.
func OLSInto(s *LSScratch, x [][]float64, y []float64) ([]float64, bool) {
	nobs := len(x)
	if nobs == 0 || nobs != len(y) {
		return nil, false
	}
	k := len(x[0])
	if k == 0 {
		return nil, false
	}
	var xtx [][]float64
	var xty []float64
	if s != nil {
		xtx = lsMatrix(&s.xtx, &s.xtxBuf, k, k, true)
		if cap(s.xty) < k {
			s.xty = make([]float64, k)
		}
		xty = s.xty[:k]
		for i := range xty {
			xty[i] = 0
		}
	} else {
		xtx = make([][]float64, k)
		for i := range xtx {
			xtx[i] = make([]float64, k)
		}
		xty = make([]float64, k)
	}
	for r := 0; r < nobs; r++ {
		row := x[r]
		if len(row) != k {
			return nil, false
		}
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[r]
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	return SolveLinearInto(s, xtx, xty)
}
