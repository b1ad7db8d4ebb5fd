package stats

import (
	"math"
	"testing"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+2)*(x[1]+2) + 5
	}
	x, v, v0 := NelderMead(nil, f, []float64{0, 0}, NelderMeadOptions{MaxIter: 500})
	if math.Abs(x[0]-3) > 1e-3 || math.Abs(x[1]+2) > 1e-3 {
		t.Fatalf("minimum at %v, want (3,-2)", x)
	}
	if math.Abs(v-5) > 1e-5 {
		t.Fatalf("value = %v, want 5", v)
	}
	if v0 != 18 {
		t.Fatalf("start value = %v, want f(0,0) = 18", v0)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, _, _ := NelderMead(nil, f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 5000, Tol: 1e-14})
	if math.Abs(x[0]-1) > 0.01 || math.Abs(x[1]-1) > 0.01 {
		t.Fatalf("Rosenbrock minimum at %v, want (1,1)", x)
	}
}

func TestNelderMeadRejectsInfRegions(t *testing.T) {
	// f is +Inf outside |x| < 10; minimum at 4.
	f := func(x []float64) float64 {
		if math.Abs(x[0]) >= 10 {
			return math.Inf(1)
		}
		return (x[0] - 4) * (x[0] - 4)
	}
	x, _, _ := NelderMead(nil, f, []float64{1}, NelderMeadOptions{})
	if math.Abs(x[0]-4) > 1e-3 {
		t.Fatalf("minimum at %v, want 4", x[0])
	}
}

func TestNelderMeadEmptyInput(t *testing.T) {
	calls := 0
	f := func(x []float64) float64 { calls++; return 7 }
	_, v, v0 := NelderMead(nil, f, nil, NelderMeadOptions{})
	if calls != 1 || v != 7 || v0 != 7 {
		t.Fatal("empty input should evaluate f once")
	}
}

func TestSolveLinearKnownSystem(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, ok := SolveLinearInto(nil, a, b)
	if !ok {
		t.Fatal("solver reported singular")
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{
		{1, 2},
		{2, 4},
	}
	if _, ok := SolveLinearInto(nil, a, []float64{1, 2}); ok {
		t.Fatal("singular system should report !ok")
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := [][]float64{
		{0, 1},
		{1, 0},
	}
	x, ok := SolveLinearInto(nil, a, []float64{2, 3})
	if !ok || math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v ok=%v", x, ok)
	}
}

func TestOLSRecoversCoefficients(t *testing.T) {
	// y = 2 + 3*a - 1.5*b with small noise.
	r := NewRNG(99)
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a := r.NormFloat64()
		b := r.NormFloat64()
		x = append(x, []float64{1, a, b})
		y = append(y, 2+3*a-1.5*b+0.01*r.NormFloat64())
	}
	beta, ok := OLSInto(nil, x, y)
	if !ok {
		t.Fatal("OLS failed")
	}
	want := []float64{2, 3, -1.5}
	for i := range want {
		if math.Abs(beta[i]-want[i]) > 0.01 {
			t.Fatalf("beta = %v, want %v", beta, want)
		}
	}
}

func TestOLSDegenerate(t *testing.T) {
	if _, ok := OLSInto(nil, nil, nil); ok {
		t.Fatal("empty OLS should fail")
	}
	// Collinear columns.
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	if _, ok := OLSInto(nil, x, []float64{1, 2, 3}); ok {
		t.Fatal("collinear OLS should fail")
	}
}

// TestNelderMeadScratchMatchesNil pins that a reused scratch changes
// only where the buffers come from: across calls of different
// dimensions, one warm scratch returns the bits a nil scratch does.
func TestNelderMeadScratchMatchesNil(t *testing.T) {
	var s NelderMeadScratch
	for _, x0 := range [][]float64{{0, 0}, {-1.2, 1}, {1}, {0.3, -0.2, 0.1}, {2, 0}} {
		f := func(x []float64) float64 {
			var v float64
			for i, xi := range x {
				d := xi - float64(i+1)
				v += d*d + 0.1*xi*x[0]
			}
			return v
		}
		opt := NelderMeadOptions{MaxIter: 300, Tol: 1e-10}
		want, wv, w0 := NelderMead(nil, f, x0, opt)
		got, gv, g0 := NelderMead(&s, f, x0, opt)
		if math.Float64bits(gv) != math.Float64bits(wv) || math.Float64bits(g0) != math.Float64bits(w0) {
			t.Fatalf("x0 %v: values %v/%v with scratch, %v/%v without", x0, gv, g0, wv, w0)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("x0 %v: point %v with scratch, %v without", x0, got, want)
			}
		}
	}
}

// TestNelderMeadScratchAllocs pins that a call on a warm scratch
// allocates nothing.
func TestNelderMeadScratchAllocs(t *testing.T) {
	var s NelderMeadScratch
	f := func(x []float64) float64 { return (x[0]-3)*(x[0]-3) + (x[1]+2)*(x[1]+2) + (x[2]-1)*(x[2]-1) }
	x0 := []float64{0, 0, 0}
	opt := NelderMeadOptions{MaxIter: 300, Tol: 1e-10}
	NelderMead(&s, f, x0, opt)
	if a := testing.AllocsPerRun(100, func() { NelderMead(&s, f, x0, opt) }); a != 0 {
		t.Fatalf("NelderMead on a warm scratch: %v allocs/op, want 0", a)
	}
}

// TestSolveLinearScratchMatchesNil pins that the solution a scratch
// holds has the bits of a freshly allocated one.
func TestSolveLinearScratchMatchesNil(t *testing.T) {
	var s LSScratch
	a := [][]float64{{0, 2, 1}, {1, -1, 3}, {4, 0.5, -2}}
	b := []float64{1, 2, 3}
	want, _ := SolveLinearInto(nil, a, b)
	SolveLinearInto(&s, [][]float64{{2}}, []float64{1}) // warm at another size
	got, ok := SolveLinearInto(&s, a, b)
	if !ok {
		t.Fatal("singular")
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("solution %v with scratch, %v without", got, want)
		}
	}
}
