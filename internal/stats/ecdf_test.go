package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestECDFAt(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3, 10})
	cases := []struct{ x, want float64 }{
		{0.5, 0},
		{1, 0.2},
		{2, 0.6},
		{2.5, 0.6},
		{10, 1},
		{100, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40, 50})
	if got := e.Quantile(0.5); got != 30 {
		t.Fatalf("median = %v", got)
	}
	if got := e.Quantile(0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := e.Quantile(1); got != 50 {
		t.Fatalf("q1 = %v", got)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(5) != 0 {
		t.Fatal("empty ECDF At should be 0")
	}
	if e.Points(10) != nil {
		t.Fatal("empty ECDF Points should be nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from Quantile on empty ECDF")
		}
	}()
	e.Quantile(0.5)
}

func TestECDFPointsMonotone(t *testing.T) {
	check := func(seed uint64) bool {
		r := NewRNG(seed)
		n := int(seed%50) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		pts := NewECDF(xs).Points(20)
		for i := 1; i < len(pts); i++ {
			if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
				return false
			}
		}
		return len(pts) == 20 && pts[0].Y == 0 && pts[len(pts)-1].Y == 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECDFAtQuantileConsistency(t *testing.T) {
	// For continuous samples, At(Quantile(q)) ~ q.
	r := NewRNG(5)
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = r.Float64()
	}
	e := NewECDF(xs)
	for q := 0.1; q < 1; q += 0.1 {
		x := e.Quantile(q)
		if got := e.At(x); math.Abs(got-q) > 0.01 {
			t.Fatalf("At(Quantile(%v)) = %v", q, got)
		}
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	e := NewECDF(xs)
	xs[0] = 100
	if e.At(3) != 1 {
		t.Fatal("ECDF must copy its input")
	}
}
