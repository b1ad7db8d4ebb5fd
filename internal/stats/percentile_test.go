package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileBasic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotModifyInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileSingleElement(t *testing.T) {
	for _, p := range []float64{0, 50, 100} {
		if got := Percentile([]float64{7}, p); got != 7 {
			t.Fatalf("Percentile([7], %v) = %v", p, got)
		}
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPercentileMonotonic(t *testing.T) {
	check := func(seed uint64) bool {
		r := NewRNG(seed)
		n := int(seed%40) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 50
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileSortedAgrees(t *testing.T) {
	r := NewRNG(77)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = r.Float64() * 1000
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for p := 0.0; p <= 100; p += 7 {
		a := Percentile(xs, p)
		b := PercentileSorted(sorted, p)
		if a != b {
			t.Fatalf("p=%v: Percentile=%v PercentileSorted=%v", p, a, b)
		}
	}
}

func TestMeanVarianceCV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Fatalf("variance = %v", Variance(xs))
	}
	if StdDev(xs) != 2 {
		t.Fatalf("stddev = %v", StdDev(xs))
	}
	if CV(xs) != 0.4 {
		t.Fatalf("cv = %v", CV(xs))
	}
}

func TestMeanEmptyIsZero(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || CV(nil) != 0 {
		t.Fatal("empty-slice helpers should return 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 || Sum(xs) != 12 {
		t.Fatalf("min=%v max=%v sum=%v", Min(xs), Max(xs), Sum(xs))
	}
}

func TestCVOfConstantSeriesIsZero(t *testing.T) {
	if got := CV([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("CV of constants = %v", got)
	}
}

func TestCVOfExponentialIsNearOne(t *testing.T) {
	r := NewRNG(123)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = r.ExpFloat64()
	}
	if cv := CV(xs); math.Abs(cv-1) > 0.03 {
		t.Fatalf("CV of exponential sample = %v, want ~1", cv)
	}
}
