package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogNormalQuantileCDFRoundTrip(t *testing.T) {
	d := LogNormal{Mu: -0.38, Sigma: 2.36} // the paper's Figure 7 fit
	check := func(raw float64) bool {
		q := math.Mod(math.Abs(raw), 0.98) + 0.01
		x := d.Quantile(q)
		return math.Abs(d.CDF(x)-q) < 1e-6
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogNormalPaperFitMedian(t *testing.T) {
	// With ln-mean -0.38, the median execution time is e^-0.38 ~ 0.684 s,
	// consistent with "50% of functions execute for less than 1s".
	d := LogNormal{Mu: -0.38, Sigma: 2.36}
	med := d.Quantile(0.5)
	if math.Abs(med-math.Exp(-0.38)) > 1e-9 {
		t.Fatalf("median = %v", med)
	}
	if med >= 1 {
		t.Fatalf("median %v should be < 1s per the paper", med)
	}
}

func TestLogNormalSampleDistribution(t *testing.T) {
	d := LogNormal{Mu: 1.0, Sigma: 0.5}
	r := NewRNG(42)
	const n = 100000
	var logs []float64
	for i := 0; i < n; i++ {
		logs = append(logs, math.Log(d.Sample(r)))
	}
	if m := Mean(logs); math.Abs(m-1.0) > 0.01 {
		t.Fatalf("log-mean = %v, want ~1.0", m)
	}
	if s := StdDev(logs); math.Abs(s-0.5) > 0.01 {
		t.Fatalf("log-stddev = %v, want ~0.5", s)
	}
}

func TestBurrPaperFit(t *testing.T) {
	// Burr(c=11.652, k=0.221, lambda=107.083): the paper reports 50% of
	// apps allocate at most ~170MB and 90% at most ~400MB.
	d := Burr{C: 11.652, K: 0.221, Lambda: 107.083}
	med := d.Quantile(0.5)
	if med < 100 || med > 250 {
		t.Fatalf("Burr median = %v MB, want ~170MB", med)
	}
	p90 := d.Quantile(0.9)
	if p90 < 250 || p90 > 600 {
		t.Fatalf("Burr p90 = %v MB, want ~400MB", p90)
	}
	if med >= p90 {
		t.Fatal("quantiles not monotone")
	}
}

func TestBurrQuantileCDFRoundTrip(t *testing.T) {
	d := Burr{C: 11.652, K: 0.221, Lambda: 107.083}
	for q := 0.01; q < 1; q += 0.01 {
		x := d.Quantile(q)
		if got := d.CDF(x); math.Abs(got-q) > 1e-9 {
			t.Fatalf("CDF(Quantile(%v)) = %v", q, got)
		}
	}
}

func TestBurrEdgeCases(t *testing.T) {
	d := Burr{C: 2, K: 1, Lambda: 10}
	if d.CDF(0) != 0 || d.CDF(-5) != 0 {
		t.Fatal("CDF below support should be 0")
	}
	if d.Quantile(0) != 0 {
		t.Fatal("Quantile(0) should be 0")
	}
	if !math.IsInf(d.Quantile(1), 1) {
		t.Fatal("Quantile(1) should be +Inf")
	}
}

func TestHyperExpForCVTargets(t *testing.T) {
	for _, cv := range []float64{1, 1.5, 2, 4, 8} {
		d := HyperExpForCV(10, cv)
		if math.Abs(d.Mean()-10) > 1e-9 {
			t.Fatalf("cv=%v: mean = %v, want 10", cv, d.Mean())
		}
		if math.Abs(d.CV()-cv) > 1e-6 {
			t.Fatalf("cv=%v: got CV %v", cv, d.CV())
		}
	}
}

func TestHyperExpSampleMoments(t *testing.T) {
	d := HyperExpForCV(5, 3)
	r := NewRNG(11)
	const n = 400000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	if m := Mean(xs); math.Abs(m-5) > 0.15 {
		t.Fatalf("sample mean = %v, want ~5", m)
	}
	if cv := CV(xs); math.Abs(cv-3) > 0.15 {
		t.Fatalf("sample CV = %v, want ~3", cv)
	}
}

func TestHyperExpCVClampsBelowOne(t *testing.T) {
	d := HyperExpForCV(1, 0.2)
	if math.Abs(d.CV()-1) > 1e-6 {
		t.Fatalf("CV should clamp to 1, got %v", d.CV())
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.84134, 0.99998}, // ~Phi(1)
	}
	for _, c := range cases {
		if got := normalQuantile(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("normalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(normalQuantile(0), -1) || !math.IsInf(normalQuantile(1), 1) {
		t.Fatal("quantile endpoints should be infinite")
	}
}

func TestPiecewiseLogCDFAnchors(t *testing.T) {
	// Anchors shaped like Figure 5(a): daily invocation rates.
	d := NewPiecewiseLogCDF(
		[]float64{0.1, 1, 24, 1440, 86400, 1e8},
		[]float64{0, 0.10, 0.45, 0.81, 0.97, 1},
	)
	// Quantiles at anchor probabilities must hit anchor values.
	if got := d.Quantile(0.45); math.Abs(got-24) > 1e-9 {
		t.Fatalf("Quantile(0.45) = %v, want 24", got)
	}
	if got := d.Quantile(0.81); math.Abs(got-1440) > 1e-9 {
		t.Fatalf("Quantile(0.81) = %v, want 1440", got)
	}
	// CDF inverts Quantile.
	for q := 0.05; q < 1; q += 0.05 {
		x := d.Quantile(q)
		if got := d.CDF(x); math.Abs(got-q) > 1e-6 {
			t.Fatalf("CDF(Quantile(%v)) = %v", q, got)
		}
	}
}

func TestPiecewiseLogCDFSampling(t *testing.T) {
	d := NewPiecewiseLogCDF(
		[]float64{1, 24, 1440, 1e6},
		[]float64{0, 0.45, 0.81, 1},
	)
	r := NewRNG(21)
	const n = 100000
	var le24, le1440 int
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		if x <= 24 {
			le24++
		}
		if x <= 1440 {
			le1440++
		}
	}
	if frac := float64(le24) / n; math.Abs(frac-0.45) > 0.01 {
		t.Fatalf("P(X<=24) = %v, want ~0.45", frac)
	}
	if frac := float64(le1440) / n; math.Abs(frac-0.81) > 0.01 {
		t.Fatalf("P(X<=1440) = %v, want ~0.81", frac)
	}
}

func TestPiecewiseLogCDFValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewPiecewiseLogCDF([]float64{1}, []float64{0}) },
		func() { NewPiecewiseLogCDF([]float64{1, 2}, []float64{0.1, 1}) },
		func() { NewPiecewiseLogCDF([]float64{2, 1}, []float64{0, 1}) },
		func() { NewPiecewiseLogCDF([]float64{-1, 2}, []float64{0, 1}) },
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
