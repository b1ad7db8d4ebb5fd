package workload

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestDiurnalProfileMeanIsOne(t *testing.T) {
	p := NewDiurnalProfile()
	var sum float64
	const steps = 7 * 24 * 60
	for i := 0; i < steps; i++ {
		sum += p.Factor(float64(i) * 60)
	}
	if mean := sum / steps; math.Abs(mean-1) > 1e-6 {
		t.Fatalf("mean factor = %v, want 1", mean)
	}
}

func TestDiurnalProfileShape(t *testing.T) {
	p := NewDiurnalProfile()
	// Mid-afternoon Monday beats 3am Monday.
	monday15 := p.Factor(15 * 3600)
	monday3 := p.Factor(3 * 3600)
	if monday15 <= monday3 {
		t.Fatalf("peak %v should exceed trough %v", monday15, monday3)
	}
	// Weekend afternoon is damped vs weekday afternoon.
	saturday15 := p.Factor(5*86400 + 15*3600)
	if saturday15 >= monday15 {
		t.Fatalf("saturday %v should be below monday %v", saturday15, monday15)
	}
	// Baseline keeps the trough well above zero (Figure 4's ~50% floor).
	if monday3 < 0.3 {
		t.Fatalf("trough %v too low", monday3)
	}
}

func TestDiurnalMaxFactorBounds(t *testing.T) {
	p := NewDiurnalProfile()
	max := p.MaxFactor()
	for i := 0; i < 7*24; i++ {
		if f := p.Factor(float64(i) * 3600); f > max+1e-9 {
			t.Fatalf("factor %v exceeds MaxFactor %v", f, max)
		}
	}
}

func TestGenTimerPeriodic(t *testing.T) {
	events := genTimer(30, 600, 86400, 1<<20)
	if len(events) < 140 || len(events) > 145 {
		t.Fatalf("10-min timer over a day: %d events", len(events))
	}
	for i := 2; i < len(events); i++ {
		if math.Abs((events[i]-events[i-1])-600) > 1e-9 {
			t.Fatalf("period broken at %d", i)
		}
	}
}

func TestGenTimerEdge(t *testing.T) {
	if genTimer(0, 0, 100, 10) != nil {
		t.Fatal("zero period should be nil")
	}
	if got := genTimer(3, 10, 1000, 5); len(got) != 5 {
		t.Fatalf("maxEvents not honored: %d", len(got))
	}
}

func TestGenJitteredPeriodicLowCV(t *testing.T) {
	r := stats.NewRNG(3)
	events := genJitteredPeriodic(r, 300, 0.05, 7*86400, 1<<20)
	if len(events) < 1900 {
		t.Fatalf("events = %d", len(events))
	}
	iats := make([]float64, len(events)-1)
	for i := 1; i < len(events); i++ {
		iats[i-1] = events[i] - events[i-1]
	}
	if cv := stats.CV(iats); cv > 0.1 {
		t.Fatalf("jittered-periodic CV = %v, want ~0.05", cv)
	}
}

func TestGenPoissonRateAndCV(t *testing.T) {
	r := stats.NewRNG(4)
	rate := 0.01 // per second
	horizon := 14.0 * 86400
	events := genPoisson(r, rate, horizon, nil, 1<<22)
	want := rate * horizon
	if math.Abs(float64(len(events))-want) > 0.05*want {
		t.Fatalf("events = %d, want ~%v", len(events), want)
	}
	iats := make([]float64, len(events)-1)
	for i := 1; i < len(events); i++ {
		iats[i-1] = events[i] - events[i-1]
	}
	if cv := stats.CV(iats); math.Abs(cv-1) > 0.1 {
		t.Fatalf("Poisson CV = %v, want ~1", cv)
	}
}

func TestGenPoissonModulatedPreservesMeanRate(t *testing.T) {
	r := stats.NewRNG(5)
	p := NewDiurnalProfile()
	rate := 0.02
	horizon := 7.0 * 86400
	events := genPoisson(r, rate, horizon, p, 1<<22)
	want := rate * horizon
	if math.Abs(float64(len(events))-want) > 0.05*want {
		t.Fatalf("modulated events = %d, want ~%v", len(events), want)
	}
	// Afternoon busier than pre-dawn on weekdays.
	var afternoon, predawn int
	for _, e := range events {
		day := int(e/86400) % 7
		if day >= 5 {
			continue
		}
		h := math.Mod(e, 86400) / 3600
		switch {
		case h >= 13 && h < 17:
			afternoon++
		case h >= 1 && h < 5:
			predawn++
		}
	}
	if afternoon <= predawn {
		t.Fatalf("afternoon %d should exceed predawn %d", afternoon, predawn)
	}
}

func TestGenBurstyCV(t *testing.T) {
	r := stats.NewRNG(6)
	events := genBursty(r, 0.02, 4, 30*86400, 1<<22)
	if len(events) < 10000 {
		t.Fatalf("events = %d", len(events))
	}
	iats := make([]float64, len(events)-1)
	for i := 1; i < len(events); i++ {
		iats[i-1] = events[i] - events[i-1]
	}
	if cv := stats.CV(iats); cv < 2.5 {
		t.Fatalf("bursty CV = %v, want > 2.5", cv)
	}
}

func TestGenArrivalsZeroRate(t *testing.T) {
	r := stats.NewRNG(7)
	if genPoisson(r, 0, 100, nil, 10) != nil {
		t.Fatal("zero-rate Poisson should be nil")
	}
	if genBursty(r, 0, 2, 100, 10) != nil {
		t.Fatal("zero-rate bursty should be nil")
	}
	if genJitteredPeriodic(r, 0, 0.1, 100, 10) != nil {
		t.Fatal("zero-period jittered should be nil")
	}
}

func TestArrivalsSorted(t *testing.T) {
	r := stats.NewRNG(8)
	for _, events := range [][]float64{
		genTimer(7, 60, 86400, 1<<20),
		genJitteredPeriodic(r, 60, 0.2, 86400, 1<<20),
		genPoisson(r, 0.05, 86400, NewDiurnalProfile(), 1<<20),
		genBursty(r, 0.05, 3, 86400, 1<<20),
	} {
		for i := 1; i < len(events); i++ {
			if events[i] < events[i-1] {
				t.Fatal("events not sorted")
			}
		}
		if len(events) > 0 && events[len(events)-1] > 86400 {
			t.Fatal("event beyond horizon")
		}
	}
}

func TestRoundToSchedule(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{55, 60},
		{70, 60},
		{500, 600},
		{4000, 3600},
		{100000, 86400},
		{1e7, 7 * 86400},
	}
	for _, c := range cases {
		if got := roundToSchedule(c.in); got != c.want {
			t.Errorf("roundToSchedule(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
