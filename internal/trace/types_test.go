package trace

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func mkApp(id string, fns ...*Function) *App {
	return &App{ID: id, Owner: "o-" + id, Functions: fns}
}

func TestTriggerRoundTrip(t *testing.T) {
	for _, trig := range AllTriggers() {
		got, err := ParseTrigger(trig.String())
		if err != nil {
			t.Fatalf("ParseTrigger(%q): %v", trig.String(), err)
		}
		if got != trig {
			t.Fatalf("round trip %v -> %v", trig, got)
		}
	}
}

func TestParseTriggerUnknown(t *testing.T) {
	if _, err := ParseTrigger("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestTriggerStringUnknownValue(t *testing.T) {
	if s := TriggerType(200).String(); s == "" {
		t.Fatal("String of out-of-range trigger should not be empty")
	}
}

func TestAppInvocationTimesMergesAndSorts(t *testing.T) {
	app := mkApp("a",
		&Function{ID: "f1", Invocations: []float64{10, 30}},
		&Function{ID: "f2", Invocations: []float64{5, 20, 40}},
	)
	got := app.InvocationTimes()
	want := []float64{5, 10, 20, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestAppInvocationTimesCached(t *testing.T) {
	app := mkApp("a", &Function{ID: "f", Invocations: []float64{1}})
	first := app.InvocationTimes()
	app.Functions[0].Invocations = append(app.Functions[0].Invocations, 2)
	if len(app.InvocationTimes()) != len(first) {
		t.Fatal("expected the memoized result")
	}
}

func TestAppIATs(t *testing.T) {
	app := mkApp("a", &Function{ID: "f", Invocations: []float64{10, 25, 85}})
	iats := app.IATs()
	if len(iats) != 2 || iats[0] != 15 || iats[1] != 60 {
		t.Fatalf("iats = %v", iats)
	}
}

func TestAppIATsTooFew(t *testing.T) {
	if iats := mkApp("a", &Function{ID: "f", Invocations: []float64{3}}).IATs(); iats != nil {
		t.Fatalf("expected nil, got %v", iats)
	}
	if iats := mkApp("b").IATs(); iats != nil {
		t.Fatalf("expected nil for empty app, got %v", iats)
	}
}

func TestAppTriggerSet(t *testing.T) {
	app := mkApp("a",
		&Function{ID: "f1", Trigger: TriggerHTTP},
		&Function{ID: "f2", Trigger: TriggerTimer},
		&Function{ID: "f3", Trigger: TriggerHTTP},
	)
	wantMask := uint8(1<<TriggerHTTP | 1<<TriggerTimer)
	if app.TriggerSet() != wantMask {
		t.Fatalf("mask = %b, want %b", app.TriggerSet(), wantMask)
	}
}

func TestTraceTotals(t *testing.T) {
	tr := &Trace{
		Duration: time.Hour,
		Apps: []*App{
			mkApp("a", &Function{ID: "f1", Invocations: []float64{1, 2}}),
			mkApp("b", &Function{ID: "f2", Invocations: []float64{3}},
				&Function{ID: "f3"}),
		},
	}
	if tr.TotalInvocations() != 3 {
		t.Fatalf("invocations = %d", tr.TotalInvocations())
	}
	if tr.TotalFunctions() != 3 {
		t.Fatalf("functions = %d", tr.TotalFunctions())
	}
}

func TestValidateAcceptsGoodTrace(t *testing.T) {
	tr := &Trace{
		Duration: time.Hour,
		Apps: []*App{
			mkApp("a", &Function{ID: "f1", Invocations: []float64{0, 1800, 3600}}),
		},
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	cases := []struct {
		name string
		tr   *Trace
	}{
		{"empty app id", &Trace{Duration: time.Hour, Apps: []*App{{ID: ""}}}},
		{"empty fn id", &Trace{Duration: time.Hour, Apps: []*App{
			mkApp("a", &Function{ID: ""})}}},
		{"dup fn id", &Trace{Duration: time.Hour, Apps: []*App{
			mkApp("a", &Function{ID: "f"}), mkApp("b", &Function{ID: "f"})}}},
		{"unsorted", &Trace{Duration: time.Hour, Apps: []*App{
			mkApp("a", &Function{ID: "f", Invocations: []float64{5, 3}})}}},
		{"negative", &Trace{Duration: time.Hour, Apps: []*App{
			mkApp("a", &Function{ID: "f", Invocations: []float64{-1}})}}},
		{"beyond horizon", &Trace{Duration: time.Hour, Apps: []*App{
			mkApp("a", &Function{ID: "f", Invocations: []float64{3601}})}}},
	}
	for _, c := range cases {
		if err := c.tr.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestMinuteCounts(t *testing.T) {
	times := []float64{0, 59.9, 60, 119, 600}
	counts := MinuteCounts(times, 11*time.Minute)
	if counts[0] != 2 || counts[1] != 2 || counts[10] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	var sum int
	for _, c := range counts {
		sum += c
	}
	if sum != len(times) {
		t.Fatalf("sum = %d", sum)
	}
}

func TestMinuteCountsEdge(t *testing.T) {
	// Exactly at the horizon: clamps into the last minute.
	counts := MinuteCounts([]float64{120}, 2*time.Minute)
	if counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if MinuteCounts([]float64{1}, 0) != nil {
		t.Fatal("zero horizon should be nil")
	}
}

func TestMinuteCountsPreservesTotal(t *testing.T) {
	check := func(seed int64) bool {
		n := int(math.Abs(float64(seed%100))) + 1
		times := make([]float64, n)
		for i := range times {
			times[i] = float64((seed*(int64(i)+7))%36000) / 10
			if times[i] < 0 {
				times[i] = -times[i]
			}
		}
		counts := MinuteCounts(times, time.Hour)
		var sum int
		for _, c := range counts {
			sum += c
		}
		return sum == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
