package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workload"
)

func runPopulation(t testing.TB) *trace.Trace {
	t.Helper()
	pop, err := workload.Generate(workload.Config{
		Seed: 31, NumApps: 90, Duration: 24 * time.Hour,
		MaxDailyRate: 600, MaxEventsPerFunction: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pop.Trace
}

func sameResults(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Policy != want.Policy || got.HorizonSeconds != want.HorizonSeconds {
		t.Fatalf("%s: header %s/%v vs %s/%v", name,
			got.Policy, got.HorizonSeconds, want.Policy, want.HorizonSeconds)
	}
	if len(got.Apps) != len(want.Apps) {
		t.Fatalf("%s: %d apps vs %d", name, len(got.Apps), len(want.Apps))
	}
	for i := range want.Apps {
		if got.Apps[i] != want.Apps[i] {
			t.Fatalf("%s: app %d differs:\n  got  %+v\n  want %+v",
				name, i, got.Apps[i], want.Apps[i])
		}
	}
}

// TestRunMatchesSimulate pins the option plumbing: for several
// policies, worker counts and exec-time settings, Run with options
// reproduces a single-worker Simulate with the matching exec-time
// setting exactly, app by app.
func TestRunMatchesSimulate(t *testing.T) {
	tr := runPopulation(t)
	cases := []struct {
		name     string
		pol      func() policy.Policy
		procs    int
		execTime bool
	}{
		{"fixed", func() policy.Policy { return policy.FixedKeepAlive{KeepAlive: 10 * time.Minute} },
			0, false},
		{"nounload-4workers", func() policy.Policy { return policy.NoUnloading{} },
			4, false},
		{"hybrid", func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) },
			0, false},
		{"hybrid-exectime-3workers", func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) },
			3, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := simulateAt(1, tr, c.pol(), WithExecTime(c.execTime))
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs)) // 0 keeps the default
			got, err := Run(context.Background(), trace.NewTraceSource(tr), c.pol(), WithExecTime(c.execTime))
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "run", got, want)
		})
	}
}

// recordingSink checks every app arrives exactly once with its index.
type recordingSink struct {
	seen map[int]AppResult
}

func (s *recordingSink) Consume(i int, r AppResult) {
	if _, dup := s.seen[i]; dup {
		panic("duplicate index")
	}
	s.seen[i] = r
}

func TestRunSinksReceiveEveryApp(t *testing.T) {
	tr := runPopulation(t)
	pol := policy.FixedKeepAlive{KeepAlive: 10 * time.Minute}
	want := Simulate(tr, pol)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sink := &recordingSink{seen: map[int]AppResult{}}
	res, err := Run(context.Background(), trace.NewTraceSource(tr), pol, WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatal("explicit sink should disable the default collector")
	}
	if len(sink.seen) != len(want.Apps) {
		t.Fatalf("sink saw %d apps, want %d", len(sink.seen), len(want.Apps))
	}
	for i, wa := range want.Apps {
		if sink.seen[i] != wa {
			t.Fatalf("app %d differs", i)
		}
	}
}

// orderedSink records outcomes and the first index that is not its
// predecessor + 1 (Run serializes Consume, so no lock is needed).
type orderedSink struct {
	got []AppResult
	bad int // first out-of-order index, or -1
}

func (s *orderedSink) Consume(i int, r AppResult) {
	if i != len(s.got) && s.bad < 0 {
		s.bad = i
	}
	s.got = append(s.got, r)
}

// TestRunSinksSeeAscendingIndices pins the reorder buffer: app 0
// dwarfs hundreds of tiny apps, so at several workers the tiny apps
// finish while app 0 is still walking, and their outcomes must wait.
// The sink must still see indices 0, 1, 2, … and outcomes equal to a
// single-worker run.
func TestRunSinksSeeAscendingIndices(t *testing.T) {
	big := make([]float64, 100_000)
	for i := range big {
		big[i] = float64(i)
	}
	tr := &trace.Trace{Duration: 48 * time.Hour, Apps: []*trace.App{{ID: "big",
		Functions: []*trace.Function{{ID: "big", Invocations: big}}}}}
	for a := 0; a < 400; a++ {
		id := fmt.Sprintf("tiny%d", a)
		tr.Apps = append(tr.Apps, &trace.App{ID: id, Functions: []*trace.Function{{ID: id,
			Invocations: []float64{float64(a), float64(a) + 900, float64(a) + 5000}}}})
	}
	pol := func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) }
	want := simulateAt(1, tr, pol())
	for _, w := range []int{1, 4} {
		sink := &orderedSink{bad: -1}
		if simulateAt(w, tr, pol(), WithSink(sink)) != nil {
			t.Fatal("explicit sink should disable the default collector")
		}
		if sink.bad >= 0 {
			t.Fatalf("workers=%d: sink saw index %d out of order", w, sink.bad)
		}
		sameResults(t, fmt.Sprintf("workers=%d", w), &Result{Policy: want.Policy,
			HorizonSeconds: want.HorizonSeconds, Apps: sink.got}, want)
	}
}

func TestRunCancellation(t *testing.T) {
	tr := runPopulation(t)
	pol := policy.NewHybrid(policy.DefaultHybridConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	res, err := Run(ctx, trace.NewTraceSource(tr), pol)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
}

// failingSource yields a few apps then fails.
type failingSource struct {
	src   trace.Source
	after int
	err   error
}

func (s *failingSource) Horizon() time.Duration { return s.src.Horizon() }
func (s *failingSource) Next() (*trace.App, error) {
	if s.after <= 0 {
		return nil, s.err
	}
	s.after--
	return s.src.Next()
}

func TestRunSourceErrorPropagates(t *testing.T) {
	tr := runPopulation(t)
	wantErr := errors.New("disk on fire")
	src := &failingSource{src: trace.NewTraceSource(tr), after: 5, err: wantErr}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	_, err := Run(context.Background(), src, policy.NoUnloading{})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestRunEmptySource(t *testing.T) {
	empty := trace.NewTraceSource(&trace.Trace{Duration: time.Hour})
	res, err := Run(context.Background(), empty, policy.NoUnloading{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 0 || res.HorizonSeconds != 3600 {
		t.Fatalf("empty run: %+v", res)
	}
}

// TestCollectorOutOfOrder pins index-addressed growth.
func TestCollectorOutOfOrder(t *testing.T) {
	var c collector
	c.Consume(2, AppResult{AppID: "c"})
	c.Consume(0, AppResult{AppID: "a"})
	c.Consume(1, AppResult{AppID: "b"})
	res := c.res
	if len(res.Apps) != 3 {
		t.Fatalf("collector: %+v", res)
	}
	for i, want := range []string{"a", "b", "c"} {
		if res.Apps[i].AppID != want {
			t.Fatalf("apps[%d] = %s, want %s", i, res.Apps[i].AppID, want)
		}
	}
}

// TestRunPartiallyConsumedTraceSource pins that Run starts wherever
// the source stands: apps already taken via Next are not simulated,
// and the remainder is indexed from 0.
func TestRunPartiallyConsumedTraceSource(t *testing.T) {
	tr := runPopulation(t)
	pol := policy.FixedKeepAlive{KeepAlive: 10 * time.Minute}
	full := Simulate(tr, pol)

	src := trace.NewTraceSource(tr)
	const skip = 3
	for i := 0; i < skip; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Run(context.Background(), src, pol)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Apps) != len(full.Apps)-skip {
		t.Fatalf("simulated %d apps, want %d", len(got.Apps), len(full.Apps)-skip)
	}
	for i := range got.Apps {
		if got.Apps[i] != full.Apps[i+skip] {
			t.Fatalf("app %d differs from full-run app %d", i, i+skip)
		}
	}
	// Run consumed the source.
	if _, err := src.Next(); err == nil {
		t.Fatal("source not drained after Run")
	}
}
