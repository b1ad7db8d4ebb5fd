package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// opaqueSource hides a TraceSource's Trace method, forcing Run onto
// the true streaming path.
type opaqueSource struct {
	src trace.Source
}

func (s opaqueSource) Horizon() time.Duration    { return s.src.Horizon() }
func (s opaqueSource) Next() (*trace.App, error) { return s.src.Next() }

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

// TestRunMatchesSimulate is the streaming-equals-batch property test:
// for several policies, worker counts and exec-time settings, Run over
// a streaming source and Run over a trace source both reproduce
// Simulate's results exactly, app by app.
func TestRunMatchesSimulate(t *testing.T) {
	tr := runPopulation(t)
	cases := []struct {
		name string
		pol  func() policy.Policy
		opts []Option
		opt  Options
	}{
		{"fixed", func() policy.Policy { return policy.FixedKeepAlive{KeepAlive: 10 * time.Minute} },
			nil, Options{}},
		{"nounload-4workers", func() policy.Policy { return policy.NoUnloading{} },
			[]Option{WithWorkers(4)}, Options{Workers: 4}},
		{"hybrid", func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) },
			nil, Options{}},
		{"hybrid-exectime-3workers", func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) },
			[]Option{WithExecTime(true), WithWorkers(3)}, Options{UseExecTime: true, Workers: 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := Simulate(tr, c.pol(), c.opt)

			batch, err := Run(context.Background(), trace.NewTraceSource(tr), c.pol(), c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "batch-source", batch, want)

			stream, err := Run(context.Background(), opaqueSource{trace.NewTraceSource(tr)}, c.pol(), c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "stream-source", stream, want)
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
	want := Simulate(tr, pol, Options{})

	for _, streaming := range []bool{false, true} {
		var src trace.Source = trace.NewTraceSource(tr)
		if streaming {
			src = opaqueSource{src}
		}
		sink := &recordingSink{seen: map[int]AppResult{}}
		res, err := Run(context.Background(), src, pol, WithSink(sink), WithWorkers(4))
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
				t.Fatalf("streaming=%v: app %d differs", streaming, i)
			}
		}
	}
}

func TestRunCancellation(t *testing.T) {
	tr := runPopulation(t)
	pol := policy.NewHybrid(policy.DefaultHybridConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, streaming := range []bool{false, true} {
		var src trace.Source = trace.NewTraceSource(tr)
		if streaming {
			src = opaqueSource{src}
		}
		res, err := Run(ctx, src, pol, WithWorkers(2))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("streaming=%v: err = %v, want context.Canceled", streaming, err)
		}
		if res != nil {
			t.Fatalf("streaming=%v: canceled run returned a result", streaming)
		}
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
	_, err := Run(context.Background(), src, policy.NoUnloading{}, WithWorkers(3))
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestRunEmptySource(t *testing.T) {
	empty := trace.NewTraceSource(&trace.Trace{Duration: time.Hour})
	res, err := Run(context.Background(), opaqueSource{empty}, policy.NoUnloading{})
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

// TestRunPartiallyConsumedTraceSource pins that the batch fast path
// honors apps already taken via Next: only the remainder simulates,
// matching what any streaming source would yield.
func TestRunPartiallyConsumedTraceSource(t *testing.T) {
	tr := runPopulation(t)
	pol := policy.FixedKeepAlive{KeepAlive: 10 * time.Minute}
	full := Simulate(tr, pol, Options{})

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
	// The batch path consumed the source.
	if _, err := src.Next(); err == nil {
		t.Fatal("source not drained after batch Run")
	}
}
