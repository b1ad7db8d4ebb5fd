package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/trace"
)

// gatedPolicy holds the walk of one app until gate closes, so a test
// can keep a low-index app walking while everything else finishes.
type gatedPolicy struct {
	policy.Policy
	slow string
	gate <-chan struct{}
}

func (g gatedPolicy) NewApp(id string) policy.AppPolicy {
	if id == g.slow {
		<-g.gate
	}
	return g.Policy.NewApp(id)
}

// TestWalkersSharedRunsKeepOrder runs two Runs on one walker set.
// Run A's app 0 is held until run B has returned, so B completes on
// the walkers A leaves free while A's later apps finish into its
// reorder buffer. Each run's sink must still see 0, 1, 2, … and both
// outcomes must equal Simulate's.
func TestWalkersSharedRunsKeepOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	trA := &trace.Trace{Duration: 48 * time.Hour}
	for a := 0; a < 300; a++ {
		id := fmt.Sprintf("app%d", a)
		trA.Apps = append(trA.Apps, &trace.App{ID: id, Functions: []*trace.Function{{ID: id,
			Invocations: []float64{float64(a), float64(a) + 900, float64(a) + 5000}}}})
	}
	trB := runPopulation(t)
	hybrid := func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) }
	wantA, wantB := simulateAt(1, trA, hybrid()), simulateAt(1, trB, hybrid())

	w := NewWalkers()
	defer w.Close()
	gate := make(chan struct{})
	sinkA, sinkB := &orderedSink{bad: -1}, &orderedSink{bad: -1}
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errA = w.Run(context.Background(), trace.NewTraceSource(trA),
			gatedPolicy{Policy: hybrid(), slow: "app0", gate: gate}, WithSink(sinkA))
	}()
	go func() {
		defer wg.Done()
		defer close(gate)
		_, errB = w.Run(context.Background(), trace.NewTraceSource(trB), hybrid(), WithSink(sinkB))
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("runs failed: %v, %v", errA, errB)
	}
	for _, c := range []struct {
		name string
		sink *orderedSink
		want *Result
	}{{"A", sinkA, wantA}, {"B", sinkB, wantB}} {
		if c.sink.bad >= 0 {
			t.Fatalf("run %s: sink saw index %d out of order", c.name, c.sink.bad)
		}
		sameResults(t, "run "+c.name, &Result{Policy: c.want.Policy,
			HorizonSeconds: c.want.HorizonSeconds, Apps: c.sink.got}, c.want)
	}
}

// TestWalkersBuildOneScratchEach pins the scratch count: a standalone
// Run builds GOMAXPROCS scratches, and so do six concurrent Runs on
// one set (a set per run would build six times as many).
func TestWalkersBuildOneScratchEach(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tr := runPopulation(t)
	built, restore := CountScratches()
	defer restore()

	if _, err := Run(context.Background(), trace.NewTraceSource(tr), policy.NoUnloading{}); err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n != 4 {
		t.Fatalf("one Run built %d scratches, want 4", n)
	}

	built.Store(0)
	w := NewWalkers()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pol := policy.FixedKeepAlive{KeepAlive: time.Duration(i+1) * time.Minute}
			if _, err := w.Run(context.Background(), trace.NewTraceSource(tr), pol); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	w.Close()
	if n := built.Load(); n != 4 {
		t.Fatalf("six Runs on one set built %d scratches, want 4", n)
	}
}

// TestWalkersRunWaitsForItsApps pins that Run returns only after every
// app it handed out has reached its sinks, on a source error as on
// success: a sink written after Run returned would race the reads
// below under -race, and a lost app would show as a short count.
func TestWalkersRunWaitsForItsApps(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tr := runPopulation(t)
	w := NewWalkers()
	defer w.Close()
	for after := 0; after < 12; after++ {
		sink := &orderedSink{bad: -1}
		src := &failingSource{src: trace.NewTraceSource(tr), after: after, err: fmt.Errorf("fail after %d", after)}
		if _, err := w.Run(context.Background(), src, policy.NewHybrid(policy.DefaultHybridConfig()), WithSink(sink)); err == nil {
			t.Fatal("source error lost")
		}
		if len(sink.got) != after || sink.bad >= 0 {
			t.Fatalf("after %d apps: sink saw %d (first out of order %d)", after, len(sink.got), sink.bad)
		}
	}
}

// countGate closes gate once its policy has made at apps.
type countGate struct {
	policy.Policy
	made *atomic.Int64
	at   int64
	gate chan struct{}
}

func (c countGate) NewApp(id string) policy.AppPolicy {
	if c.made.Add(1) == c.at {
		close(c.gate)
	}
	return c.Policy.NewApp(id)
}

// TestWalkersRunAllMatchesRun runs four policies in one pass, exec
// time on for two of them, so walkers hold idle times for both
// settings at once. App 0 is held in its first run until every other
// app has been walked under the last run, so all later outcomes of
// every run wait in reorder buffers. Each run's sink must still see 0,
// 1, 2, … and exactly what Simulate gives its policy alone, and the
// pass must build at most two scratches per walker.
func TestWalkersRunAllMatchesRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tr := runPopulation(t)
	hybrid := func() policy.Policy { return policy.NewHybrid(policy.DefaultHybridConfig()) }
	fixed := func() policy.Policy { return policy.FixedKeepAlive{KeepAlive: 10 * time.Minute} }
	cases := []struct {
		pol  func() policy.Policy
		exec bool
	}{{hybrid, false}, {fixed, true}, {hybrid, true}, {fixed, false}}
	built, restore := CountScratches()
	defer restore()

	w := NewWalkers()
	defer w.Close()
	gate := make(chan struct{})
	runs := make([]PolicyRun, len(cases))
	sinks := make([]*orderedSink, len(cases))
	for i, c := range cases {
		pol := c.pol()
		switch i {
		case 0:
			pol = gatedPolicy{Policy: pol, slow: tr.Apps[0].ID, gate: gate}
		case len(cases) - 1:
			pol = countGate{Policy: pol, made: new(atomic.Int64), at: int64(len(tr.Apps) - 1), gate: gate}
		}
		sinks[i] = &orderedSink{bad: -1}
		runs[i] = PolicyRun{Policy: pol, Options: []Option{WithExecTime(c.exec), WithSink(sinks[i])}}
	}
	res, err := w.RunAll(context.Background(), trace.NewTraceSource(tr), runs)
	if err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n > 8 {
		t.Fatalf("a pass mixing exec-time settings built %d scratches on 4 walkers, want at most 8", n)
	}
	for i, c := range cases {
		if res[i] != nil {
			t.Errorf("run %d: result %v with a sink attached, want nil", i, res[i])
		}
		want := simulateAt(1, tr, c.pol(), WithExecTime(c.exec))
		if sinks[i].bad >= 0 {
			t.Fatalf("run %d: sink saw index %d out of order", i, sinks[i].bad)
		}
		sameResults(t, fmt.Sprintf("run %d", i), &Result{Policy: want.Policy,
			HorizonSeconds: want.HorizonSeconds, Apps: sinks[i].got}, want)
	}
}
