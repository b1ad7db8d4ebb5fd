package serve_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/stats"
)

// epoch anchors the synthetic timelines (any fixed instant works).
var epoch = time.Unix(0, 0).UTC()

// walkApp replays one app's arrival/completion stream against a fresh
// AppPolicy with the controller's idle-time rule (gap since the last
// execution end, provisionally the last arrival), producing the
// reference decision sequence.
type walkApp struct {
	pol     policy.AppPolicy
	seen    bool
	lastEnd time.Time
}

func (w *walkApp) decide(at time.Time) policy.Decision {
	first := !w.seen
	var idle time.Duration
	if !first {
		if idle = at.Sub(w.lastEnd); idle < 0 {
			idle = 0
		}
	}
	w.seen = true
	w.lastEnd = at
	return w.pol.NextWindows(idle, first)
}

func (w *walkApp) complete(end time.Time) {
	if end.After(w.lastEnd) {
		w.lastEnd = end
	}
}

// arrival is one scripted event: an invocation of app at time At,
// optionally followed by a completion Exec later.
type arrival struct {
	app  int
	at   time.Time
	exec time.Duration // 0 = no CompleteExec call
}

// script builds a deterministic multi-app arrival sequence:
// exponential inter-arrival gaps per app, a random third of the
// invocations reporting an execution end.
func script(seed uint64, apps, events int) []arrival {
	r := stats.NewRNG(seed)
	clocks := make([]time.Time, apps)
	for i := range clocks {
		clocks[i] = epoch
	}
	seq := make([]arrival, 0, events)
	for len(seq) < events {
		a := r.Intn(apps)
		gap := time.Duration(r.ExpFloat64() * float64(20*time.Minute))
		clocks[a] = clocks[a].Add(gap)
		ev := arrival{app: a, at: clocks[a]}
		if r.Intn(3) == 0 {
			ev.exec = time.Duration(r.Float64() * float64(30*time.Second))
			clocks[a] = clocks[a].Add(ev.exec)
		}
		seq = append(seq, ev)
	}
	return seq
}

// TestControllerMatchesPolicyWalk pins the controller's observable
// behavior to the policy contract: for any interleaved multi-app
// arrival stream, every Decide returns exactly what a fresh per-app
// NextWindows walk with the same idle-time bookkeeping would return —
// across policy families (histogram, fixed, no-unload).
func TestControllerMatchesPolicyWalk(t *testing.T) {
	pols := map[string]func() policy.Policy{
		"hybrid": func() policy.Policy { return mustPolicy(t, "hybrid") },
		"hybrid-tight": func() policy.Policy {
			return mustPolicy(t, "hybrid?cv=2&range=4h")
		},
		"fixed":    func() policy.Policy { return mustPolicy(t, "fixed?ka=10m") },
		"nounload": func() policy.Policy { return mustPolicy(t, "nounload") },
	}
	for name, mk := range pols {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				ctrl := serve.NewController(mk(), serve.Config{Shards: 4})
				ref := mk()
				walks := map[int]*walkApp{}
				for i, ev := range script(seed, 7, 400) {
					id := fmt.Sprintf("app%02d", ev.app)
					w := walks[ev.app]
					if w == nil {
						w = &walkApp{pol: ref.NewApp(id)}
						walks[ev.app] = w
					}
					got := ctrl.Decide(id, ev.at)
					want := w.decide(ev.at)
					if got != want {
						t.Fatalf("seed %d event %d (%s@%v): controller %+v, walk %+v",
							seed, i, id, ev.at, got, want)
					}
					if ev.exec > 0 {
						end := ev.at.Add(ev.exec)
						ctrl.CompleteExec(id, end)
						w.complete(end)
					}
				}
				if got, want := ctrl.Apps(), len(walks); got != want {
					t.Fatalf("seed %d: Apps() = %d, want %d", seed, got, want)
				}
				ctrl.Release()
			}
		})
	}
}

func mustPolicy(t *testing.T, spec string) policy.Policy {
	t.Helper()
	p, err := policy.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDecideConcurrentDeterministic drives each app's arrival sequence
// from its own goroutine (apps partitioned, the serving invariant) and
// checks every recorded decision stream against the single-threaded
// reference walk. Run under -race this is the controller's concurrency
// proof obligation: per-app sequences stay serialized and uncorrupted
// while unrelated apps proceed in parallel.
func TestDecideConcurrentDeterministic(t *testing.T) {
	const apps, events = 16, 300
	ctrl := serve.NewController(mustPolicy(t, "hybrid"), serve.Config{Shards: 4})
	defer ctrl.Release()

	// Per-app timelines from disjoint RNGs.
	times := make([][]time.Time, apps)
	for a := 0; a < apps; a++ {
		r := stats.NewRNG(100 + uint64(a))
		vt := epoch
		for i := 0; i < events; i++ {
			vt = vt.Add(time.Duration(r.ExpFloat64() * float64(15*time.Minute)))
			times[a] = append(times[a], vt)
		}
	}

	got := make([][]policy.Decision, apps)
	var wg sync.WaitGroup
	for a := 0; a < apps; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			id := fmt.Sprintf("app%02d", a)
			for _, at := range times[a] {
				got[a] = append(got[a], ctrl.Decide(id, at))
			}
		}(a)
	}
	wg.Wait()

	ref := mustPolicy(t, "hybrid")
	for a := 0; a < apps; a++ {
		w := &walkApp{pol: ref.NewApp(fmt.Sprintf("app%02d", a))}
		for i, at := range times[a] {
			if want := w.decide(at); got[a][i] != want {
				t.Fatalf("app %d decision %d: concurrent %+v, reference %+v", a, i, got[a][i], want)
			}
		}
	}
	if n := ctrl.Decisions(); n != apps*events {
		t.Fatalf("Decisions() = %d, want %d", n, apps*events)
	}
}

// TestDecideSteadyStateAllocs pins the serving path's per-decision
// cost to zero allocations once an app is warm — the acceptance
// criterion inherited from the policy's own budget (§5.3: a decision
// runs on every invocation of every app). The warmup recipe mirrors
// internal/policy's alloc test: past the ARIMA ring capacity with
// in-bounds idle times, so the histogram regime is active.
func TestDecideSteadyStateAllocs(t *testing.T) {
	ctrl := serve.NewController(policy.NewHybrid(policy.DefaultHybridConfig()), serve.Config{})
	defer ctrl.Release()
	r := stats.NewRNG(3)
	vt := epoch
	for i := 0; i <= policy.ARIMAMaxSeries+16; i++ {
		vt = vt.Add(time.Duration(r.Float64() * float64(30*time.Minute)))
		ctrl.Decide("app", vt)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		vt = vt.Add(17 * time.Minute)
		ctrl.Decide("app", vt)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decide allocs/op = %v, want 0", allocs)
	}
}

// probePolicy records what the controller feeds it, for pinning the
// idle-time bookkeeping itself.
type probePolicy struct {
	mu    sync.Mutex
	idles []time.Duration
	first []bool
}

func (p *probePolicy) Name() string                   { return "probe" }
func (p *probePolicy) NewApp(string) policy.AppPolicy { return (*probeApp)(p) }

type probeApp probePolicy

func (a *probeApp) NextWindows(idle time.Duration, first bool) policy.Decision {
	a.mu.Lock()
	a.idles = append(a.idles, idle)
	a.first = append(a.first, first)
	a.mu.Unlock()
	return policy.Decision{KeepAlive: time.Minute}
}

// TestCompleteExecIdleSemantics pins the idle-time rule end to end:
// without a completion the next idle is the arrival gap (zero-exec
// semantics); with one it is the gap since the execution end;
// out-of-order completions never move the mark backward; clock skew
// clamps at zero.
func TestCompleteExecIdleSemantics(t *testing.T) {
	probe := &probePolicy{}
	ctrl := serve.NewController(probe, serve.Config{})

	t0 := epoch
	ctrl.Decide("a", t0)                    // first: idle ignored
	ctrl.Decide("a", t0.Add(2*time.Minute)) // arrival gap: 2m
	ctrl.CompleteExec("a", t0.Add(2*time.Minute+30*time.Second))
	ctrl.Decide("a", t0.Add(4*time.Minute))                // since exec end: 1m30s
	ctrl.CompleteExec("a", t0.Add(3*time.Minute))          // stale: ignored
	ctrl.Decide("a", t0.Add(5*time.Minute))                // since last arrival: 1m
	ctrl.Decide("a", t0.Add(4*time.Minute+30*time.Second)) // skew: clamps to 0

	wantIdle := []time.Duration{0, 2 * time.Minute, 90 * time.Second, time.Minute, 0}
	wantFirst := []bool{true, false, false, false, false}
	if len(probe.idles) != len(wantIdle) {
		t.Fatalf("observed %d decisions, want %d", len(probe.idles), len(wantIdle))
	}
	for i := range wantIdle {
		if probe.idles[i] != wantIdle[i] || probe.first[i] != wantFirst[i] {
			t.Fatalf("decision %d: idle %v first %v, want %v %v",
				i, probe.idles[i], probe.first[i], wantIdle[i], wantFirst[i])
		}
	}

	// Completions for unknown apps are a no-op, not a registration.
	ctrl.CompleteExec("ghost", t0)
	if got := ctrl.Apps(); got != 1 {
		t.Fatalf("Apps() = %d after ghost completion, want 1", got)
	}
}

// TestReleaseResetsApps checks Release drops all per-app state (the
// next arrival is first again) while keeping the controller usable,
// and that the decision counter keeps its running total.
func TestReleaseResetsApps(t *testing.T) {
	probe := &probePolicy{}
	ctrl := serve.NewController(probe, serve.Config{Shards: 2})
	for i := 0; i < 5; i++ {
		ctrl.Decide(fmt.Sprintf("app%d", i), epoch.Add(time.Duration(i)*time.Minute))
	}
	if got := ctrl.Apps(); got != 5 {
		t.Fatalf("Apps() = %d, want 5", got)
	}
	ctrl.Release()
	if got := ctrl.Apps(); got != 0 {
		t.Fatalf("Apps() after Release = %d, want 0", got)
	}
	ctrl.Decide("app0", epoch.Add(time.Hour))
	if got := probe.first[len(probe.first)-1]; !got {
		t.Fatal("first decision after Release not marked first")
	}
	if got := ctrl.Decisions(); got != 6 {
		t.Fatalf("Decisions() = %d, want 6 (counter survives Release)", got)
	}
}

// TestDecideDuringRelease races Decide against Release: pooled policy
// state must never be used after its release (the retry path), and
// every call must still return. Meaningful under -race.
func TestDecideDuringRelease(t *testing.T) {
	ctrl := serve.NewController(mustPolicy(t, "hybrid"), serve.Config{Shards: 2})
	const workers, per = 4, 2000
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("app%02d", w)
			vt := epoch
			for i := 0; i < per; i++ {
				vt = vt.Add(time.Minute)
				ctrl.Decide(id, vt)
			}
		}(w)
	}
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				ctrl.Release()
			}
		}
	}()
	wg.Wait()
	close(done)
	ctrl.Release()
	if got := ctrl.Decisions(); got != workers*per {
		t.Fatalf("Decisions() = %d, want %d", got, workers*per)
	}
}

// countPolicy hands every app its own recorder, so a test can see how
// often the controller built an app's state, which of its decisions it
// marked first, and the idle times it fed.
type countPolicy struct {
	mu   sync.Mutex
	apps map[string][]*countApp
}

func (p *countPolicy) Name() string { return "count" }

func (p *countPolicy) NewApp(app string) policy.AppPolicy {
	a := &countApp{idles: map[time.Duration]int{}}
	p.mu.Lock()
	p.apps[app] = append(p.apps[app], a)
	p.mu.Unlock()
	return a
}

type countApp struct {
	firsts int
	idles  map[time.Duration]int // non-first decisions by idle time
}

func (a *countApp) NextWindows(idle time.Duration, first bool) policy.Decision {
	if first {
		a.firsts++
	} else {
		a.idles[idle]++
	}
	return policy.Decision{KeepAlive: time.Minute}
}

// TestDecideDuringGrowth races lock-free lookups against table growth:
// four goroutines each decide their own hot app and report its
// execution end, while a fifth registers 5,000 new apps, so every
// shard's table doubles several times under live readers (with one
// shard, ten times under all four). The readers also look up the app
// being registered at that moment, so probes cross slots as they are
// filled. A reader that missed its app during a growth would register
// a duplicate (two states, two first decisions) or drop a completion
// (an idle time of a minute rather than 30 s). Meaningful under -race.
func TestDecideDuringGrowth(t *testing.T) {
	const hot, fresh = 4, 5000
	for _, shards := range []int{1, serve.DefaultShards} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pol := &countPolicy{apps: map[string][]*countApp{}}
			ctrl := serve.NewController(pol, serve.Config{Shards: shards})
			names := make([]string, fresh)
			for j := range names {
				names[j] = fmt.Sprintf("fresh-%04d", j)
			}
			var progress atomic.Int64
			var done atomic.Bool
			calls := make([]int64, hot)
			var wg sync.WaitGroup
			for g := 0; g < hot; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					id := fmt.Sprintf("hot%d", g)
					at := epoch
					for calls[g] < 100 || !done.Load() {
						at = at.Add(time.Minute)
						ctrl.Decide(id, at)
						ctrl.CompleteExec(id, at.Add(30*time.Second))
						ctrl.CompleteExec(names[progress.Load()], epoch)
						calls[g]++
					}
				}(g)
			}
			for j, name := range names {
				progress.Store(int64(j))
				ctrl.Decide(name, epoch)
			}
			done.Store(true)
			wg.Wait()

			made := int64(fresh)
			for g := 0; g < hot; g++ {
				made += calls[g]
				id := fmt.Sprintf("hot%d", g)
				states := pol.apps[id]
				if len(states) != 1 {
					t.Fatalf("%s: policy state built %d times, want once", id, len(states))
				}
				a := states[0]
				if a.firsts != 1 || len(a.idles) != 1 || a.idles[30*time.Second] != int(calls[g]-1) {
					t.Fatalf("%s: %d first decisions and idle times %v over %d calls, want 1 and all 30s",
						id, a.firsts, a.idles, calls[g])
				}
			}
			for _, name := range names {
				if states := pol.apps[name]; len(states) != 1 || states[0].firsts != 1 {
					t.Fatalf("%s: %d policy states, want 1 with one first decision", name, len(states))
				}
			}
			if got := ctrl.Apps(); got != hot+fresh {
				t.Fatalf("Apps() = %d, want %d", got, hot+fresh)
			}
			if got := ctrl.Decisions(); got != made {
				t.Fatalf("Decisions() = %d, want %d", got, made)
			}
		})
	}
}

// TestShardRounding checks shard counts round up to powers of two and
// apps land spread across shards without loss.
func TestShardRounding(t *testing.T) {
	for _, shards := range []int{0, 1, 3, 5, 32, 100} {
		ctrl := serve.NewController(mustPolicy(t, "fixed?ka=1m"), serve.Config{Shards: shards})
		for i := 0; i < 64; i++ {
			ctrl.Decide(fmt.Sprintf("app%03d", i), epoch)
		}
		if got := ctrl.Apps(); got != 64 {
			t.Fatalf("Shards=%d: Apps() = %d, want 64", shards, got)
		}
	}
}

// TestFootprintRarelyInvokedApps pins what a registered app costs while
// it is rarely invoked: 1,000 apps, nine decisions each, so at most
// eight in-bounds idle times and a histogram still in its small form.
// The bound is on all heap allocated per app, garbage included (table
// growth, the ARIMA series ring's appends). It measures 619 B on Go
// 1.24/amd64; the bound is 15% over the 674 B it measured when the app
// table was a Go map, and with the 240 bins allocated as int64 at
// registration it measured 2,834 B.
func TestFootprintRarelyInvokedApps(t *testing.T) {
	const apps, decisions = 1000, 9
	const maxBytesPerApp = 775
	names := make([]string, apps)
	for i := range names {
		names[i] = fmt.Sprintf("app-%04d", i)
	}
	c := serve.NewController(policy.NewHybrid(policy.DefaultHybridConfig()), serve.Config{})
	defer c.Release()
	// Two collections empty the policy's pool, so every app is built
	// fresh rather than reusing a dense histogram an earlier test left.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, name := range names {
		at := epoch
		for k := 0; k < decisions; k++ {
			at = at.Add(time.Duration(1+(i*7+k*13)%230) * time.Minute)
			c.Decide(name, at)
		}
	}
	runtime.ReadMemStats(&after)
	perApp := float64(after.TotalAlloc-before.TotalAlloc) / apps
	t.Logf("%.0f B allocated per app", perApp)
	if perApp > maxBytesPerApp {
		t.Fatalf("%.0f B allocated per rarely invoked app, want at most %d", perApp, maxBytesPerApp)
	}
}
