package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sim/kernel"
	"repro/internal/trace"
)

// uniformTrace builds a synthetic trace of identical apps (one
// function, an invocation every 90 s over two hours), so every app's
// walk pins the same number of bytes and walk-memory peaks compare
// cleanly across app counts.
func uniformTrace(apps int) *trace.Trace {
	tr := &trace.Trace{Duration: 2 * time.Hour}
	horizon := tr.Duration.Seconds()
	for a := 0; a < apps; a++ {
		var times []float64
		for t := 0.0; t < horizon; t += 90 {
			times = append(times, t)
		}
		fn := &trace.Function{
			ID:          fmt.Sprintf("f%06d", a),
			Trigger:     trace.TriggerHTTP,
			Invocations: times,
			ExecStats:   trace.ExecStats{AvgSeconds: 1.5, Count: 1},
		}
		tr.Apps = append(tr.Apps, &trace.App{
			ID: fmt.Sprintf("a%06d", a), Owner: "o", MemoryMB: 128,
			Functions: []*trace.Function{fn},
		})
	}
	return tr
}

// walkPeakFor runs the engine and reports the peak bytes of live
// decision walks.
func walkPeakFor(t *testing.T, apps, nodes int, global bool) int64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// One worker makes the peak deterministic: a sharded run then
	// holds exactly one node's walks at a time, so the measurement is
	// the contract itself rather than a scheduling-dependent snapshot
	// of how many workers happened to overlap (with W workers the
	// legitimate peak floats anywhere between 1 and W+1 nodes' worth).
	cfg := Config{Nodes: nodes, NodeMemMB: 4096, UseExecTime: true, forceGlobal: global}
	e, err := runEngine(context.Background(), uniformTrace(apps),
		policy.NewHybrid(policy.DefaultHybridConfig()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if live := e.walkLive.Load(); live != 0 {
		t.Fatalf("global=%v: run left %d walk bytes live after completion", global, live)
	}
	return e.walkPeak.Load()
}

// TestStreamingWalkMemory pins the streaming-precompute contract: in a
// sharded run, peak live walk memory is constant in total app count at
// fixed per-node density (walks are produced and released per node,
// O(workers × apps-per-node) live at once), while a one-part run —
// which must hold every walk until its timeline ends — grows linearly.
// Either way every walk is released by the end of the run. A regression
// that re-materializes all walks up front turns the 4× run's peak into
// ~4× the 1× run's and fails the bound.
func TestStreamingWalkMemory(t *testing.T) {
	const appsPerNode = 50
	small := walkPeakFor(t, 400, 400/appsPerNode, false)
	big := walkPeakFor(t, 1600, 1600/appsPerNode, false)
	if small == 0 || big == 0 {
		t.Fatal("walk accounting recorded no bytes; the test is vacuous")
	}
	// With one worker the peak is exactly the fullest node's walks —
	// constant in total app count up to hash-placement skew (measured:
	// 51 vs 54 apps on the fullest node here). 2x headroom covers any
	// plausible skew; a re-materialize-everything regression shows up
	// as the full 4x.
	if big > 2*small {
		t.Errorf("sharded walk peak grew with app count: %d bytes at 400 apps, %d at 1600 (want <= 2x: one node's walks live at a time)", small, big)
	}

	// Sensitivity check: the same measurement on a one-part run must
	// see the O(apps) materialization, or the bound above proves
	// nothing.
	gSmall := walkPeakFor(t, 400, 400/appsPerNode, true)
	gBig := walkPeakFor(t, 1600, 1600/appsPerNode, true)
	if gBig < 3*gSmall {
		t.Errorf("global walk peak not O(apps): %d bytes at 400 apps, %d at 1600 — accounting broken?", gSmall, gBig)
	}
}

// streamEngine builds an engine over synthetic walks: app i's walk is
// walks[i], whose times are sorted like every walk's.
func streamEngine(horizon float64, walks []appWalk) (*engine, []int32) {
	e := &engine{horizon: horizon, states: make([]appState, len(walks))}
	apps := make([]int32, len(walks))
	for i := range walks {
		slices.Sort(walks[i].times)
		e.states[i].walk = &walks[i]
		apps[i] = int32(i)
	}
	return e, apps
}

// refEntry is one entry of the reference stream, tagged with the
// window (invocation index) it belongs to.
type refEntry struct {
	sev
	window int
}

// refStream is the brute-force reference for the stream builder: every
// invocation plus, per window, the unloads and the reload the timeline
// once pushed onto an event heap from schedule and reload — stepped
// with the timeline's own RunCursor, kept when they can fire (before
// the horizon and the app's next arrival, strictly for unloads; a
// reload also strictly after its invocation) — all sorted by cmpSev.
func refStream(e *engine, apps []int32) []refEntry {
	var out []refEntry
	for _, ai := range apps {
		w := e.states[ai].walk
		var cur kernel.RunCursor
		var modes [policy.NumModes]int
		cur.Reset(w.runs)
		for i, t := range w.times {
			cur.Step(&modes)
			out = append(out, refEntry{sev{t: t, app: ai, kind: evInvoke}, i})
			next := math.Inf(1)
			if i+1 < len(w.times) {
				next = w.times[i+1]
			}
			end := t + w.exec
			if w.execs != nil {
				end = t + w.execs[i]
			}
			unload := func(at float64) {
				if at < e.horizon && at < next {
					out = append(out, refEntry{sev{t: at, app: ai, kind: evUnload}, i})
				}
			}
			switch {
			case cur.D.Forever:
			case cur.D.PreWarm == 0:
				unload(end + cur.KaSec)
			default:
				if end > t {
					unload(end)
				}
				if load := end + cur.PwSec; load > t && load < e.horizon && load <= next {
					out = append(out, refEntry{sev{t: load, app: ai, kind: evReload}, i})
					unload(load + cur.KaSec)
				}
			}
		}
	}
	slices.SortStableFunc(out, func(a, b refEntry) int { return cmpSev(a.sev, b.sev) })
	return out
}

// buildEpochs builds the apps' stream in epochs ending at each of cuts
// (ascending) and a last one at +Inf, checks that every epoch holds
// only entries inside its own [lo, hi), and returns the epochs'
// concatenation.
func buildEpochs(t *testing.T, e *engine, apps []int32, cuts []float64) []sev {
	t.Helper()
	var b streamBuilder
	b.reset(e, apps)
	var all, buf []sev
	lo := math.Inf(-1)
	for _, hi := range append(slices.Clone(cuts), math.Inf(1)) {
		buf = b.epoch(buf, hi)
		for _, en := range buf {
			if en.t < lo || en.t >= hi {
				t.Fatalf("epoch [%v, %v) holds %+v", lo, hi, en)
			}
		}
		all = append(all, buf...)
		lo = hi
	}
	return all
}

// checkStream builds the apps' stream — at the builder's own epoch
// partition, and in epochs ending at each of cuts — and compares both
// with the reference entry by entry, then checks that every derived
// event sorts strictly inside its own window: after the invocation
// opening it and before the app's next arrival.
func checkStream(t *testing.T, e *engine, apps []int32, cuts []float64) []refEntry {
	t.Helper()
	want := refStream(e, apps)
	var b streamBuilder
	b.reset(e, apps)
	own := make([]float64, b.epochs-1)
	for k := range own {
		own[k] = b.until(k)
	}
	for _, c := range [][]float64{own, cuts} {
		got := buildEpochs(t, e, apps, c)
		if len(got) != len(want) {
			t.Fatalf("cuts %v: stream has %d entries, want %d", c, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].sev {
				t.Fatalf("cuts %v: stream[%d] = %+v, want %+v", c, i, got[i], want[i].sev)
			}
		}
	}
	for _, r := range want {
		if r.kind == evInvoke {
			continue
		}
		times := e.states[r.app].walk.times
		opens := sev{t: times[r.window], app: r.app, kind: evInvoke}
		if cmpSev(opens, r.sev) >= 0 {
			t.Fatalf("%+v sorts before the invocation opening window %d (%+v)", r.sev, r.window, opens)
		}
		if r.window+1 < len(times) {
			if next := (sev{t: times[r.window+1], app: r.app, kind: evInvoke}); cmpSev(r.sev, next) >= 0 {
				t.Fatalf("%+v of window %d sorts at or after the next arrival (%+v)", r.sev, r.window, next)
			}
		}
	}
	return want
}

// epochCuts picks k-1 epoch boundaries, sorted, each where the cursor
// logic has an edge: a lattice point (a multiple of unit, where
// arrivals and derived events collide), an invocation inside a
// decision run, or a run's end — its last invocation, or the next
// run's first. pick draws the choices.
func epochCuts(walks []appWalk, unit, horizon float64, k int, pick func() int) []float64 {
	var cuts []float64
	for range k - 1 {
		w := &walks[pick()%len(walks)]
		c := pick() % 3
		if c == 0 || len(w.times) == 0 {
			cuts = append(cuts, unit*float64(pick()%(int(horizon/unit)+2)))
			continue
		}
		r := pick() % len(w.runs)
		first := 0
		for _, run := range w.runs[:r] {
			first += int(run.N)
		}
		i := first + int(w.runs[r].N) - 1 // the run's end
		if c == 1 {
			i = first + pick()%int(w.runs[r].N) // inside the run
		} else if pick()%2 == 0 && i+1 < len(w.times) {
			i++ // the next run's first
		}
		cuts = append(cuts, w.times[i])
	}
	slices.Sort(cuts)
	return cuts
}

// withRuns gives each app a decision-run sequence over its invocations
// mixing forever, keep-alive and pre-warm windows, and exec times that
// are absent, one shared value, or per invocation. Window and exec
// lengths are multiples of unit, so on a lattice of unit-spaced
// arrivals derived events share instants with arrivals.
func withRuns(rng *rand.Rand, unit float64, times [][]float64) []appWalk {
	dur := func(k int) time.Duration { return time.Duration(float64(k) * unit * float64(time.Second)) }
	walks := make([]appWalk, len(times))
	for i, ts := range times {
		w := &walks[i]
		w.times = ts
		switch rng.IntN(3) {
		case 1:
			w.exec = float64(rng.IntN(3)) * unit / 2
		case 2:
			w.execs = make([]float64, len(ts))
			for j := range w.execs {
				w.execs[j] = float64(rng.IntN(3)) * unit / 2
			}
		}
		for left := len(ts); left > 0; {
			n := 1 + rng.IntN(left)
			left -= n
			var d policy.Decision
			switch rng.IntN(5) {
			case 0:
				d.Forever = true
			case 1, 2:
				d.KeepAlive = dur(rng.IntN(4))
			default:
				d.PreWarm = max(dur(1+rng.IntN(3)), 1)
				d.KeepAlive = dur(rng.IntN(4))
			}
			w.runs = append(w.runs, policy.DecisionRun{D: d, N: int32(n)})
		}
	}
	return walks
}

// TestBuildStreamOrder pins the stream builder to the brute-force
// reference: element by element, its stream equals every invocation
// plus every derived reload and unload sorted with cmpSev, and every
// derived event falls inside its own window — built whole, and split
// into k epochs whose boundaries land on lattice points, inside
// decision runs and exactly at runs' ends. The shapes stress the
// bucketing — one bucket holding everything, times on both ends of the
// horizon, ties within and across apps (and between reloads, unloads
// and arrivals), a zero horizon, streams shorter than the bucket count
// — and one stream long enough that the builder's own partition has
// several epochs.
func TestBuildStreamOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	// gen draws per-app invocation times from draw.
	gen := func(apps, perApp int, draw func() float64) [][]float64 {
		times := make([][]float64, apps)
		for i := range times {
			n := rng.IntN(2*perApp + 1)
			for range n {
				times[i] = append(times[i], draw())
			}
		}
		return times
	}
	const h = 3600.0
	for _, tc := range []struct {
		name          string
		horizon, unit float64
		k             int // epochs in the cut build
		times         [][]float64
	}{
		{"random", h, 97, 7, gen(50, 40, func() float64 { return rng.Float64() * h })},
		{"one-instant", h, h / 6, 3, gen(30, 20, func() float64 { return h / 3 })},
		{"both-ends", h, h / 4, 4, gen(20, 10, func() float64 { return float64(rng.IntN(2)) * h })},
		{"ties", h, h / 8, 9, gen(40, 30, func() float64 { return float64(rng.IntN(8)) * h / 8 })},
		{"zero-horizon", 0, 1, 3, gen(20, 10, func() float64 { return float64(rng.IntN(5)) })},
		{"empty", h, 60, 2, [][]float64{nil, nil}},
		{"tiny", h, h / 2, 2, [][]float64{{h}, {0, h / 2}}},
		{"many-epochs", 86400, 600, 64, gen(100, 3000, func() float64 { return rng.Float64() * 86400 })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			walks := withRuns(rng, tc.unit, tc.times)
			e, apps := streamEngine(tc.horizon, walks)
			cuts := epochCuts(walks, tc.unit, tc.horizon, tc.k, func() int { return rng.IntN(1 << 20) })
			want := checkStream(t, e, apps, cuts)
			invs, events := 0, 0
			for _, r := range want {
				if r.kind == evInvoke {
					invs++
				} else {
					events++
				}
			}
			if tc.name == "many-epochs" {
				var b streamBuilder
				if b.reset(e, apps); b.epochs < 2 {
					t.Fatalf("%d invocations: the builder's own partition is one epoch", invs)
				}
			}
			if tc.horizon > 0 && invs > 20 && events == 0 {
				// A zero horizon is the one shape where nothing can fire.
				t.Fatalf("%d invocations derived no events: the fixture is vacuous", invs)
			}
		})
	}
}

// TestBuildStreamAllocs: a worker's next node of equal size reuses the
// cursor, bucket and stream buffers, so building every epoch of a node
// allocates nothing in steady state.
func TestBuildStreamAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	times := make([][]float64, 200)
	for i := range times {
		for range 50 {
			times[i] = append(times[i], rng.Float64()*7200)
		}
	}
	e, apps := streamEngine(7200, withRuns(rng, 120, times))
	e.cfg.epochs = 5
	first, second := apps[:100], apps[100:] // two nodes of 5000 invocations
	var b streamBuilder
	var stream []sev
	build := func(apps []int32) {
		b.reset(e, apps)
		for k := 0; k < b.epochs; k++ {
			stream = b.epoch(stream, b.until(k))
		}
	}
	build(first)
	build(second)
	node := 0
	if a := testing.AllocsPerRun(20, func() {
		if node++; node%2 == 0 {
			build(first)
		} else {
			build(second)
		}
	}); a != 0 {
		t.Errorf("the stream builder allocates %v times per node of %d epochs in steady state, want 0", a, b.epochs)
	}
}
