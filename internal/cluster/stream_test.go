package cluster

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"repro/internal/policy"
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
	// One worker makes the peak deterministic: the sharded path then
	// holds exactly one node's walks at a time, so the measurement is
	// the contract itself rather than a scheduling-dependent snapshot
	// of how many workers happened to overlap (with W workers the
	// legitimate peak floats anywhere between 1 and W+1 nodes' worth).
	cfg := Config{Nodes: nodes, NodeMemMB: 4096, UseExecTime: true, Workers: 1, forceGlobal: global}
	e, err := runEngine(context.Background(), uniformTrace(apps),
		policy.NewHybrid(policy.DefaultHybridConfig()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if live := e.walkLive.Load(); !global && live != 0 {
		t.Fatalf("sharded run left %d walk bytes live after completion", live)
	}
	return e.walkPeak.Load()
}

// TestStreamingWalkMemory pins the streaming-precompute contract: on
// the sharded path, peak live walk memory is constant in total app
// count at fixed per-node density (walks are produced and released per
// node, O(workers × apps-per-node) live at once), while the global
// path — which must hold every walk — grows linearly. A regression
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

	// Sensitivity check: the same measurement on the global path must
	// see the O(apps) materialization, or the bound above proves
	// nothing.
	gSmall := walkPeakFor(t, 400, 400/appsPerNode, true)
	gBig := walkPeakFor(t, 1600, 1600/appsPerNode, true)
	if gBig < 3*gSmall {
		t.Errorf("global walk peak not O(apps): %d bytes at 400 apps, %d at 1600 — accounting broken?", gSmall, gBig)
	}
}

// streamShard builds a shard over synthetic walks: app i's invocation
// times are times[i] (sorted, like every walk's).
func streamShard(horizon float64, times [][]float64) (*shard, []int32) {
	e := &engine{horizon: horizon, states: make([]appState, len(times))}
	apps := make([]int32, len(times))
	for i, ts := range times {
		slices.Sort(ts)
		e.states[i].walk = &appWalk{times: ts}
		apps[i] = int32(i)
	}
	return &shard{e: e}, apps
}

// TestBuildStreamOrder pins buildStream to the comparison sort it
// replaces: element by element, its stream equals slices.SortFunc with
// cmpInv over the same invocations, including the shapes that stress
// the bucketing — one bucket holding everything, times on both ends of
// the horizon, ties within and across apps, a zero horizon, streams
// shorter than the bucket count, and streams long enough that the
// bucket cap binds.
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
		name    string
		horizon float64
		times   [][]float64
	}{
		{"random", h, gen(50, 40, func() float64 { return rng.Float64() * h })},
		{"one-instant", h, gen(30, 20, func() float64 { return h / 3 })},
		{"both-ends", h, gen(20, 10, func() float64 { return float64(rng.IntN(2)) * h })},
		{"ties", h, gen(40, 30, func() float64 { return float64(rng.IntN(8)) * h / 8 })},
		{"zero-horizon", 0, gen(20, 10, func() float64 { return float64(rng.IntN(5)) })},
		{"empty", h, [][]float64{nil, nil}},
		{"tiny", h, [][]float64{{h}, {0, h / 2}}},
		{"cap-binds", 86400, gen(100, 3000, func() float64 { return rng.Float64() * 86400 })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh, apps := streamShard(tc.horizon, tc.times)
			var want []inv
			for ai, ts := range tc.times {
				for _, x := range ts {
					want = append(want, inv{t: x, app: int32(ai)})
				}
			}
			slices.SortFunc(want, cmpInv)
			if tc.name == "cap-binds" && len(want) <= 4<<16 {
				t.Fatalf("%d invocations: the bucket cap does not bind", len(want))
			}
			sh.buildStream(apps)
			if len(sh.invs) != len(want) {
				t.Fatalf("stream has %d invocations, want %d", len(sh.invs), len(want))
			}
			for i := range want {
				if sh.invs[i] != want[i] {
					t.Fatalf("stream[%d] = %+v, want %+v", i, sh.invs[i], want[i])
				}
			}
		})
	}
}

// TestBuildStreamAllocs: a worker's next node of equal size reuses the
// stream and bucket buffers, so the steady-state build allocates
// nothing.
func TestBuildStreamAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	times := make([][]float64, 200)
	for i := range times {
		for range 50 {
			times[i] = append(times[i], rng.Float64()*7200)
		}
	}
	sh, apps := streamShard(7200, times)
	first, second := apps[:100], apps[100:] // two nodes of 5000 invocations
	sh.buildStream(first)
	node := 0
	if a := testing.AllocsPerRun(20, func() {
		if node++; node%2 == 0 {
			sh.buildStream(first)
		} else {
			sh.buildStream(second)
		}
	}); a != 0 {
		t.Errorf("buildStream allocates %v times per node in steady state, want 0", a)
	}
}
