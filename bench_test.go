package wild

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arima"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/forecast"
	"repro/internal/ithist"
	"repro/internal/policy"
	"repro/internal/prodimpl"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The benchmarks below regenerate each of the paper's tables and
// figures (one benchmark per table/figure, per the reproduction
// harness contract), plus micro-benchmarks of the policy's hot paths
// (the §5.3 overhead study).

var (
	benchOnce sync.Once
	benchPop  *workload.Population
)

// benchPopulation lazily generates the shared benchmark workload:
// 300 apps over 3 days, bounded event counts.
func benchPopulation(b *testing.B) *workload.Population {
	b.Helper()
	benchOnce.Do(func() {
		pop, err := workload.Generate(workload.Config{
			Seed: 2024, NumApps: 300, Duration: 3 * 24 * time.Hour,
			MaxDailyRate: 1000, MaxEventsPerFunction: 8000,
		})
		if err != nil {
			panic(err)
		}
		benchPop = pop
	})
	return benchPop
}

func benchFigure(b *testing.B, fn func() *experiments.Figure) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig := fn()
		if fig == nil || fig.ID == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure1(pop) })
}

func BenchmarkFigure2(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure2(pop) })
}

func BenchmarkFigure3(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure3(pop) })
}

func BenchmarkFigure4(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure4(pop) })
}

func BenchmarkFigure5(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure5(pop) })
}

func BenchmarkFigure6(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure6(pop) })
}

func BenchmarkFigure7(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure7(pop) })
}

func BenchmarkFigure8(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure8(pop) })
}

func BenchmarkFigure14(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure14(pop.Trace, 0) })
}

func BenchmarkFigure15(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure15(pop.Trace, 0) })
}

func BenchmarkFigure16(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure16(pop.Trace, 0) })
}

func BenchmarkFigure17(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure17(pop.Trace, 0) })
}

func BenchmarkFigure18(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure18(pop.Trace, 0) })
}

func BenchmarkFigure19(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure19(pop.Trace, 0) })
}

// BenchmarkFigure20 replays a scaled trace through the in-process
// platform (the §5.3 experiment). It runs in scaled real time, so the
// workload is kept small.
func BenchmarkFigure20(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure20(context.Background(), pop.Trace, experiments.PlatformConfig{
			Apps: 12, Window: 30 * time.Minute, Scale: 7200, Invokers: 4, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if fig.ID == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkPolicyOverhead measures one hybrid policy decision — the
// per-invocation cost the paper reports as 835.7µs in OpenWhisk's
// Scala controller (§5.3).
func BenchmarkPolicyOverhead(b *testing.B) {
	p := policy.NewHybrid(policy.DefaultHybridConfig())
	ap := p.NewApp("bench")
	r := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idle := time.Duration(r.Float64() * float64(30*time.Minute))
		ap.NextWindows(idle, i == 0)
	}
}

// BenchmarkHistogramObserve measures the O(1) idle-time histogram
// update (challenge #5 of §4.1).
func BenchmarkHistogramObserve(b *testing.B) {
	h := ithist.New(ithist.DefaultConfig())
	r := stats.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(r.Float64() * float64(4*time.Hour)))
	}
}

// BenchmarkHistogramWindows measures window computation.
func BenchmarkHistogramWindows(b *testing.B) {
	h := ithist.New(ithist.DefaultConfig())
	r := stats.NewRNG(3)
	for i := 0; i < 10000; i++ {
		h.Observe(time.Duration(r.Float64() * float64(time.Hour)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := h.Windows(); !ok {
			b.Fatal("no windows")
		}
	}
}

// BenchmarkARIMAFit measures the model build the paper reports at
// ~26.9ms initial / 5.3ms subsequent in pmdarima (§5.3).
func BenchmarkARIMAFit(b *testing.B) {
	r := stats.NewRNG(4)
	series := make([]float64, 50)
	for i := range series {
		series[i] = 300 + 20*r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arima.Fit(series, arima.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorFixed measures simulator throughput with the
// fixed keep-alive policy over the benchmark population.
func BenchmarkSimulatorFixed(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.Simulate(pop.Trace, policy.FixedKeepAlive{KeepAlive: 10 * time.Minute}, sim.Options{})
		if res.TotalInvocations() == 0 {
			b.Fatal("empty simulation")
		}
	}
}

// BenchmarkSimulatorHybrid measures simulator throughput with the
// hybrid policy.
func BenchmarkSimulatorHybrid(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.Simulate(pop.Trace, policy.NewHybrid(policy.DefaultHybridConfig()), sim.Options{})
		if res.TotalInvocations() == 0 {
			b.Fatal("empty simulation")
		}
	}
}

// BenchmarkSimulatorHybridRefit is BenchmarkSimulatorHybrid with the
// opt-in 1-minute amortized ARIMA refit: the ratio of the two is the
// speedup BENCH_*.json's refit section records.
func BenchmarkSimulatorHybridRefit(b *testing.B) {
	pop := benchPopulation(b)
	pol := policy.MustFromSpec("hybrid?exact=off&refit=1m")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.Simulate(pop.Trace, pol, sim.Options{})
		if res.TotalInvocations() == 0 {
			b.Fatal("empty simulation")
		}
	}
}

// BenchmarkClusterHybrid measures the finite-memory cluster timeline
// with the hybrid policy under real eviction pressure (8 nodes, 4 GB
// each): kernel precompute + global event ordering + pressure
// bookkeeping on top of the batch walk BenchmarkSimulatorHybrid
// measures.
func BenchmarkClusterHybrid(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cluster.Simulate(pop.Trace, policy.NewHybrid(policy.DefaultHybridConfig()),
			cluster.Config{Nodes: 8, NodeMemMB: 4096})
		if res.TotalInvocations() == 0 {
			b.Fatal("empty simulation")
		}
	}
}

// BenchmarkClusterFinite measures the per-node engine under heavy
// memory pressure (8 nodes, 1 GB each — well under the workload's
// warm-set footprint), where the victim index does real work: loads
// contend constantly and eviction churn dominates the timeline.
func BenchmarkClusterFinite(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cluster.Simulate(pop.Trace, policy.NewHybrid(policy.DefaultHybridConfig()),
			cluster.Config{Nodes: 8, NodeMemMB: 1024})
		if res.TotalEvictions() == 0 {
			b.Fatal("no eviction pressure")
		}
	}
}

// BenchmarkClusterInfinite isolates the timeline's overhead against
// the batch walk: no pressure, identical results to Simulate.
func BenchmarkClusterInfinite(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := cluster.Simulate(pop.Trace, policy.NewHybrid(policy.DefaultHybridConfig()),
			cluster.Config{Nodes: 1})
		if res.TotalInvocations() == 0 {
			b.Fatal("empty simulation")
		}
	}
}

// BenchmarkServeDecide measures one decision through the serving
// control plane in steady state — the policy's NextWindows plus the
// sharded-lookup and bookkeeping overhead internal/serve adds. The
// delta against BenchmarkPolicyOverhead is the serving tax; it must
// stay allocation-free (pinned by the serve package's alloc test).
func BenchmarkServeDecide(b *testing.B) {
	ctrl := serve.NewController(policy.NewHybrid(policy.DefaultHybridConfig()), serve.Config{})
	defer ctrl.Release()
	r := stats.NewRNG(9)
	vt := time.Unix(0, 0).UTC()
	for i := 0; i <= policy.DefaultHybridConfig().ARIMAMaxSeries+16; i++ {
		vt = vt.Add(time.Duration(r.Float64() * float64(30*time.Minute)))
		ctrl.Decide("bench", vt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vt = vt.Add(17 * time.Minute)
		ctrl.Decide("bench", vt)
	}
}

// BenchmarkServeDecideParallel measures decision throughput with many
// goroutines over disjoint apps — the shard-contention picture the
// soak harness reports percentiles for.
func BenchmarkServeDecideParallel(b *testing.B) {
	ctrl := serve.NewController(policy.NewHybrid(policy.DefaultHybridConfig()), serve.Config{})
	defer ctrl.Release()
	var worker atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		w := worker.Add(1)
		app := fmt.Sprintf("bench%03d", w)
		r := stats.NewRNG(uint64(w))
		vt := time.Unix(0, 0).UTC()
		for pb.Next() {
			vt = vt.Add(time.Duration(r.ExpFloat64() * float64(2*time.Minute)))
			ctrl.Decide(app, vt)
		}
	})
}

// BenchmarkWorkloadGeneration measures trace synthesis.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pop, err := workload.Generate(workload.Config{
			Seed: uint64(i), NumApps: 100, Duration: 24 * time.Hour,
			MaxDailyRate: 500, MaxEventsPerFunction: 2000,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = pop
	}
}

// BenchmarkTraceCSVRoundTrip measures the dataset codec.
func BenchmarkTraceCSVRoundTrip(b *testing.B) {
	pop, err := workload.Generate(workload.Config{
		Seed: 5, NumApps: 50, Duration: 2 * time.Hour,
		MaxDailyRate: 500, MaxEventsPerFunction: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, pw := io.Pipe()
		go func() {
			_ = WriteInvocationsCSV(pw, pop.Trace)
			pw.Close()
		}()
		if _, err := ReadInvocationsCSV(pr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure12 regenerates the IT-distribution gallery.
func BenchmarkFigure12(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.Figure12(pop) })
}

// BenchmarkForecasterAblation regenerates the forecaster comparison.
func BenchmarkForecasterAblation(b *testing.B) {
	pop := benchPopulation(b)
	b.ResetTimer()
	benchFigure(b, func() *experiments.Figure { return experiments.ForecasterAblation(pop.Trace, 0) })
}

// BenchmarkExpSmoothingFit measures the cheap forecaster alternative.
func BenchmarkExpSmoothingFit(b *testing.B) {
	r := stats.NewRNG(6)
	series := make([]float64, 50)
	for i := range series {
		series[i] = 300 + 20*r.NormFloat64()
	}
	fc := forecast.ExpSmoothing{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := fc.PredictNext(series); !ok {
			b.Fatal("no prediction")
		}
	}
}

// BenchmarkProdObserve measures the production manager's per-IT cost
// (in-memory histogram update with daily rotation bookkeeping, §6).
func BenchmarkProdObserve(b *testing.B) {
	m := prodimpl.NewManager(prodimpl.DefaultConfig(), prodimpl.NewMemStore())
	r := stats.NewRNG(7)
	now := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe("app", time.Duration(r.Float64()*float64(time.Hour)), now)
	}
}

// BenchmarkProdBackup measures the hourly backup of 100 apps.
func BenchmarkProdBackup(b *testing.B) {
	m := prodimpl.NewManager(prodimpl.DefaultConfig(), prodimpl.NewMemStore())
	r := stats.NewRNG(8)
	now := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	for a := 0; a < 100; a++ {
		app := string(rune('a'+a/26)) + string(rune('a'+a%26))
		for i := 0; i < 50; i++ {
			m.Observe(app, time.Duration(r.Float64()*float64(time.Hour)), now)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Backup(); err != nil {
			b.Fatal(err)
		}
	}
}
