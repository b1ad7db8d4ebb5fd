package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/workload"
)

// Config parameterizes a full experiment run.
type Config struct {
	// Seed drives workload generation and sampling.
	Seed uint64
	// NumApps sizes the generated population (default 1000).
	NumApps int
	// Duration is the trace horizon (default 7 days, §5.1).
	Duration time.Duration
	// MaxDailyRate / MaxEventsPerFunction bound realized trace size.
	MaxDailyRate         float64
	MaxEventsPerFunction int
	// Workers bounds simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// SkipPlatform disables the Figure 20 platform replay.
	SkipPlatform bool
	// Platform configures Figure 20.
	Platform PlatformConfig
	// PolicySpecs adds a custom policy sweep (registry specs such as
	// "hybrid?cv=5" or "fixed?ka=30m") rendered as an extra tradeoff
	// table after the paper's figures.
	PolicySpecs []string
}

func (c Config) withDefaults() Config {
	if c.NumApps == 0 {
		c.NumApps = 1000
	}
	if c.Duration == 0 {
		c.Duration = 7 * 24 * time.Hour
	}
	if c.MaxDailyRate == 0 {
		c.MaxDailyRate = 5000
	}
	if c.MaxEventsPerFunction == 0 {
		c.MaxEventsPerFunction = 50000
	}
	return c
}

// RunAll regenerates every figure. Progress lines go to progress (may
// be nil). Cancellation via ctx is honored between figures and inside
// the platform replay; a canceled run returns ctx.Err() with no
// figures. Progress lines carry per-figure wall-clock timers; the
// figures themselves never read the clock.
func RunAll(ctx context.Context, cfg Config, progress io.Writer) ([]*Figure, error) {
	cfg = cfg.withDefaults()
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}

	logf("generating population: %d apps over %v (seed %d)", cfg.NumApps, cfg.Duration, cfg.Seed)
	pop, err := workload.Generate(workload.Config{
		Seed:                 cfg.Seed,
		NumApps:              cfg.NumApps,
		Duration:             cfg.Duration,
		MaxDailyRate:         cfg.MaxDailyRate,
		MaxEventsPerFunction: cfg.MaxEventsPerFunction,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: generating workload: %w", err)
	}
	logf("population: %d apps, %d functions, %d invocations",
		len(pop.Trace.Apps), pop.Trace.TotalFunctions(), pop.Trace.TotalInvocations())

	var figs []*Figure
	add := func(name string, fn func() *Figure) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		fig := fn()
		logf("%s done in %v", name, time.Since(start).Round(time.Millisecond))
		figs = append(figs, fig)
		return nil
	}

	steps := []struct {
		name string
		fn   func() *Figure
	}{
		{"figure-01", func() *Figure { return Figure1(pop) }},
		{"figure-02", func() *Figure { return Figure2(pop) }},
		{"figure-03", func() *Figure { return Figure3(pop) }},
		{"figure-04", func() *Figure { return Figure4(pop) }},
		{"figure-05", func() *Figure { return Figure5(pop) }},
		{"figure-06", func() *Figure { return Figure6(pop) }},
		{"figure-07", func() *Figure { return Figure7(pop) }},
		{"figure-08", func() *Figure { return Figure8(pop) }},
		{"figure-12", func() *Figure { return Figure12(pop) }},
	}
	tr := pop.Trace
	steps = append(steps, []struct {
		name string
		fn   func() *Figure
	}{
		{"figure-14", func() *Figure { return Figure14(tr, cfg.Workers) }},
		{"figure-15", func() *Figure { return Figure15(tr, cfg.Workers) }},
		{"figure-16", func() *Figure { return Figure16(tr, cfg.Workers) }},
		{"figure-17", func() *Figure { return Figure17(tr, cfg.Workers) }},
		{"figure-18", func() *Figure { return Figure18(tr, cfg.Workers) }},
		{"figure-19", func() *Figure { return Figure19(tr, cfg.Workers) }},
		{"figure-19b", func() *Figure { return ForecasterAblation(tr, cfg.Workers) }},
		{"extra-range-sweep", func() *Figure { return RangeSweep(tr, cfg.Workers) }},
	}...)
	for _, s := range steps {
		if err := add(s.name, s.fn); err != nil {
			return nil, err
		}
	}

	if len(cfg.PolicySpecs) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		fig, err := PolicySweep(ctx, tr, cfg.PolicySpecs, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("experiments: policy sweep: %w", err)
		}
		logf("extra-policy-sweep done in %v", time.Since(start).Round(time.Millisecond))
		figs = append(figs, fig)
	}

	if !cfg.SkipPlatform {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		fig20, err := Figure20(ctx, tr, cfg.Platform)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 20: %w", err)
		}
		logf("figure-20 done in %v", time.Since(start).Round(time.Millisecond))
		figs = append(figs, fig20)
	}
	return figs, nil
}

// RenderAll writes every figure to w.
func RenderAll(figs []*Figure, w io.Writer) {
	for _, f := range figs {
		f.Render(w)
	}
}
