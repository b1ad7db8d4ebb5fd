package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"
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

// workload returns the population's generator configuration.
func (c Config) workload() workload.Config {
	return workload.Config{
		Seed:                 c.Seed,
		NumApps:              c.NumApps,
		Duration:             c.Duration,
		MaxDailyRate:         c.MaxDailyRate,
		MaxEventsPerFunction: c.MaxEventsPerFunction,
	}
}

// source returns the gen: source spec that generates the population.
// Floats print without exponents: a query string reads '+' as a space.
func (c Config) source() string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }
	return fmt.Sprintf("gen:apps=%d&days=%s&seed=%d&maxrate=%s&maxevents=%d",
		c.NumApps, f(c.Duration.Hours()/24), c.Seed, f(c.MaxDailyRate), c.MaxEventsPerFunction)
}

// RunAll regenerates every figure. Progress lines go to progress (may
// be nil). Cancellation via ctx is honored between steps, inside the
// §5.2 sweep and inside the platform replay; a canceled run returns
// ctx.Err() with no figures. Progress lines carry per-step wall-clock
// timers; the figures themselves never read the clock.
func RunAll(ctx context.Context, cfg Config, progress io.Writer) ([]*Figure, error) {
	cfg = cfg.withDefaults()
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}

	logf("generating population: %d apps over %v (seed %d)", cfg.NumApps, cfg.Duration, cfg.Seed)
	pop, err := workload.Generate(cfg.workload())
	if err != nil {
		return nil, fmt.Errorf("experiments: generating workload: %w", err)
	}
	logf("population: %d apps, %d functions, %d invocations",
		len(pop.Trace.Apps), pop.Trace.TotalFunctions(), pop.Trace.TotalInvocations())

	tr := pop.Trace
	one := func(fn func(*workload.Population) *Figure) func() ([]*Figure, error) {
		return func() ([]*Figure, error) { return []*Figure{fn(pop)}, nil }
	}
	type step struct {
		name string
		fn   func() ([]*Figure, error)
	}
	steps := []step{
		{"figure-01", one(Figure1)},
		{"figure-02", one(Figure2)},
		{"figure-03", one(Figure3)},
		{"figure-04", one(Figure4)},
		{"figure-05", one(Figure5)},
		{"figure-06", one(Figure6)},
		{"figure-07", one(Figure7)},
		{"figure-08", one(Figure8)},
		{"figure-12", one(Figure12)},
		{"figures 14-19, 19b and extra-range-sweep", func() ([]*Figure, error) {
			return Section5(ctx, tr, cfg.source(), cfg.Workers)
		}},
	}
	if len(cfg.PolicySpecs) > 0 {
		steps = append(steps, step{"extra-policy-sweep", func() ([]*Figure, error) {
			f, err := PolicySweep(ctx, tr, cfg.PolicySpecs, cfg.Workers)
			return []*Figure{f}, err
		}})
	}
	if !cfg.SkipPlatform {
		steps = append(steps, step{"figure-20", func() ([]*Figure, error) {
			f, err := Figure20(ctx, tr, cfg.Platform)
			return []*Figure{f}, err
		}})
	}

	var figs []*Figure
	for _, s := range steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		fs, err := s.fn()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.name, err)
		}
		logf("%s done in %v", s.name, time.Since(start).Round(time.Millisecond))
		figs = append(figs, fs...)
	}
	return figs, nil
}

// RenderAll writes every figure to w.
func RenderAll(figs []*Figure, w io.Writer) {
	for _, f := range figs {
		f.Render(w)
	}
}
