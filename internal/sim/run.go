package sim

import (
	"context"
	"io"
	"runtime"
	"sync"

	"repro/internal/policy"
	"repro/internal/trace"
)

// ResultSink consumes per-app outcomes as the engine produces them.
// index is the 0-based position of the app in the source's sequence.
// Run serializes Consume calls (no locking needed inside sinks) and
// makes them in ascending index order, so even order-sensitive
// aggregates (float sums) repeat to the last bit.
type ResultSink interface {
	Consume(index int, r AppResult)
}

// collector is the sink Run installs when none is attached: it
// materializes the classic *Result (per-app outcomes in source order).
// Memory grows with the number of apps — for constant-memory streaming
// runs attach the incremental sinks in internal/metrics instead.
type collector struct {
	res Result
}

// Consume implements ResultSink.
func (c *collector) Consume(index int, r AppResult) {
	for index >= len(c.res.Apps) {
		c.res.Apps = append(c.res.Apps, AppResult{})
	}
	c.res.Apps[index] = r
}

// runConfig is the resolved option set of one Run call.
type runConfig struct {
	execTime bool
	sinks    []ResultSink
}

// Option configures Run and Simulate.
type Option func(*runConfig)

// WithExecTime makes invocations occupy their function's average
// execution time instead of 0; idle times then measure from execution
// end, exactly as the paper defines IT (§3.4).
func WithExecTime(enabled bool) Option {
	return func(c *runConfig) { c.execTime = enabled }
}

// WithSink attaches a ResultSink; may be repeated to fan results out
// to several sinks. Attaching any sink disables the default collector
// (Run then returns a nil *Result), so a streaming run keeps no
// per-app result slice.
func WithSink(s ResultSink) Option {
	return func(c *runConfig) { c.sinks = append(c.sinks, s) }
}

// Run simulates pol over the apps yielded by src, streaming each
// app's outcome to the configured sinks. It is the superset of
// Simulate: context-cancelable, source-fed, and sink-draining.
//
//   - With no WithSink option, Run collects every app's outcome and
//     returns a *Result identical to Simulate's.
//   - With explicit sinks, Run returns (nil, nil) on success; the
//     caller reads aggregates out of its sinks. The only per-app
//     outcomes held are those in the reorder buffer (apps that
//     finished behind a slower, lower-indexed app), so over a
//     constant-memory source (StreamInvocationsCSV, a generator) the
//     run's memory grows with the apps the other workers finish while
//     one slow app walks, not with the number of apps.
func Run(ctx context.Context, src trace.Source, pol policy.Policy, opts ...Option) (*Result, error) {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	var c *collector
	if len(cfg.sinks) == 0 {
		c = &collector{res: Result{Policy: pol.Name(), HorizonSeconds: src.Horizon().Seconds()}}
		cfg.sinks = []ResultSink{c}
	}
	if err := runStream(ctx, src, pol, cfg); err != nil {
		return nil, err
	}
	if c != nil {
		return &c.res, nil
	}
	return nil, nil
}

// runStream simulates a one-at-a-time source: a producer goroutine
// pulls apps, a bounded channel caps the apps in flight at
// O(workers), and GOMAXPROCS workers push outcomes to the sinks under
// a mutex (outcomes do not depend on the count). Outcomes that finish
// ahead of a slower, lower-indexed app wait in a reorder buffer rather
// than blocking their worker, so the sinks see ascending index order.
func runStream(ctx context.Context, src trace.Source, pol policy.Policy, cfg runConfig) error {
	workers := runtime.GOMAXPROCS(0)
	horizon := src.Horizon().Seconds()

	type item struct {
		idx int
		app *trace.App
	}
	ch := make(chan item, workers)
	var srcErr error
	go func() {
		defer close(ch)
		for i := 0; ; i++ {
			app, err := src.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				srcErr = err
				return
			}
			select {
			case ch <- item{idx: i, app: app}:
			case <-ctx.Done():
				return
			}
		}
	}()

	var mu sync.Mutex // serializes sink access and guards next, early
	next := 0         // the index the sinks consume next
	early := map[int]AppResult{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ar arena
			for it := range ch {
				r := simulateApp(&ar, it.app, pol, horizon, cfg.execTime)
				mu.Lock()
				if it.idx != next {
					early[it.idx] = r
					mu.Unlock()
					continue
				}
				for ok := true; ok; {
					for _, s := range cfg.sinks {
						s.Consume(next, r)
					}
					next++
					if r, ok = early[next]; ok {
						delete(early, next)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return srcErr
}
