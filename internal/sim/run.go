package sim

import (
	"context"
	"io"
	"runtime"
	"sync"

	"repro/internal/policy"
	"repro/internal/sim/kernel"
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
// Simulate: context-cancelable, source-fed, and sink-draining. It
// walks the apps on a walker set of its own; a sweep that runs many
// policies shares one set through Walkers.Run instead.
//
//   - With no WithSink option, Run collects every app's outcome and
//     returns a *Result identical to Simulate's.
//   - With explicit sinks, Run returns (nil, nil) on success; the
//     caller reads aggregates out of its sinks. The only per-app
//     outcomes held are those in the reorder buffer (apps that
//     finished behind a slower, lower-indexed app), so over a
//     constant-memory source (StreamInvocationsCSV, a generator) the
//     run's memory grows with the apps the other walkers finish while
//     one slow app walks, not with the number of apps.
func Run(ctx context.Context, src trace.Source, pol policy.Policy, opts ...Option) (*Result, error) {
	w := NewWalkers()
	defer w.Close()
	return w.Run(ctx, src, pol, opts...)
}

// Walkers is a set of GOMAXPROCS walker goroutines that walk apps for
// any number of concurrent runs. Each walker owns one kernel.Scratch
// for the set's whole life, so the walk buffers a sweep grows for its
// first cells serve every later cell: a sweep of many policies builds
// GOMAXPROCS scratches, not GOMAXPROCS per cell. Outcomes do not
// depend on which walker walks an app, so they are the same as with a
// set per run.
type Walkers struct {
	jobs chan job
	wg   sync.WaitGroup
}

// job is one app of one run, handed to whichever walker is free.
type job struct {
	r   *run
	idx int
	app *trace.App
}

// newScratch builds one walker's scratch; tests swap it to count the
// scratches a sweep builds.
var newScratch = func() *kernel.Scratch { return new(kernel.Scratch) }

// NewWalkers starts a set of GOMAXPROCS walkers. The caller must Close
// it once every Run through it has returned.
func NewWalkers() *Walkers {
	n := runtime.GOMAXPROCS(0)
	// One queued app per walker keeps every walker busy while the
	// feeding runs pull their next apps, and bounds the apps in flight
	// across all runs at 2·GOMAXPROCS.
	w := &Walkers{jobs: make(chan job, n)}
	w.wg.Add(n)
	for i := 0; i < n; i++ {
		go w.walk()
	}
	return w
}

// Close stops the walkers and waits for them to exit. No Run through
// the set may be in progress or start afterwards.
func (w *Walkers) Close() {
	close(w.jobs)
	w.wg.Wait()
}

// walk is the walker loop: it walks each job's app on the walker's
// scratch and hands the outcome to the job's run.
func (w *Walkers) walk() {
	defer w.wg.Done()
	sc := newScratch()
	for j := range w.jobs {
		r := j.r
		r.finish(j.idx, simulateApp(sc, j.app, r.pol, r.horizon, r.execTime))
	}
}

// Run is the package-level Run on w's walkers. Any number of Runs may
// share the set concurrently; each keeps its own reorder buffer, so
// its sinks see its apps' indices in ascending order as they would on
// a set of their own.
func (w *Walkers) Run(ctx context.Context, src trace.Source, pol policy.Policy, opts ...Option) (*Result, error) {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	var c *collector
	if len(cfg.sinks) == 0 {
		c = &collector{res: Result{Policy: pol.Name(), HorizonSeconds: src.Horizon().Seconds()}}
		cfg.sinks = []ResultSink{c}
	}
	r := &run{
		pol:      pol,
		horizon:  src.Horizon().Seconds(),
		execTime: cfg.execTime,
		sinks:    cfg.sinks,
		early:    map[int]AppResult{},
	}
	srcErr := r.feed(ctx, src, w.jobs)
	// Every app handed out finishes before Run returns — on EOF, on
	// cancellation and on a source error alike — so no walker touches
	// the run's sinks afterwards.
	r.inFlight.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if srcErr != nil {
		return nil, srcErr
	}
	if c != nil {
		return &c.res, nil
	}
	return nil, nil
}

// run is the state one Run shares with the walkers: its policy and
// options, the count of its apps still in flight, and the reorder
// buffer in front of its sinks.
type run struct {
	pol      policy.Policy
	horizon  float64
	execTime bool
	sinks    []ResultSink
	inFlight sync.WaitGroup // apps handed to the walkers, not yet finished

	mu    sync.Mutex // serializes sink access and guards next, early
	next  int        // the index the sinks consume next
	early map[int]AppResult
}

// finish delivers one walked app: straight to the sinks when it is the
// next index (then draining any outcomes it unblocks), otherwise into
// the reorder buffer.
func (r *run) finish(idx int, res AppResult) {
	r.mu.Lock()
	if idx != r.next {
		r.early[idx] = res
	} else {
		for ok := true; ok; {
			for _, s := range r.sinks {
				s.Consume(r.next, res)
			}
			r.next++
			if res, ok = r.early[r.next]; ok {
				delete(r.early, r.next)
			}
		}
	}
	r.mu.Unlock()
	r.inFlight.Done()
}

// feed pulls src's apps one at a time on the calling goroutine and
// hands them to the walkers in order, until the source ends, fails or
// ctx is done; it returns the source's error, if any. The walkers'
// bounded job channel caps the apps in flight at O(GOMAXPROCS) across
// every run sharing the set, and outcomes that finish ahead of a
// slower, lower-indexed app wait in the run's reorder buffer rather
// than blocking their walker, so the sinks see ascending index order.
func (r *run) feed(ctx context.Context, src trace.Source, jobs chan<- job) error {
	for i := 0; ; i++ {
		app, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		r.inFlight.Add(1)
		select {
		case jobs <- job{r: r, idx: i, app: app}:
		case <-ctx.Done():
			r.inFlight.Done()
			return nil
		}
	}
}
