package sim

import (
	"context"
	"io"
	"runtime"
	"sync"
	"time"

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
// policies shares one set through Walkers.RunAll instead.
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
// any number of concurrent passes. Each walker owns one kernel.Scratch
// for the set's whole life (two once it walks a pass that mixes
// exec-time settings), so the walk buffers a sweep grows for its first
// cells serve every later cell: a sweep of many policies builds
// GOMAXPROCS scratches, not GOMAXPROCS per cell. Outcomes do not
// depend on which walker walks an app, so they are the same as with a
// set per run.
type Walkers struct {
	jobs chan job
	wg   sync.WaitGroup
}

// job is one app of one pass, handed to whichever walker is free; that
// walker walks the app under every run of the pass.
type job struct {
	p   *pass
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
	// feeding passes pull their next apps, and bounds the apps in
	// flight across all passes at 2·GOMAXPROCS, however many runs each
	// pass carries.
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

// walk is the walker loop: it walks each job's app under every run of
// the job's pass and hands the outcomes to the runs. scs[0] serves the
// runs with their pass's first exec-time setting, scs[1] (built on
// first use) the others.
func (w *Walkers) walk() {
	defer w.wg.Done()
	scs := [2]*kernel.Scratch{newScratch()}
	for j := range w.jobs {
		j.p.walk(&scs, j.idx, j.app)
	}
}

// Run is the package-level Run on w's walkers: RunAll with one run.
func (w *Walkers) Run(ctx context.Context, src trace.Source, pol policy.Policy, opts ...Option) (*Result, error) {
	res, err := w.RunAll(ctx, src, []PolicyRun{{Policy: pol, Options: opts}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// PolicyRun is one policy and its Run options within a RunAll pass.
type PolicyRun struct {
	Policy  policy.Policy
	Options []Option
}

// RunAll is Run for several policies over one source: it reads src
// once and hands each app to one walker, which walks it under every
// run in order — invocation order and idle times computed once per
// exec-time setting, then each run's decisions and classification.
// Its i-th result is what Run(ctx, src, runs[i].Policy,
// runs[i].Options...) returns, bit for bit: each run keeps its own
// reorder buffer, so its sinks see ascending app indices. Any number
// of RunAll and Run calls may share the set concurrently.
func (w *Walkers) RunAll(ctx context.Context, src trace.Source, runs []PolicyRun) ([]*Result, error) {
	horizon := src.Horizon().Seconds()
	p := &pass{horizon: horizon, runs: make([]*run, len(runs))}
	cs := make([]*collector, len(runs))
	for i, pr := range runs {
		var cfg runConfig
		for _, o := range pr.Options {
			o(&cfg)
		}
		if len(cfg.sinks) == 0 {
			cs[i] = &collector{res: Result{Policy: pr.Policy.Name(), HorizonSeconds: horizon}}
			cfg.sinks = []ResultSink{cs[i]}
		}
		r := &run{pol: pr.Policy, execTime: cfg.execTime, sinks: cfg.sinks, early: map[int]AppResult{}}
		if i > 0 && cfg.execTime != p.runs[0].execTime {
			r.slot = 1
		}
		p.runs[i] = r
	}
	srcErr := p.feed(ctx, src, w.jobs)
	// Every app handed out finishes before RunAll returns — on EOF, on
	// cancellation and on a source error alike — so no walker touches
	// the runs' sinks afterwards.
	p.inFlight.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if srcErr != nil {
		return nil, srcErr
	}
	out := make([]*Result, len(runs))
	for i, c := range cs {
		if c != nil {
			out[i] = &c.res
		}
	}
	return out, nil
}

// pass is the state one RunAll shares with the walkers: its runs and
// the count of its apps still in flight.
type pass struct {
	horizon  float64
	runs     []*run
	inFlight sync.WaitGroup // apps handed to the walkers, not yet walked under every run
}

// run is one policy's share of a pass: its policy and options, the
// walker scratch slot its exec-time setting uses, and the reorder
// buffer in front of its sinks.
type run struct {
	pol      policy.Policy
	execTime bool
	slot     int // 0 for the pass's first exec-time setting, 1 for the other
	sinks    []ResultSink

	mu    sync.Mutex // serializes sink access and guards next, early
	next  int        // the index the sinks consume next
	early map[int]AppResult
}

// walk walks one app under every run of the pass, in run order, on
// the walker's scratches: the invocation order once, exec and idle
// times once per scratch slot, then each run's decisions and
// classification.
func (p *pass) walk(scs *[2]*kernel.Scratch, idx int, app *trace.App) {
	times := app.InvocationTimes()
	var execs [2][]float64
	var idles [2][]time.Duration
	var have [2]bool
	for _, r := range p.runs {
		sc := scs[r.slot]
		if sc == nil {
			sc = newScratch()
			scs[r.slot] = sc
		}
		if !have[r.slot] {
			if r.execTime {
				execs[r.slot] = sc.ExecSeconds(app)
			}
			idles[r.slot] = sc.IdleTimes(times, execs[r.slot])
			have[r.slot] = true
		}
		runs := sc.Decide(r.pol, app.ID, idles[r.slot])
		r.finish(idx, classify(app.ID, times, execs[r.slot], runs, p.horizon))
	}
	p.inFlight.Done()
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
}

// feed pulls src's apps one at a time on the calling goroutine and
// hands each to the walkers once, in order, until the source ends,
// fails or ctx is done; it returns the source's error, if any. The
// walkers' bounded job channel caps the apps in flight at
// O(GOMAXPROCS) across every pass sharing the set — per app, not per
// run of an app — and outcomes that finish ahead of a slower,
// lower-indexed app wait in their run's reorder buffer rather than
// blocking their walker, so the sinks see ascending index order.
func (p *pass) feed(ctx context.Context, src trace.Source, jobs chan<- job) error {
	for i := 0; ; i++ {
		app, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		p.inFlight.Add(1)
		select {
		case jobs <- job{p: p, idx: i, app: app}:
		case <-ctx.Done():
			p.inFlight.Done()
			return nil
		}
	}
}
