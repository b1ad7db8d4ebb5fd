package serve

import (
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// Recorder captures a live invocation stream at the trace codec's
// native resolution — per-function per-minute counts, the
// AzurePublicDataset schema — so a serving incident can be written
// out as a bundle and replayed through the simulator against
// candidate policies, as a source=bundle: cell (scenario.RunSweep,
// coldsim -scenario).
//
// Recording at minute-count resolution (rather than raw timestamps)
// is what makes the loop exact: the bundle's rows go through the same
// CSV row codec as any dataset trace, so a recorded stream and its
// replay source are bit-identical by construction — the property the
// bundle tests pin.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	apps  map[string]*recApp
	invs  int64
	early int64 // events before the epoch, dropped
}

type recApp struct {
	fns map[string]*recFn
}

type recFn struct {
	trigger trace.TriggerType
	counts  []int
}

// NewRecorder returns a recorder anchored at epoch: an event at time
// t lands in minute (t - epoch)/1m of the bundle.
func NewRecorder(epoch time.Time) *Recorder {
	return &Recorder{epoch: epoch, apps: make(map[string]*recApp)}
}

// Record captures one invocation of app/fn at time at, with the HTTP
// trigger (the serving path's trigger class). Events before the epoch
// are dropped (and counted in Meta().Early).
func (r *Recorder) Record(app, fn string, at time.Time) {
	r.RecordAs(app, fn, trace.TriggerHTTP, at)
}

// RecordAs is Record with an explicit trigger class.
func (r *Recorder) RecordAs(app, fn string, trig trace.TriggerType, at time.Time) {
	minute := int(at.Sub(r.epoch) / time.Minute)
	r.mu.Lock()
	defer r.mu.Unlock()
	if at.Before(r.epoch) {
		r.early++
		return
	}
	a, ok := r.apps[app]
	if !ok {
		a = &recApp{fns: make(map[string]*recFn)}
		r.apps[app] = a
	}
	f, ok := a.fns[fn]
	if !ok {
		f = &recFn{trigger: trig}
		a.fns[fn] = f
	}
	for len(f.counts) <= minute {
		f.counts = append(f.counts, 0)
	}
	f.counts[minute]++
	r.invs++
}

// Invocations returns how many events have been recorded.
func (r *Recorder) Invocations() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.invs
}

// Trace materializes the recorded stream as a trace: apps and
// functions sorted by ID (recording order is scheduling-dependent
// under concurrency, so the canonical order is lexicographic), with
// invocation timestamps expanded from the minute counts by the codec
// rule (trace.SpreadMinute). horizon bounds the trace duration; 0
// means the last recorded minute. Events recorded past a nonzero
// horizon are truncated, matching what WriteBundle emits.
func (r *Recorder) Trace(horizon time.Duration) *trace.Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	minutes := r.minutesLocked(horizon)

	tr := &trace.Trace{Duration: time.Duration(minutes) * time.Minute}
	appIDs := make([]string, 0, len(r.apps))
	for id := range r.apps {
		appIDs = append(appIDs, id)
	}
	sort.Strings(appIDs)
	for _, id := range appIDs {
		a := r.apps[id]
		app := &trace.App{ID: id, Owner: id}
		fnIDs := make([]string, 0, len(a.fns))
		for fid := range a.fns {
			fnIDs = append(fnIDs, fid)
		}
		sort.Strings(fnIDs)
		for _, fid := range fnIDs {
			f := a.fns[fid]
			fn := &trace.Function{ID: fid, Trigger: f.trigger}
			for m := 0; m < minutes && m < len(f.counts); m++ {
				fn.Invocations = trace.SpreadMinute(fn.Invocations, m, f.counts[m])
			}
			app.Functions = append(app.Functions, fn)
		}
		tr.Apps = append(tr.Apps, app)
	}
	return tr
}

// minutesLocked resolves a horizon to a column count: the explicit
// horizon rounded up to whole minutes, or the observed extent.
func (r *Recorder) minutesLocked(horizon time.Duration) int {
	if horizon > 0 {
		return int((horizon + time.Minute - 1) / time.Minute)
	}
	minutes := 0
	for _, a := range r.apps {
		for _, f := range a.fns {
			if len(f.counts) > minutes {
				minutes = len(f.counts)
			}
		}
	}
	return minutes
}
