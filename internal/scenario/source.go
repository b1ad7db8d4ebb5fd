package scenario

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The source registry maps scheme names to builders of re-openable
// trace sources, extending the policy-spec discipline to the
// workload axis. A source spec is
//
//	name:rest
//
// where rest's shape belongs to the scheme:
//
//	csv:trace/invocations.csv        streaming dataset CSV
//	tracec:trace/bundle.bin          compact binary bundle (tracegen -encode)
//	gen:apps=400&days=7&seed=7       synthetic generation (query syntax)
//	shard:1/4 of csv:big.csv         the i-th of n interleaved shards
//	bundle:incidents/oct-stampede    captured incident bundle (serve)
//
// trace.Source values are single-use, so the registry hands out
// factories: every Open returns a fresh source, which is what lets a
// sweep re-run one spec per cell (and a cmd re-stream a CSV per
// policy) without caring what backs it.

// SourceFactory produces fresh trace sources for one spec.
type SourceFactory interface {
	// Spec returns the canonical spec the factory was built from.
	Spec() string
	// Open returns a fresh source and a release function (closes any
	// underlying file; always non-nil).
	Open() (trace.Source, func() error, error)
}

// seedable is implemented by factories whose randomness can be
// re-seeded (generator sources); Scenario.Seed uses it.
type seedable interface {
	withSeed(seed uint64) SourceFactory
}

// lazyOpener is implemented by factories that can also produce a
// one-at-a-time streaming source without materializing anything.
// Shard wrappers prefer it: streaming the inner source and collecting
// only the selected shard keeps memory at the shard's size (the
// multi-process partitioning contract), instead of residing the whole
// population just to slice it.
type lazyOpener interface {
	openLazy() (trace.Source, func() error, error)
}

// SourceBuilder constructs a source factory from the spec's rest (the
// text after "name:").
type SourceBuilder func(rest string) (SourceFactory, error)

var (
	sourceMu  sync.RWMutex
	sourceReg = map[string]SourceBuilder{}
)

// RegisterSource adds a named source builder. Registering a duplicate
// name panics (programming error).
func RegisterSource(name string, b SourceBuilder) {
	sourceMu.Lock()
	defer sourceMu.Unlock()
	if _, dup := sourceReg[name]; dup {
		panic(fmt.Sprintf("scenario: RegisterSource(%q) called twice", name))
	}
	sourceReg[name] = b
}

// SourceNames returns the registered source scheme names, sorted.
func SourceNames() []string {
	sourceMu.RLock()
	defer sourceMu.RUnlock()
	names := make([]string, 0, len(sourceReg))
	// Map order is discarded by the sort below.
	for n := range sourceReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewSource builds a source factory from a spec ("csv:path",
// "gen:apps=400", "shard:1/4 of <spec>").
func NewSource(s string) (SourceFactory, error) {
	name, rest, _ := strings.Cut(s, ":")
	sourceMu.RLock()
	b, ok := sourceReg[name]
	sourceMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("scenario: unknown source %q (registered: %v)", name, SourceNames())
	}
	f, err := b(rest)
	if err != nil {
		return nil, fmt.Errorf("scenario: source %q: %w", s, err)
	}
	return f, nil
}

// csvFactory re-opens a dataset CSV per run: the constant-memory
// streaming path, per-open file handle.
type csvFactory struct {
	path string
}

func (f *csvFactory) Spec() string { return "csv:" + f.path }

func (f *csvFactory) Open() (trace.Source, func() error, error) {
	file, err := os.Open(f.path)
	if err != nil {
		return nil, nil, err
	}
	src, err := trace.StreamInvocationsCSV(file)
	if err != nil {
		file.Close()
		return nil, nil, err
	}
	return src, file.Close, nil
}

// tracecFactory re-opens a binary trace bundle per run: the decoder
// streams one app at a time (memory-mapping the file when the platform
// allows), so bundles far larger than RAM run in constant memory —
// and, unlike CSV, carry exec stats and memory footprints natively.
type tracecFactory struct {
	path string
}

func (f *tracecFactory) Spec() string { return "tracec:" + f.path }

func (f *tracecFactory) Open() (trace.Source, func() error, error) {
	src, err := trace.OpenBinaryFile(f.path)
	if err != nil {
		return nil, nil, err
	}
	return src, src.Close, nil
}

// genFactory generates the configured synthetic population per open.
// It materializes the trace (once, lazily) and hands out in-memory
// sources, so every consumer takes the deterministic batch fast path
// and repeated opens don't regenerate.
type genFactory struct {
	cfg  workload.Config
	once sync.Once
	tr   *trace.Trace
	err  error
}

func (f *genFactory) Spec() string {
	parts := []string{fmt.Sprintf("apps=%d", f.cfg.NumApps)}
	if d := f.cfg.Duration; d != 7*24*time.Hour {
		parts = append(parts, fmt.Sprintf("days=%g", d.Hours()/24))
	}
	parts = append(parts, fmt.Sprintf("seed=%d", f.cfg.Seed))
	if f.cfg.MaxDailyRate != 20000 {
		parts = append(parts, fmt.Sprintf("maxrate=%g", f.cfg.MaxDailyRate))
	}
	if f.cfg.MaxEventsPerFunction != 200000 {
		parts = append(parts, fmt.Sprintf("maxevents=%d", f.cfg.MaxEventsPerFunction))
	}
	if f.cfg.Mode != "" {
		parts = append(parts, "mode="+f.cfg.Mode)
		if f.cfg.RPS0 != 0 {
			parts = append(parts, fmt.Sprintf("rps0=%g", f.cfg.RPS0))
		}
		if f.cfg.RPS1 != 0 {
			parts = append(parts, fmt.Sprintf("rps1=%g", f.cfg.RPS1))
		}
		if f.cfg.StepRPS != 0 {
			parts = append(parts, fmt.Sprintf("step=%g", f.cfg.StepRPS))
		}
		if f.cfg.SlotMins != 0 && f.cfg.SlotMins != 1 {
			parts = append(parts, fmt.Sprintf("slot=%d", f.cfg.SlotMins))
		}
		// The elidable period default is per mode (burst 10, diurnal one
		// day); an explicit non-default period must survive the round
		// trip even when it equals another mode's default.
		defPeriod := 10
		if f.cfg.Mode == workload.ModeDiurnal {
			defPeriod = 24 * 60
		}
		if f.cfg.PeriodMins != 0 && f.cfg.PeriodMins != defPeriod {
			parts = append(parts, fmt.Sprintf("period=%d", f.cfg.PeriodMins))
		}
		if f.cfg.BurstMins != 0 && f.cfg.BurstMins != 1 {
			parts = append(parts, fmt.Sprintf("burst=%d", f.cfg.BurstMins))
		}
	}
	return "gen:" + strings.Join(parts, "&")
}

func (f *genFactory) Open() (trace.Source, func() error, error) {
	f.once.Do(func() {
		src, err := workload.NewSource(f.cfg)
		if err != nil {
			f.err = err
			return
		}
		f.tr, f.err = trace.Collect(src)
	})
	if f.err != nil {
		return nil, nil, f.err
	}
	return trace.NewTraceSource(f.tr), func() error { return nil }, nil
}

// openLazy streams the generator without materializing (bit-identical
// apps; trades regeneration CPU for constant memory).
func (f *genFactory) openLazy() (trace.Source, func() error, error) {
	src, err := workload.NewSource(f.cfg)
	if err != nil {
		return nil, nil, err
	}
	return src, func() error { return nil }, nil
}

func (f *genFactory) withSeed(seed uint64) SourceFactory {
	cfg := f.cfg
	cfg.Seed = seed
	return &genFactory{cfg: cfg}
}

// shardFactory restricts an inner factory to one interleaved shard.
// For lazily-streamable inners the selected shard is collected once
// (memory stays at the shard's size) and shared across opens.
type shardFactory struct {
	inner SourceFactory
	i, n  int
	once  sync.Once
	tr    *trace.Trace
	err   error
}

func (f *shardFactory) Spec() string {
	return fmt.Sprintf("shard:%d/%d of %s", f.i, f.n, f.inner.Spec())
}

func (f *shardFactory) Open() (trace.Source, func() error, error) {
	// Lazily-streamable inners (generators) are streamed and only the
	// selected shard is collected — memory stays at the shard's size,
	// and the materialized result keeps consumers on the deterministic
	// batch fast path.
	if lazy, ok := f.inner.(lazyOpener); ok {
		f.once.Do(func() {
			src, release, err := lazy.openLazy()
			if err != nil {
				f.err = err
				return
			}
			f.tr, f.err = trace.Collect(trace.Shard(src, f.i, f.n))
			if cerr := release(); f.err == nil {
				f.err = cerr
			}
		})
		if f.err != nil {
			return nil, nil, f.err
		}
		return trace.NewTraceSource(f.tr), func() error { return nil }, nil
	}
	src, release, err := f.inner.Open()
	if err != nil {
		return nil, nil, err
	}
	// Shards of in-memory sources materialize (a pointer-level walk) so
	// consumers keep the deterministic batch fast path; streaming
	// inners stay streaming.
	if tr := trace.BatchTrace(src); tr != nil {
		shardTr, err := trace.Collect(trace.Shard(trace.NewTraceSource(tr), f.i, f.n))
		if err != nil {
			release()
			return nil, nil, err
		}
		return trace.NewTraceSource(shardTr), release, nil
	}
	return trace.Shard(src, f.i, f.n), release, nil
}

// openLazy streams the sharded inner (nested shard wrappers compose
// without materializing intermediate layers).
func (f *shardFactory) openLazy() (trace.Source, func() error, error) {
	var (
		src     trace.Source
		release func() error
		err     error
	)
	if lazy, ok := f.inner.(lazyOpener); ok {
		src, release, err = lazy.openLazy()
	} else {
		src, release, err = f.inner.Open()
	}
	if err != nil {
		return nil, nil, err
	}
	return trace.Shard(src, f.i, f.n), release, nil
}

func (f *shardFactory) withSeed(seed uint64) SourceFactory {
	s, ok := f.inner.(seedable)
	if !ok {
		return nil
	}
	inner := s.withSeed(seed)
	if inner == nil {
		return nil
	}
	return &shardFactory{inner: inner, i: f.i, n: f.n}
}

func init() {
	RegisterSource("csv", func(rest string) (SourceFactory, error) {
		if rest == "" {
			return nil, fmt.Errorf("want csv:path")
		}
		return &csvFactory{path: rest}, nil
	})
	RegisterSource("tracec", func(rest string) (SourceFactory, error) {
		if rest == "" {
			return nil, fmt.Errorf("want tracec:path")
		}
		return &tracecFactory{path: rest}, nil
	})
	RegisterSource("gen", func(rest string) (SourceFactory, error) {
		return spec.Build(rest, buildGen)
	})
	RegisterSource("shard", func(rest string) (SourceFactory, error) {
		designator, innerSpec, ok := strings.Cut(rest, " of ")
		if !ok {
			return nil, fmt.Errorf("want shard:i/n of <source spec>")
		}
		i, n, err := trace.ParseShard(strings.TrimSpace(designator))
		if err != nil {
			return nil, err
		}
		inner, err := NewSource(strings.TrimSpace(innerSpec))
		if err != nil {
			return nil, err
		}
		return &shardFactory{inner: inner, i: i, n: n}, nil
	})
}

// buildGen builds the synthetic-generation source from "gen:"'s query.
func buildGen(p *spec.Params) (SourceFactory, error) {
	var cfg workload.Config
	apps, err := p.Int("apps", 500)
	if err != nil {
		return nil, err
	}
	cfg.NumApps = apps
	days, err := p.Float("days", 7)
	if err != nil {
		return nil, err
	}
	cfg.Duration = time.Duration(days * 24 * float64(time.Hour))
	if cfg.Seed, err = p.Uint64("seed", 42); err != nil {
		return nil, err
	}
	if cfg.MaxDailyRate, err = p.Float("maxrate", 20000); err != nil {
		return nil, err
	}
	if cfg.MaxEventsPerFunction, err = p.Int("maxevents", 200000); err != nil {
		return nil, err
	}
	// Shaped arrival modes ("mode=ramp&rps0=10&rps1=20&step=5",
	// "mode=burst&rps0=2&rps1=50", "mode=diurnal&rps0=1&rps1=30");
	// workload.Config.Validate rejects shaped parameters without a
	// mode and mode-mismatched ones.
	cfg.Mode = p.String("mode", "")
	if cfg.RPS0, err = p.Float("rps0", 0); err != nil {
		return nil, err
	}
	if cfg.RPS1, err = p.Float("rps1", 0); err != nil {
		return nil, err
	}
	if cfg.StepRPS, err = p.Float("step", 0); err != nil {
		return nil, err
	}
	if cfg.SlotMins, err = p.Int("slot", 0); err != nil {
		return nil, err
	}
	if cfg.PeriodMins, err = p.Int("period", 0); err != nil {
		return nil, err
	}
	if cfg.BurstMins, err = p.Int("burst", 0); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &genFactory{cfg: cfg}, nil
}

// sourceForScenario resolves sc's source factory with the seed
// override applied. The canonical factory spec keys the sweep
// engine's source sharing: equal keys mean equal traces.
func sourceForScenario(sc Scenario) (SourceFactory, error) {
	if sc.Source == "" {
		return nil, fmt.Errorf("scenario: missing source (and no fixed trace supplied)")
	}
	f, err := NewSource(sc.Source)
	if err != nil {
		return nil, err
	}
	if sc.Seed != 0 {
		s, ok := f.(seedable)
		if !ok {
			return nil, fmt.Errorf("scenario: seed=%d set but source %q is not seedable", sc.Seed, sc.Source)
		}
		if f = s.withSeed(sc.Seed); f == nil {
			return nil, fmt.Errorf("scenario: seed=%d set but source %q is not seedable", sc.Seed, sc.Source)
		}
	}
	return f, nil
}
