package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Source yields the applications of a workload one at a time, in a
// fixed order. It is the streaming counterpart of *Trace: consumers
// that process apps independently (the cold-start simulator, CSV
// writers, shard splitters) can run over arbitrarily large traces
// holding only the app currently in flight.
//
// Next returns io.EOF after the last application; any other error
// aborts consumption. Sources are single-use: once drained (or failed)
// they cannot be rewound. Implementations need not be safe for
// concurrent use; callers serialize Next.
type Source interface {
	// Horizon returns the trace duration covered by the source.
	Horizon() time.Duration
	// Next returns the next application, or nil and io.EOF at the end.
	Next() (*App, error)
}

// TraceSource adapts a fully materialized *Trace to the Source
// interface, yielding its apps in order like any other source.
type TraceSource struct {
	tr  *Trace
	pos int
}

// NewTraceSource returns a Source yielding tr's apps in order.
func NewTraceSource(tr *Trace) *TraceSource { return &TraceSource{tr: tr} }

// Horizon implements Source.
func (s *TraceSource) Horizon() time.Duration { return s.tr.Duration }

// Next implements Source.
func (s *TraceSource) Next() (*App, error) {
	if s.pos >= len(s.tr.Apps) {
		return nil, io.EOF
	}
	app := s.tr.Apps[s.pos]
	s.pos++
	return app, nil
}

// shardSource restricts a source to an interleaved shard.
type shardSource struct {
	src  Source
	i, n int
	pos  int
}

// Shard restricts src to its i-th of n interleaved shards: the apps at
// positions i, i+n, i+2n, ... of the underlying sequence. The n shards
// of a source partition it exactly, so n processes each consuming one
// shard cover the trace with no coordination — the scale-out unit for
// sweeps too large for one machine. Panics unless 0 <= i < n
// (programming error, as shard layouts are code-supplied).
func Shard(src Source, i, n int) Source {
	if n <= 0 || i < 0 || i >= n {
		panic(fmt.Sprintf("trace: Shard(%d, %d) out of range", i, n))
	}
	if n == 1 {
		return src
	}
	return &shardSource{src: src, i: i, n: n}
}

// Horizon implements Source.
func (s *shardSource) Horizon() time.Duration { return s.src.Horizon() }

// Next implements Source.
func (s *shardSource) Next() (*App, error) {
	for {
		app, err := s.src.Next()
		if err != nil {
			return nil, err
		}
		mine := (s.pos-s.i)%s.n == 0 && s.pos >= s.i
		s.pos++
		if mine {
			return app, nil
		}
	}
}

// ParseShard parses an "i/n" shard designator (as taken by the
// scenario shard= field and the shard: source spec) into Shard
// arguments, rejecting trailing garbage and out-of-range layouts.
func ParseShard(s string) (i, n int, err error) {
	lhs, rhs, ok := strings.Cut(s, "/")
	if ok {
		i, err = strconv.Atoi(lhs)
		if err == nil {
			n, err = strconv.Atoi(rhs)
		}
	}
	if !ok || err != nil || n <= 0 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("trace: invalid shard %q (want i/n with 0 <= i < n)", s)
	}
	return i, n, nil
}

// Collect drains src into a materialized *Trace. It is the inverse of
// NewTraceSource, useful when a streaming producer (a CSV stream, a
// shard, a generator) must feed a consumer that needs the whole trace.
// The apps themselves are not copied: the result shares them with
// whatever backs src, so callers must not mutate them.
func Collect(src Source) (*Trace, error) {
	tr := &Trace{Duration: src.Horizon()}
	for {
		app, err := src.Next()
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return nil, err
		}
		tr.Apps = append(tr.Apps, app)
	}
}
