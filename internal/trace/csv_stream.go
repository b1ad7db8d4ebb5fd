package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// CSVSource streams an AzurePublicDataset-style invocations table as a
// Source, holding one application in memory at a time: rows are parsed
// as they are read and consecutive rows sharing a HashApp group into
// one App. The file is never materialized (ReadInvocationsCSV is this
// source, collected), so traces far larger than RAM stream through in
// constant memory.
//
// Rows must be grouped by HashApp (WriteInvocationsCSV emits them that
// way, as does the published dataset). A HashApp reappearing after its
// group ended is reported as an error rather than silently split into
// two applications; detecting that exactly costs one retained ID per
// finished app, so live memory is O(one app's invocations + #app IDs)
// — the invocation payloads, which dominate any real trace, never
// accumulate.
type CSVSource struct {
	cr      *csv.Reader
	dur     time.Duration
	minutes int
	line    int // 1-based line of the most recently read row

	// pending is the first row of the next app, read while detecting
	// the end of the previous group.
	pending      *Function
	pendingOwner string
	pendingApp   string

	seen   map[string]struct{} // app IDs whose groups have ended
	counts []int               // per-row minute-count scratch, reused across rows
	err    error               // sticky terminal state (io.EOF or failure)
}

// StreamInvocationsCSV opens an invocations table for streaming. The
// header is read eagerly so the horizon is known before the first app.
func StreamInvocationsCSV(r io.Reader) (*CSVSource, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading invocations header: %w", err)
	}
	if err := checkInvocationsHeader(header); err != nil {
		return nil, err
	}
	minutes := len(header) - 4
	return &CSVSource{
		cr:      cr,
		dur:     time.Duration(minutes) * time.Minute,
		minutes: minutes,
		line:    1,
		seen:    make(map[string]struct{}),
	}, nil
}

// Horizon implements Source.
func (s *CSVSource) Horizon() time.Duration { return s.dur }

// Next implements Source: it returns the next application, assembled
// from its contiguous rows.
func (s *CSVSource) Next() (*App, error) {
	if s.err != nil {
		return nil, s.err
	}

	// First function of the app: the stashed row, or a fresh read.
	owner, appID, fn := s.pendingOwner, s.pendingApp, s.pending
	if fn == nil {
		var err error
		owner, appID, fn, err = s.readRow()
		if err != nil {
			s.err = err
			return nil, err
		}
	}
	s.pending = nil
	if _, dup := s.seen[appID]; dup {
		s.err = fmt.Errorf("trace: line %d: rows for app %s are not contiguous", s.line, appID)
		return nil, s.err
	}
	app := &App{ID: appID, Owner: owner, Functions: []*Function{fn}}

	// Remaining functions: rows until the HashApp changes or the table
	// ends.
	for {
		owner, id, fn, err := s.readRow()
		if err == io.EOF {
			s.err = io.EOF
			s.seen[app.ID] = struct{}{}
			return app, nil
		}
		if err != nil {
			s.err = err
			return nil, err
		}
		if id == app.ID {
			app.Functions = append(app.Functions, fn)
			continue
		}
		s.pendingOwner, s.pendingApp, s.pending = owner, id, fn
		s.seen[app.ID] = struct{}{}
		return app, nil
	}
}

// readRow reads and parses one data row.
func (s *CSVSource) readRow() (owner, appID string, fn *Function, err error) {
	rec, err := s.cr.Read()
	if err == io.EOF {
		return "", "", nil, io.EOF
	}
	s.line++
	if err != nil {
		return "", "", nil, fmt.Errorf("trace: reading invocations line %d: %w", s.line, err)
	}
	return parseInvocationRow(rec, s.minutes, s.line, &s.counts)
}

// checkInvocationsHeader validates the fixed leading columns of an
// invocations table header.
func checkInvocationsHeader(header []string) error {
	if len(header) < 5 || header[0] != "HashOwner" || header[3] != "Trigger" {
		return fmt.Errorf("trace: unexpected invocations header %v", header[:min(4, len(header))])
	}
	return nil
}

// parseInvocationRow parses one data row of an invocations table into
// a Function plus its owning IDs. The returned strings are cloned out
// of rec, which may be a buffer the CSV reader reuses. scratch holds
// the caller's reusable minute-count buffer: counts are parsed into it
// first so the invocation slice can be allocated exactly once at its
// final size, instead of growing by appends across thousands of minute
// columns (the dominant per-row allocation cost at trace scale; pinned
// by TestStreamCSVAllocsPerRow).
func parseInvocationRow(rec []string, minutes, line int, scratch *[]int) (owner, appID string, fn *Function, err error) {
	if len(rec) != minutes+4 {
		return "", "", nil, fmt.Errorf("trace: line %d has %d fields, want %d", line, len(rec), minutes+4)
	}
	trig, err := ParseTrigger(rec[3])
	if err != nil {
		return "", "", nil, fmt.Errorf("trace: line %d: %w", line, err)
	}
	counts := (*scratch)[:0]
	total := 0
	for m := 0; m < minutes; m++ {
		n, err := strconv.Atoi(rec[4+m])
		if err != nil {
			return "", "", nil, fmt.Errorf("trace: line %d minute %d: %w", line, m+1, err)
		}
		if n < 0 {
			return "", "", nil, fmt.Errorf("trace: line %d minute %d: negative count", line, m+1)
		}
		counts = append(counts, n)
		total += n
	}
	*scratch = counts
	fn = &Function{ID: strings.Clone(rec[2]), Trigger: trig}
	if total > 0 {
		fn.Invocations = make([]float64, 0, total)
		for m, n := range counts {
			if n > 0 {
				fn.Invocations = SpreadMinute(fn.Invocations, m, n)
			}
		}
	}
	return strings.Clone(rec[0]), strings.Clone(rec[1]), fn, nil
}

// SpreadMinute appends minute m's n invocations to dst at the codec's
// canonical timestamps: evenly spread, 60m + 60k/n seconds for
// k = 0..n-1. This is the single definition of how per-minute counts
// become timestamps; the CSV readers and the incident-bundle recorder
// (internal/serve) share it, which is what makes a recorded stream
// replay bit-identically to its CSV round trip.
func SpreadMinute(dst []float64, m, n int) []float64 {
	base := float64(m) * 60
	for k := 0; k < n; k++ {
		dst = append(dst, base+60*float64(k)/float64(n))
	}
	return dst
}
