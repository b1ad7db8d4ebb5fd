package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// CSVSource streams an AzurePublicDataset-style invocations table as a
// Source, holding one application in memory at a time: rows are parsed
// as they are read and consecutive rows sharing a HashApp group into
// one App. The file is never materialized (Collect over this source
// is the batch form), so traces far larger than RAM stream through in
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
	br      *bufio.Reader
	cr      *csv.Reader // set at the first line holding a quote byte; reads the rest of the table
	long    []byte      // a row longer than br's buffer, accumulated
	phys    int         // physical lines br has delivered, to place cr's parse errors
	dur     time.Duration
	minutes int
	line    int // 1-based line of the most recently read row

	// pending is the first row of the next app, read while detecting
	// the end of the previous group.
	pending      *Function
	pendingOwner string
	pendingApp   string

	seen  map[string]struct{} // app IDs whose groups have ended
	nz    []minuteCount       // the current row's non-zero cells, reused across rows
	total uint64              // the current row's invocations
	err   error               // sticky terminal state (io.EOF or failure)
}

// minuteCount is one non-zero cell of a row: n invocations in minute m.
type minuteCount struct{ m, n int }

// csvBufSize holds many dataset rows (1440 two-byte cells a day); at
// 256 KiB TestStreamConstantMemory's live-heap pin fails.
const csvBufSize = 64 << 10

// StreamInvocationsCSV opens an invocations table for streaming. The
// header is read eagerly so the horizon is known before the first app.
func StreamInvocationsCSV(r io.Reader) (*CSVSource, error) {
	s := &CSVSource{br: bufio.NewReaderSize(r, csvBufSize), line: 1, seen: make(map[string]struct{})}
	line, header, err := s.next()
	if err != nil {
		return nil, fmt.Errorf("trace: reading invocations header: %w", err)
	}
	if header == nil {
		header = strings.Split(string(line), ",")
	}
	if err := checkInvocationsHeader(header); err != nil {
		return nil, err
	}
	s.minutes = len(header) - 4
	s.dur = time.Duration(s.minutes) * time.Minute
	return s, nil
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

// next reads the next non-empty row under encoding/csv's line rules
// (\r\n is \n, a lone \r before EOF is dropped, empty lines are
// skipped). A row without a quote byte is just its fields joined by
// commas and comes back as line, terminator stripped, valid until the
// following call. The first line holding a quote goes, with the rest of
// the input, to encoding/csv (quoted fields may span lines, a bare
// quote is its ErrBareQuote), and rows come back as rec from then on.
func (s *CSVSource) next() (line []byte, rec []string, err error) {
	for s.cr == nil {
		line, err = s.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			s.long = append(s.long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = s.br.ReadSlice('\n')
				s.long = append(s.long, line...)
			}
			line = s.long
		}
		if len(line) == 0 || (err != nil && err != io.EOF) {
			return nil, nil, err
		}
		if bytes.IndexByte(line, '"') >= 0 {
			s.cr = csv.NewReader(io.MultiReader(bytes.NewReader(bytes.Clone(line)), s.br))
			s.cr.FieldsPerRecord = -1
			s.cr.ReuseRecord = true
			break
		}
		s.phys++
		line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte{'\n'}), []byte{'\r'})
		if len(line) > 0 {
			return line, nil, nil
		}
	}
	rec, err = s.cr.Read()
	var perr *csv.ParseError
	if errors.As(err, &perr) {
		perr.StartLine += s.phys
		perr.Line += s.phys
	}
	return nil, rec, err
}

// readRow reads and parses one data row into a Function plus its
// owning IDs. The non-zero cells are parsed into a scratch first so
// the invocation slice is allocated exactly once at its final size,
// not grown by appends across thousands of minute columns (pinned by
// TestStreamCSVAllocsPerRow in binary_test.go).
func (s *CSVSource) readRow() (owner, appID string, fn *Function, err error) {
	line, rec, err := s.next()
	if err == io.EOF {
		return "", "", nil, io.EOF
	}
	s.line++
	if err != nil {
		return "", "", nil, fmt.Errorf("trace: reading invocations line %d: %w", s.line, err)
	}
	fields := len(rec)
	if rec == nil {
		fields = bytes.Count(line, []byte{','}) + 1
	}
	if fields != s.minutes+4 {
		return "", "", nil, fmt.Errorf("trace: line %d has %d fields, want %d", s.line, fields, s.minutes+4)
	}
	var id [4]string // new strings: rec and line are reused buffers
	for i := range id {
		if rec != nil {
			id[i] = strings.Clone(rec[i])
			continue
		}
		var field []byte
		field, line, _ = bytes.Cut(line, []byte{','})
		id[i] = string(field)
	}
	trig, err := ParseTrigger(id[3])
	if err != nil {
		return "", "", nil, fmt.Errorf("trace: line %d: %w", s.line, err)
	}

	s.nz, s.total = s.nz[:0], 0
	if rec == nil {
		err = s.parseCells(line)
	} else {
		for m := 0; m < s.minutes && err == nil; m++ {
			n, cellErr := parseCount(rec[4+m])
			err = s.addCount(m, n, cellErr)
		}
	}
	if err != nil {
		return "", "", nil, err
	}

	fn = &Function{ID: id[2], Trigger: trig}
	if s.total > 0 {
		fn.Invocations = make([]float64, 0, s.total)
		for _, c := range s.nz {
			fn.Invocations = SpreadMinute(fn.Invocations, c.m, c.n)
		}
	}
	return id[0], id[1], fn, nil
}

// zeroCells is "0,0,0,0," read as a little-endian uint64.
const zeroCells = 0x2c302c302c302c30

// parseCells parses a quote-free row's minute cells, whose number
// readRow has checked. Four zero cells — most of the dataset (§3: 45%
// of apps average at most one invocation an hour) — are one compare.
func (s *CSVSource) parseCells(cells []byte) error {
	for m := 0; ; m++ {
		for len(cells) >= 8 && binary.LittleEndian.Uint64(cells) == zeroCells {
			cells, m = cells[8:], m+4
		}
		end := bytes.IndexByte(cells, ',')
		if end < 0 {
			end = len(cells)
		}
		n, err := parseCount(cells[:end])
		if err := s.addCount(m, n, err); err != nil || end == len(cells) {
			return err
		}
		cells = cells[end+1:]
	}
}

// plainDigits is how many decimal digits always fit an int.
const plainDigits = 9 + 9*(strconv.IntSize/64)

// parseCount is the one count parser, for both row forms: a cell of
// plain digits is read in a digit loop and anything else — empty,
// signed, too long, not a number — by strconv.Atoi, which so defines
// every value and every error text.
func parseCount[T string | []byte](cell T) (int, error) {
	n, plain := 0, len(cell) > 0 && len(cell) <= plainDigits
	for i := 0; plain && i < len(cell); i++ {
		d := cell[i] - '0'
		n, plain = n*10+int(d), d <= 9
	}
	if !plain {
		return strconv.Atoi(string(cell))
	}
	return n, nil
}

// addCount adds minute m's parsed cell to the current row, bounding
// the row's total before anything is allocated for it.
func (s *CSVSource) addCount(m, n int, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("trace: line %d minute %d: %w", s.line, m+1, err)
	case n < 0:
		return fmt.Errorf("trace: line %d minute %d: negative count", s.line, m+1)
	case uint64(n) > maxFunctionInvs-s.total:
		return fmt.Errorf("trace: line %d: function has more than %d invocations", s.line, maxFunctionInvs)
	case n > 0:
		s.total += uint64(n)
		s.nz = append(s.nz, minuteCount{m, n})
	}
	return nil
}

// checkInvocationsHeader validates the fixed leading columns of an
// invocations table header.
func checkInvocationsHeader(header []string) error {
	if len(header) < 5 || header[0] != "HashOwner" || header[3] != "Trigger" {
		return fmt.Errorf("trace: unexpected invocations header %v", header[:min(4, len(header))])
	}
	return nil
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
