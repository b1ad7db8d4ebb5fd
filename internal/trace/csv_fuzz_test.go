package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"
)

// refReadInvocationsCSV is the reference implementation the byte-level
// reader is fuzzed against: the encoding/csv + strconv.Atoi row loop
// that was the production reader until the byte-level parser replaced
// it, with the same HashApp grouping. It has no invocation bound, so
// callers keep hostile counts away from it (see fuzzExpansion).
func refReadInvocationsCSV(data []byte) (*Trace, error) {
	cr := csv.NewReader(bytes.NewReader(data))
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
	tr := &Trace{Duration: time.Duration(minutes) * time.Minute}
	seen := make(map[string]struct{})
	var counts []int
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading invocations line %d: %w", line, err)
		}
		owner, appID, fn, err := refParseInvocationRow(rec, minutes, line, &counts)
		if err != nil {
			return nil, err
		}
		if n := len(tr.Apps); n > 0 && tr.Apps[n-1].ID == appID {
			tr.Apps[n-1].Functions = append(tr.Apps[n-1].Functions, fn)
			continue
		}
		if _, dup := seen[appID]; dup {
			return nil, fmt.Errorf("trace: line %d: rows for app %s are not contiguous", line, appID)
		}
		seen[appID] = struct{}{}
		tr.Apps = append(tr.Apps, &App{ID: appID, Owner: owner, Functions: []*Function{fn}})
	}
}

// refParseInvocationRow is the replaced reader's row parser, verbatim.
func refParseInvocationRow(rec []string, minutes, line int, scratch *[]int) (owner, appID string, fn *Function, err error) {
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

// fuzzExpansion bounds what decoding data can allocate: the sum of
// every digit run in it, which no function's invocation total can
// exceed. A run of 6–19 significant digits is a count large enough to
// exhaust memory (or, in the unbounded reference, to panic), so ok is
// false; 20 or more overflow int and are an Atoi error on both sides.
func fuzzExpansion(data []byte) (sum int, ok bool) {
	for i := 0; i < len(data); {
		if data[i] < '0' || data[i] > '9' {
			i++
			continue
		}
		for i < len(data) && data[i] == '0' {
			i++
		}
		v, digits := 0, 0
		for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
			if digits++; digits <= 5 {
				v = v*10 + int(data[i]-'0')
			}
		}
		if digits > 5 && digits < 20 {
			return 0, false
		}
		if digits <= 5 {
			sum += v
		}
	}
	return sum, true
}

// requireMatchesReference decodes data with the production reader and
// with the reference and fails unless both reject it with the same
// message or both accept it and produce the same trace.
func requireMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := refReadInvocationsCSV(data)
	got, gotErr := collectCSV(bytes.NewReader(data))
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("reader error %v, reference error %v", gotErr, wantErr)
		}
		return
	}
	requireSameTrace(t, "byte-level reader", got, want)
}

// FuzzStreamInvocationsCSV: on any input the byte-level reader and the
// encoding/csv reference agree — error for error, or app for app,
// function for function, timestamp for timestamp. The seed corpus
// under testdata/fuzz covers the places the two could part: quoting
// (which hands the rest of the table to encoding/csv), line endings,
// the cells the digit loop defers to strconv.Atoi, field counts, and
// the eight-byte zero-run skip at a line end.
func FuzzStreamInvocationsCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if sum, ok := fuzzExpansion(data); !ok || sum > 1<<20 {
			t.Skip("counts too large to expand")
		}
		requireMatchesReference(t, data)
	})
}
