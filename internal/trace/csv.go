package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// The CSV schemas mirror the AzurePublicDataset release:
//
//   invocations:  HashOwner,HashApp,HashFunction,Trigger,1,2,...,N
//   durations:    HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum
//   memory:       HashOwner,HashApp,SampleCount,AverageAllocatedMb
//
// Durations are written in milliseconds, as in the published dataset.

// WriteInvocationsCSV writes the per-minute invocation-count table for
// tr to w. One row per function; the count columns cover the whole
// trace duration at 1-minute resolution. Only the four ID fields go
// through encoding/csv, so quoting is its; the counts, which never
// need any, are appended as digits to a reused row buffer.
func WriteInvocationsCSV(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	var ids bytes.Buffer
	cw := csv.NewWriter(&ids)
	var row []byte
	startRow := func(fields ...string) {
		ids.Reset()
		cw.Write(fields) // cannot fail: default delimiter, in-memory buffer
		cw.Flush()
		row = append(row[:0], ids.Bytes()[:ids.Len()-1]...) // without the newline
	}
	endRow := func() error {
		row = append(row, '\n')
		_, err := bw.Write(row)
		return err
	}

	startRow("HashOwner", "HashApp", "HashFunction", "Trigger")
	for m, minutes := 1, int(tr.Duration.Minutes()); m <= minutes; m++ {
		row = strconv.AppendInt(append(row, ','), int64(m), 10)
	}
	if err := endRow(); err != nil {
		return fmt.Errorf("trace: writing invocations header: %w", err)
	}
	for _, app := range tr.Apps {
		for _, fn := range app.Functions {
			startRow(app.Owner, app.ID, fn.ID, fn.Trigger.String())
			for _, n := range MinuteCounts(fn.Invocations, tr.Duration) {
				if n == 0 { // most of the table
					row = append(row, ',', '0')
					continue
				}
				row = strconv.AppendInt(append(row, ','), int64(n), 10)
			}
			if err := endRow(); err != nil {
				return fmt.Errorf("trace: writing invocations row: %w", err)
			}
		}
	}
	return bw.Flush()
}

// WriteDurationsCSV writes the per-function execution-time summary
// (milliseconds, as in the dataset).
func WriteDurationsCSV(w io.Writer, tr *Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"HashOwner", "HashApp", "HashFunction", "Average", "Count", "Minimum", "Maximum",
	}); err != nil {
		return fmt.Errorf("trace: writing durations header: %w", err)
	}
	for _, app := range tr.Apps {
		for _, fn := range app.Functions {
			s := fn.ExecStats
			if err := cw.Write([]string{
				app.Owner, app.ID, fn.ID,
				formatMillis(s.AvgSeconds),
				strconv.FormatInt(s.Count, 10),
				formatMillis(s.MinSeconds),
				formatMillis(s.MaxSeconds),
			}); err != nil {
				return fmt.Errorf("trace: writing durations row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMemoryCSV writes the per-application memory summary (MB).
func WriteMemoryCSV(w io.Writer, tr *Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"HashOwner", "HashApp", "SampleCount", "AverageAllocatedMb",
	}); err != nil {
		return fmt.Errorf("trace: writing memory header: %w", err)
	}
	for _, app := range tr.Apps {
		if err := cw.Write([]string{
			app.Owner, app.ID,
			strconv.Itoa(app.TotalInvocations()),
			strconv.FormatFloat(app.MemoryMB, 'f', 2, 64),
		}); err != nil {
			return fmt.Errorf("trace: writing memory row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatMillis(seconds float64) string {
	return strconv.FormatFloat(seconds*1000, 'f', 3, 64)
}

// DefaultAppMemoryMB is the paper's median per-application allocated
// memory (Figure 8: ~170 MB), the fallback charge for apps absent
// from a memory table. Without a default such apps keep MemoryMB == 0
// and are invisible to capacity accounting — a cluster simulation
// would place and evict them for free.
const DefaultAppMemoryMB = 170

// validMemoryMB reports whether mb, read from outside the program, is
// a usable memory value: finite and >= 0 (0 means "no data").
func validMemoryMB(mb float64) bool { return mb >= 0 && !math.IsInf(mb, 1) }

// MemoryTable maps app IDs to their allocated memory in MB, as read
// by ReadMemoryCSV.
type MemoryTable map[string]float64

// ReadMemoryCSV parses a memory table (the AverageAllocatedMb column
// by HashApp). Every row must hold a finite value >= 0, whichever app
// it names; a later row for the same app replaces an earlier one.
func ReadMemoryCSV(r io.Reader) (MemoryTable, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading memory header: %w", err)
	}
	col := indexColumns(header)
	for _, need := range []string{"HashApp", "AverageAllocatedMb"} {
		if _, ok := col[need]; !ok {
			return nil, fmt.Errorf("trace: memory header missing %s", need)
		}
	}
	appCol, mbCol := col["HashApp"], col["AverageAllocatedMb"]
	table := MemoryTable{}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return table, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading memory line %d: %w", line, err)
		}
		if len(rec) <= max(appCol, mbCol) {
			return nil, fmt.Errorf("trace: memory line %d: %d fields, want %d", line, len(rec), len(header))
		}
		mb, err := strconv.ParseFloat(rec[mbCol], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: memory line %d: %w", line, err)
		}
		if !validMemoryMB(mb) {
			return nil, fmt.Errorf("trace: memory line %d: %v MB is not a finite value >= 0", line, mb)
		}
		table[rec[appCol]] = mb
	}
}

// Apply fills MemoryMB on the apps of tr the table names; apps it does
// not name keep theirs. Apps still carrying MemoryMB == 0 afterwards
// (no row and no value of their own, or a zero row) are charged
// DefaultAppMemoryMB instead, and the count of such defaulted apps is
// returned so callers can surface the data gap.
func (m MemoryTable) Apply(tr *Trace) (defaulted int) {
	for _, app := range tr.Apps {
		if mb, ok := m[app.ID]; ok {
			app.MemoryMB = mb
		}
		if app.MemoryMB == 0 {
			app.MemoryMB = DefaultAppMemoryMB
			defaulted++
		}
	}
	return defaulted
}

func indexColumns(header []string) map[string]int {
	col := make(map[string]int, len(header))
	for i, name := range header {
		col[name] = i
	}
	return col
}

// SortAppsByID orders tr.Apps lexicographically, for deterministic
// output independent of generation order.
func SortAppsByID(tr *Trace) {
	sort.Slice(tr.Apps, func(i, j int) bool { return tr.Apps[i].ID < tr.Apps[j].ID })
}
