package trace_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
)

// genTrace produces a realistic generated trace (skewed rates, mixed
// triggers, exec stats, memory footprints) for round-trip properties.
func genTrace(t testing.TB, cfg workload.Config) *trace.Trace {
	t.Helper()
	pop, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pop.Trace
}

// csvCanonical round-trips tr's invocations through the CSV codec:
// the canonical minute-resolution trace every reader must agree on.
func csvCanonical(t testing.TB, tr *trace.Trace) *trace.Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteInvocationsCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	src, err := trace.StreamInvocationsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := trace.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireSameInvocations asserts got and want carry bit-identical app
// and function identity, triggers, and invocation timestamps.
func requireSameInvocations(t *testing.T, got, want *trace.Trace) {
	t.Helper()
	if got.Duration != want.Duration {
		t.Fatalf("duration %v, want %v", got.Duration, want.Duration)
	}
	if len(got.Apps) != len(want.Apps) {
		t.Fatalf("%d apps, want %d", len(got.Apps), len(want.Apps))
	}
	for i, wa := range want.Apps {
		ga := got.Apps[i]
		if ga.ID != wa.ID || ga.Owner != wa.Owner || len(ga.Functions) != len(wa.Functions) {
			t.Fatalf("app %d: %s/%s/%d fns, want %s/%s/%d fns",
				i, ga.ID, ga.Owner, len(ga.Functions), wa.ID, wa.Owner, len(wa.Functions))
		}
		for j, wf := range wa.Functions {
			gf := ga.Functions[j]
			if gf.ID != wf.ID || gf.Trigger != wf.Trigger {
				t.Fatalf("app %s fn %d: %s/%v, want %s/%v", wa.ID, j, gf.ID, gf.Trigger, wf.ID, wf.Trigger)
			}
			if len(gf.Invocations) != len(wf.Invocations) {
				t.Fatalf("app %s fn %s: %d invocations, want %d",
					wa.ID, wf.ID, len(gf.Invocations), len(wf.Invocations))
			}
			for k := range wf.Invocations {
				if math.Float64bits(gf.Invocations[k]) != math.Float64bits(wf.Invocations[k]) {
					t.Fatalf("app %s fn %s invocation %d: %v, want %v",
						wa.ID, wf.ID, k, gf.Invocations[k], wf.Invocations[k])
				}
			}
		}
	}
}

// TestBinaryRoundTrip is the format's bit-identity property: for
// generated traces across workload shapes, encode→decode yields (a)
// exactly the trace the CSV reader produces for the same data — the
// two formats are interchangeable sources — and (b) exec stats and
// memory preserved to the bit (the binary bundle carries them
// natively; CSV needs the lossy milliseconds side tables).
func TestBinaryRoundTrip(t *testing.T) {
	cfgs := []workload.Config{
		{Seed: 7, NumApps: 60, Duration: 6 * time.Hour, MaxDailyRate: 5000, MaxEventsPerFunction: 4000},
		{Seed: 8, NumApps: 40, Duration: 24 * time.Hour, MaxDailyRate: 200, MaxEventsPerFunction: 2000},
		{Seed: 9, NumApps: 30, Duration: 3 * time.Hour, MaxDailyRate: 20000, MaxEventsPerFunction: 6000,
			Mode: workload.ModeDiurnal, RPS0: 1, RPS1: 6},
	}
	for ci, cfg := range cfgs {
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			orig := genTrace(t, cfg)

			var buf bytes.Buffer
			if err := trace.WriteBinary(&buf, orig); err != nil {
				t.Fatal(err)
			}
			t.Logf("binary %d bytes for %d apps / %d invocations",
				buf.Len(), len(orig.Apps), orig.TotalInvocations())
			got, err := decodeAll(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}

			requireSameInvocations(t, got, csvCanonical(t, orig))

			// Exec stats and memory survive to the bit (CSV cannot
			// promise this; the binary format must).
			for i, wa := range orig.Apps {
				ga := got.Apps[i]
				if math.Float64bits(ga.MemoryMB) != math.Float64bits(wa.MemoryMB) {
					t.Fatalf("app %s memory %v, want %v", wa.ID, ga.MemoryMB, wa.MemoryMB)
				}
				for j, wf := range wa.Functions {
					ge, we := ga.Functions[j].ExecStats, wf.ExecStats
					if math.Float64bits(ge.AvgSeconds) != math.Float64bits(we.AvgSeconds) ||
						math.Float64bits(ge.MinSeconds) != math.Float64bits(we.MinSeconds) ||
						math.Float64bits(ge.MaxSeconds) != math.Float64bits(we.MaxSeconds) ||
						ge.Count != we.Count {
						t.Fatalf("app %s fn %s exec stats %+v, want %+v", wa.ID, wf.ID, ge, we)
					}
				}
			}

			// A second round trip is a fixed point: minute resolution is
			// already canonical, so re-encoding loses nothing.
			var buf2 bytes.Buffer
			if err := trace.WriteBinary(&buf2, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatal("re-encoding a decoded trace changed the bytes")
			}
		})
	}
}

// TestBinaryFileRoundTrip exercises OpenBinaryFile (the mmap-or-
// read-whole path) against the in-memory reader.
func TestBinaryFileRoundTrip(t *testing.T) {
	orig := genTrace(t, workload.Config{
		Seed: 11, NumApps: 25, Duration: 4 * time.Hour,
		MaxDailyRate: 3000, MaxEventsPerFunction: 3000,
	})
	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, orig); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	src, err := trace.OpenBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got, err := trace.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	requireSameInvocations(t, got, csvCanonical(t, orig))
}

// TestBinaryEdgeShapes round-trips degenerate traces: no apps, an app
// with no functions, a function that never fires, a zero horizon.
func TestBinaryEdgeShapes(t *testing.T) {
	// Cases CSV can also express compare against the CSV canonical
	// form; cases it cannot (function-less apps, zero horizon) are
	// structurally faithful in binary and compare against themselves.
	cases := []struct {
		tr     *trace.Trace
		viaCSV bool
	}{
		{&trace.Trace{Duration: time.Hour}, true},
		{&trace.Trace{Duration: time.Minute,
			Apps: []*trace.App{{ID: "a", Owner: "o", MemoryMB: 64}}}, false},
		{&trace.Trace{Apps: []*trace.App{{ID: "a", Owner: "o", MemoryMB: 64,
			Functions: []*trace.Function{{ID: "f", Trigger: trace.TriggerHTTP}}}}}, false},
		{&trace.Trace{Duration: 30 * time.Minute, Apps: []*trace.App{{
			ID: "a", Owner: "o", MemoryMB: 128,
			Functions: []*trace.Function{
				{ID: "idle", Trigger: trace.TriggerTimer},
				{ID: "busy", Trigger: trace.TriggerHTTP, Invocations: []float64{0, 60, 61, 1700}},
			},
		}}}, true},
	}
	for i, tc := range cases {
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, tc.tr); err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		got, err := decodeAll(buf.Bytes())
		if err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		want := tc.tr
		if tc.viaCSV {
			want = csvCanonical(t, tc.tr)
		}
		requireSameInvocations(t, got, want)
	}
}

// TestBinaryTruncated decodes every strict prefix of a valid bundle
// and requires an error each time — a truncated file must never decode
// silently into a shorter trace.
func TestBinaryTruncated(t *testing.T) {
	tr := &trace.Trace{Duration: 10 * time.Minute, Apps: []*trace.App{
		{ID: "alpha", Owner: "own", MemoryMB: 96, Functions: []*trace.Function{
			{ID: "f1", Trigger: trace.TriggerQueue, Invocations: []float64{5, 65, 300},
				ExecStats: trace.ExecStats{AvgSeconds: 0.2, MinSeconds: 0.1, MaxSeconds: 0.9, Count: 3}},
		}},
		{ID: "beta", Owner: "own", MemoryMB: 256, Functions: []*trace.Function{
			{ID: "f2", Trigger: trace.TriggerHTTP, Invocations: []float64{0, 1, 2, 599}},
		}},
	}}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := 0; n < len(data); n++ {
		src, err := trace.NewBinarySource(bytes.NewReader(data[:n]))
		if err != nil {
			continue // header already rejected
		}
		for {
			_, err = src.Next()
			if err != nil {
				break
			}
		}
		if err == nil || err == io.EOF {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(data))
		}
	}
}

// TestBinaryCorrupt rejects structurally invalid bundles with errors,
// not panics or garbage traces.
func TestBinaryCorrupt(t *testing.T) {
	tr := &trace.Trace{Duration: 5 * time.Minute, Apps: []*trace.App{
		{ID: "a", Owner: "o", MemoryMB: 64, Functions: []*trace.Function{
			{ID: "f", Trigger: trace.TriggerHTTP, Invocations: []float64{10, 70}},
		}},
	}}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		data := bytes.Clone(valid)
		data[0] ^= 0xff
		if _, err := trace.NewBinarySource(bytes.NewReader(data)); err == nil {
			t.Fatal("corrupt magic accepted")
		}
	})
	t.Run("bad trigger", func(t *testing.T) {
		// The trigger byte follows the one-byte-length "f" function ID;
		// locate it as the byte right after the only "f" in the app
		// record region.
		data := bytes.Clone(valid)
		i := bytes.LastIndexByte(data, 'f')
		data[i+1] = 0xee
		if _, err := decodeAll(data); err == nil {
			t.Fatal("unknown trigger accepted")
		}
	})
	t.Run("wrapping run fields", func(t *testing.T) {
		// A run length that wraps the minutes covered, and a run count
		// whose product with its length wraps to zero, must fail, not
		// decode into a silently different column.
		record := func(runs ...uint64) []byte {
			data := binary.AppendUvarint([]byte("WILDTRC1"), 2)
			data = append(data, 1, 1, 'o', 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 'f', 0)
			data = append(data, make([]byte, 24)...)
			data = append(data, 0)
			for _, v := range runs {
				data = binary.AppendUvarint(data, v)
			}
			return data
		}
		for name, data := range map[string][]byte{
			"length": record(1, 0, math.MaxUint64, 0, 2, 0),
			"count":  record(2, 1<<63),
		} {
			if _, err := decodeAll(data); err == nil {
				t.Fatalf("wrapping run %s accepted", name)
			}
		}
	})
	t.Run("bad memory", func(t *testing.T) {
		// A NaN, infinite or negative memory value must fail naming the
		// app, not reach a cluster's resident-MB accounting.
		for _, mb := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -500} {
			bad := &trace.Trace{Duration: tr.Duration, Apps: []*trace.App{tr.Apps[0].Clone()}}
			bad.Apps[0].MemoryMB = mb
			var buf bytes.Buffer
			if err := trace.WriteBinary(&buf, bad); err != nil {
				t.Fatal(err)
			}
			if _, err := decodeAll(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "app a") {
				t.Errorf("memory %v: err = %v, want an error naming app a", mb, err)
			}
		}
	})
	t.Run("flipped count bits", func(t *testing.T) {
		// Growing a run length mid-column either overruns the horizon
		// or truncates the stream; both must surface as errors.
		data := bytes.Clone(valid)
		data[len(data)-2] = 0xff
		data[len(data)-1] = 0x7f
		if _, err := decodeAll(data); err == nil {
			t.Fatal("oversized trailing varint accepted")
		}
	})
}

// decodeAll is what a binary does with a whole WILDTRC1 stream:
// Collect over the stream decoder.
func decodeAll(data []byte) (*trace.Trace, error) {
	src, err := trace.NewBinarySource(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return trace.Collect(src)
}

// TestBinarySourceAllocs pins the binary reader's per-app allocation
// count: decoding must allocate only the app's own structures (IDs,
// functions, one exactly-sized invocation slice each), independent of
// how many minutes the columns span.
func TestBinarySourceAllocs(t *testing.T) {
	tr := syntheticBinaryTrace(400, 1440, 4)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewBinarySource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(300, func() {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	})
	// One app with one function decodes in ~8 allocations (app, slice
	// headers, strings, invocation payload). Append-grown columns or
	// per-minute scratch would multiply this.
	if avg > 12 {
		t.Fatalf("binary reader allocates %.1f objects per app, want <= 12", avg)
	}
}

// TestStreamCSVAllocsPerRow pins the streaming CSV reader's per-row
// allocation count. The invocation slice must be allocated exactly
// once at its final size (counts are parsed into a reused scratch
// first); before that fix a 1440-minute row with thousands of
// invocations paid ~14 append-doublings per row.
func TestStreamCSVAllocsPerRow(t *testing.T) {
	tr := syntheticBinaryTrace(400, 1440, 4)
	var buf bytes.Buffer
	if err := trace.WriteInvocationsCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	src, err := trace.StreamInvocationsCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(300, func() {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 14 {
		t.Fatalf("CSV stream allocates %.1f objects per single-function app, want <= 14", avg)
	}
}

// syntheticBinaryTrace builds single-function apps with perMinute
// invocations in every one of minutes minutes — the dense shape where
// append-grown invocation slices are most expensive.
func syntheticBinaryTrace(apps, minutes, perMinute int) *trace.Trace {
	tr := &trace.Trace{Duration: time.Duration(minutes) * time.Minute}
	for i := 0; i < apps; i++ {
		var inv []float64
		for m := 0; m < minutes; m++ {
			inv = trace.SpreadMinute(inv, m, perMinute)
		}
		tr.Apps = append(tr.Apps, &trace.App{
			ID: fmt.Sprintf("app%05d", i), Owner: fmt.Sprintf("own%05d", i/4), MemoryMB: 128,
			Functions: []*trace.Function{{
				ID: fmt.Sprintf("fn%05d", i), Trigger: trace.TriggerHTTP, Invocations: inv,
				ExecStats: trace.ExecStats{AvgSeconds: 0.5, MinSeconds: 0.1, MaxSeconds: 2, Count: 100},
			}},
		})
	}
	return tr
}

// mixedApps builds n small apps with one to three functions each,
// varied triggers, exec stats and columns over a one-hour horizon.
func mixedApps(n int) *trace.Trace {
	tr := &trace.Trace{Duration: time.Hour}
	for i := range n {
		app := &trace.App{ID: fmt.Sprintf("app%04d", i), Owner: fmt.Sprintf("own%d", i%7), MemoryMB: float64(64 + i%5*32)}
		for j := range i%3 + 1 {
			fn := &trace.Function{ID: fmt.Sprintf("fn%04d-%d", i, j), Trigger: trace.TriggerType((i + j) % trace.NumTriggers),
				ExecStats: trace.ExecStats{AvgSeconds: 0.1 * float64(j+1), MinSeconds: 0.05, MaxSeconds: float64(i%4 + 1), Count: int64(i + j)}}
			for m := (i + 3*j) % 9; m < 60; m += 7 + (i+j)%11 {
				fn.Invocations = trace.SpreadMinute(fn.Invocations, m, 1+(i*j+m)%4)
			}
			app.Functions = append(app.Functions, fn)
		}
		tr.Apps = append(tr.Apps, app)
	}
	return tr
}

func encode(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryHostileHeader feeds a valid magic and a header claiming
// 2^31-1 apps on a few bytes: decoding fails, and nothing is sized from
// the claim.
func TestBinaryHostileHeader(t *testing.T) {
	data := []byte("WILDTRC1")
	data = binary.AppendUvarint(data, 60)
	data = binary.AppendUvarint(data, math.MaxInt32)
	data = append(data, 3, 'o', 'w', 'n', 1, 'a', 0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := decodeAll(data); err == nil {
		t.Fatalf("decoded a %d-byte input claiming 2^31-1 apps", len(data))
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("allocated %d bytes on a %d-byte input", grew, len(data))
	}
}
