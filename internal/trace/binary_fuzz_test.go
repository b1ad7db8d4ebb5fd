package trace_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/bits"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
)

// FuzzBinarySource holds the WILDTRC1 decoder to its contract on any
// bytes: an error, or a trace whose every memory value is finite and
// >= 0, whose every function list is ascending within [0, horizon] —
// the order App.InvocationTimes merges without re-sorting — and that
// survives a WriteBinary round trip. The mmap
// path (OpenBinaryFile) decodes the same bytes through the same code.
func FuzzBinarySource(f *testing.F) {
	tr := genTrace(f, workload.Config{Seed: 11, NumApps: 4, Duration: 2 * time.Hour,
		MaxDailyRate: 2000, MaxEventsPerFunction: 200})
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	var empty bytes.Buffer
	if err := trace.WriteBinary(&empty, &trace.Trace{Duration: time.Hour}); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// A few bytes of run-length column can legitimately expand to
		// billions of invocations; keep the work bounded.
		if binaryWork(data) > 1<<20 {
			return
		}
		src, err := trace.NewBinarySource(bytes.NewReader(data))
		if err != nil {
			return
		}
		got, err := trace.Collect(src)
		if err != nil {
			return
		}
		horizon := got.Duration.Seconds()
		for _, app := range got.Apps {
			if !(app.MemoryMB >= 0) || math.IsInf(app.MemoryMB, 1) {
				t.Fatalf("app %q: decoded memory %v MB, want finite and >= 0", app.ID, app.MemoryMB)
			}
			for _, fn := range app.Functions {
				for i, ts := range fn.Invocations {
					if !(ts >= 0 && ts <= horizon) || i > 0 && ts < fn.Invocations[i-1] {
						t.Fatalf("app %q fn %q: invocation %d at %v breaks ascending order within [0, %v]",
							app.ID, fn.ID, i, ts, horizon)
					}
				}
			}
		}
		var enc1, enc2 bytes.Buffer
		if err := trace.WriteBinary(&enc1, got); err != nil {
			t.Fatalf("re-encoding a decoded trace: %v", err)
		}
		again, err := decodeAll(enc1.Bytes())
		if err != nil {
			t.Fatalf("decoding a re-encoded trace: %v", err)
		}
		requireSameInvocations(t, again, got)
		if err := trace.WriteBinary(&enc2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("memory or exec stats changed across a round trip")
		}
	})
}

// binaryWork walks data's WILDTRC1 record structure without expanding
// any column and returns what decoding and re-encoding it would cost:
// the invocations the columns expand to, plus the per-minute counts
// the encoder tallies for each function. Where the walk stops (bad or
// truncated input) the decoder stops too.
func binaryWork(data []byte) (work uint64) {
	r := bytes.NewReader(data)
	ok := true
	uv := func() uint64 {
		v, err := binary.ReadUvarint(r)
		ok = ok && err == nil
		return v
	}
	skip := func(n uint64) {
		if ok = ok && n <= uint64(r.Len()); ok {
			r.Seek(int64(n), io.SeekCurrent)
		}
	}
	add := func(a, b uint64) {
		hi, lo := bits.Mul64(a, b)
		var carry uint64
		if work, carry = bits.Add64(work, lo, 0); hi != 0 || carry != 0 {
			work, ok = math.MaxUint64, false
		}
	}
	skip(8) // magic
	minutes := uv()
	for apps := uv(); ok && apps > 0; apps-- {
		skip(uv()) // owner
		skip(uv()) // app ID
		skip(8)    // memory
		for fns := uv(); ok && fns > 0; fns-- {
			skip(uv())   // function ID
			skip(1 + 24) // trigger, exec avg/min/max
			uv()         // exec count
			add(1, minutes)
			for covered := uint64(0); ok && covered < minutes; {
				length, count := uv(), uv()
				if length == 0 || length > minutes-covered {
					return work
				}
				add(length, count)
				covered += length
			}
		}
	}
	return work
}
