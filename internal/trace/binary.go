package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"time"
)

// Binary trace format ("tracec"): a compact columnar bundle replacing
// the three-CSV layout for large traces. One file carries everything a
// simulation needs — per-app memory, per-function exec stats, and the
// per-minute invocation-count columns — so an Azure-scale trace opens
// in seconds instead of the minutes a CSV parse takes.
//
// Layout (all integers unsigned varints, all floats IEEE-754 bits in
// little-endian order):
//
//	magic    "WILDTRC1" (8 bytes)
//	minutes  uvarint — horizon at 1-minute resolution
//	numApps  uvarint
//	apps     numApps × app record, in trace order:
//	  owner     uvarint length + bytes
//	  appID     uvarint length + bytes
//	  memoryMB  float64 bits (8 bytes)
//	  numFns    uvarint
//	  fns       numFns × function record:
//	    fnID     uvarint length + bytes
//	    trigger  1 byte
//	    exec     avg, min, max float64 bits (24 bytes) + count uvarint
//	    column   run-length pairs (runLen uvarint, count uvarint);
//	             run lengths sum to exactly minutes
//
// The invocation column is the CSV writer's per-minute count row,
// run-length + varint compressed (idle minutes collapse to one pair).
// Decoding expands counts through SpreadMinute — the same canonical
// minute-to-timestamps definition every CSV reader uses — so a binary
// round trip is bit-identical to the CSV round trip of the same trace
// (pinned by TestBinaryRoundTrip).
const binaryMagic = "WILDTRC1"

// Decoder sanity bounds: generous for any real trace, tight enough
// that a corrupt length field fails cleanly instead of allocating
// unboundedly.
const (
	binaryMaxMinutes = 1 << 24 // ~31 years at 1-minute resolution
	binaryMaxString  = 1 << 20
	binaryMaxFns     = 1 << 22
)

// minFnRecord is the smallest encoding of a function record (ID
// length, trigger, exec stats, exec count). An app's function slice,
// presized from its claimed count, is capped at what the remaining
// bytes can hold, so a hostile count costs no memory.
const minFnRecord = 1 + 1 + 24 + 1

// maxFunctionInvs bounds one function's expanded invocations, for this
// decoder and the CSV reader alike: a hostile count is an error, not a
// makeslice panic or a total that wraps negative.
const maxFunctionInvs uint64 = 1 << 31

// WriteBinary encodes tr to w in the binary trace format.
func WriteBinary(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		bw.Write(buf[:n])
	}
	putF64 := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(f))
		bw.Write(buf[:8])
	}
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		bw.WriteString(s)
	}

	bw.WriteString(binaryMagic)
	minutes := int(tr.Duration.Minutes())
	putUvarint(uint64(minutes))
	putUvarint(uint64(len(tr.Apps)))
	for _, app := range tr.Apps {
		putString(app.Owner)
		putString(app.ID)
		putF64(app.MemoryMB)
		putUvarint(uint64(len(app.Functions)))
		for _, fn := range app.Functions {
			putString(fn.ID)
			bw.WriteByte(byte(fn.Trigger))
			putF64(fn.ExecStats.AvgSeconds)
			putF64(fn.ExecStats.MinSeconds)
			putF64(fn.ExecStats.MaxSeconds)
			if fn.ExecStats.Count < 0 {
				return fmt.Errorf("trace: function %s has negative exec count", fn.ID)
			}
			putUvarint(uint64(fn.ExecStats.Count))
			counts := MinuteCounts(fn.Invocations, tr.Duration)
			for i := 0; i < len(counts); {
				j := i
				for j < len(counts) && counts[j] == counts[i] {
					j++
				}
				putUvarint(uint64(j - i))
				putUvarint(uint64(counts[i]))
				i = j
			}
		}
	}
	return bw.Flush()
}

// errMappingChanged is the error for a fault while reading a mapped
// trace: the file shrank under the mapping.
var errMappingChanged = errors.New("trace: binary trace changed while mapped")

var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// BinarySource streams a binary trace bundle as a Source, one app at a
// time — the tracec counterpart of CSVSource. It decodes straight from
// the file's bytes: a read-only mapping where the platform allows, the
// whole file read into memory otherwise.
type BinarySource struct {
	data    []byte
	off     int
	minutes uint64
	apps    int // remaining app records
	err     error
	closer  func() error
	// Decode scratch, reused across records so a steady-state Next
	// allocates only the app's own structures (pinned by
	// TestBinarySourceAllocs).
	runs []colRun
}

// colRun is one decoded run of the invocation column: count
// invocations per minute for length minutes starting at start.
type colRun struct{ start, length, count uint64 }

// NewBinarySource opens a binary trace for streaming from r. It reads
// r in full, then the header, so the horizon is known before the first
// app.
func NewBinarySource(r io.Reader) (*BinarySource, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading binary trace: %w", err)
	}
	return newBinarySource(data, nil)
}

// OpenBinaryFile opens a binary trace file, memory-mapping it when the
// platform allows (the decode then walks the page cache directly) and
// reading the whole file into memory otherwise. Callers should Close
// the source; draining it to io.EOF also releases the file.
func OpenBinaryFile(path string) (*BinarySource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: opening binary trace: %w", err)
	}
	data, ok := mmapFile(f)
	if !ok {
		f.Close()
		// os.ReadFile sizes its buffer from the file's size, so the
		// fallback holds the file once, with no growth slack.
		if data, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("trace: reading binary trace: %w", err)
		}
		return newBinarySource(data, nil)
	}
	src, err := newBinarySource(data, func() error {
		munmapFile(data)
		return f.Close()
	})
	if err != nil {
		munmapFile(data)
		f.Close()
		return nil, err
	}
	return src, nil
}

func newBinarySource(data []byte, closer func() error) (_ *BinarySource, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer recoverFault(&err)
	if len(data) < len(binaryMagic) {
		return nil, fmt.Errorf("trace: reading binary magic: %w", io.ErrUnexpectedEOF)
	}
	if magic := data[:len(binaryMagic)]; string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: not a binary trace (magic %q)", magic)
	}
	r := &BinarySource{data: data, off: len(binaryMagic), closer: closer}
	minutes, err := r.uvarint("minutes")
	if err != nil {
		return nil, err
	}
	if minutes > binaryMaxMinutes {
		return nil, fmt.Errorf("trace: binary trace claims %d minutes", minutes)
	}
	apps, err := r.uvarint("app count")
	if err != nil {
		return nil, err
	}
	if apps > math.MaxInt32 {
		return nil, fmt.Errorf("trace: binary trace claims %d apps", apps)
	}
	r.minutes, r.apps = minutes, int(apps)
	return r, nil
}

// recoverFault, deferred after debug.SetPanicOnFault(true), turns a
// memory fault (a read past the end of a mapped file that shrank) into
// errMappingChanged. Any other panic goes on.
func recoverFault(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(interface{ Addr() uintptr }); !ok {
			panic(r)
		}
		*err = errMappingChanged
	}
}

// Horizon implements Source.
func (s *BinarySource) Horizon() time.Duration {
	return time.Duration(s.minutes) * time.Minute
}

// Close releases the backing file or mapping. Safe to call more than
// once and after the source is drained.
func (s *BinarySource) Close() error {
	c := s.closer
	s.closer = nil
	if c != nil {
		return c()
	}
	return nil
}

// Next implements Source: it decodes the next application record.
func (s *BinarySource) Next() (*App, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.apps == 0 {
		s.err = io.EOF
		s.Close()
		return nil, io.EOF
	}
	app, err := s.decode()
	if err != nil {
		s.err = err
		s.Close()
		return nil, err
	}
	s.apps--
	return app, nil
}

func (s *BinarySource) decode() (_ *App, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer recoverFault(&err)
	return s.app()
}

// app decodes the record at s.off.
func (s *BinarySource) app() (*App, error) {
	owner, err := s.str("owner")
	if err != nil {
		return nil, err
	}
	id, err := s.str("app ID")
	if err != nil {
		return nil, err
	}
	memMB, err := s.f64("memory")
	if err != nil {
		return nil, err
	}
	if !validMemoryMB(memMB) {
		return nil, fmt.Errorf("trace: app %s: memory %v MB is not a finite value >= 0", id, memMB)
	}
	nfns, err := s.uvarint("function count")
	if err != nil {
		return nil, err
	}
	if nfns > binaryMaxFns {
		return nil, fmt.Errorf("trace: app %s claims %d functions", id, nfns)
	}
	app := &App{ID: id, Owner: owner, MemoryMB: memMB,
		Functions: make([]*Function, 0, min(nfns, uint64(len(s.data)-s.off)/minFnRecord+1))}
	for i := uint64(0); i < nfns; i++ {
		fn, err := s.function()
		if err != nil {
			return nil, fmt.Errorf("trace: app %s: %w", id, err)
		}
		app.Functions = append(app.Functions, fn)
	}
	return app, nil
}

func (s *BinarySource) function() (*Function, error) {
	id, err := s.str("function ID")
	if err != nil {
		return nil, err
	}
	if s.off >= len(s.data) {
		return nil, fmt.Errorf("reading trigger: %w", io.ErrUnexpectedEOF)
	}
	trig := s.data[s.off]
	s.off++
	if int(trig) >= NumTriggers {
		return nil, fmt.Errorf("function %s: unknown trigger %d", id, trig)
	}
	var st ExecStats
	if st.AvgSeconds, err = s.f64("exec avg"); err != nil {
		return nil, err
	}
	if st.MinSeconds, err = s.f64("exec min"); err != nil {
		return nil, err
	}
	if st.MaxSeconds, err = s.f64("exec max"); err != nil {
		return nil, err
	}
	count, err := s.uvarint("exec count")
	if err != nil {
		return nil, err
	}
	if count > math.MaxInt64 {
		return nil, fmt.Errorf("function %s: exec count overflow", id)
	}
	st.Count = int64(count)

	// The invocation column: runs must tile the horizon exactly. The
	// expansion allocates once (the total is known from the runs) and
	// follows SpreadMinute, the canonical count-to-timestamp definition
	// shared with the CSV readers.
	runs := s.runs[:0]
	covered, total := uint64(0), uint64(0)
	data, off := s.data, s.off
	for covered < s.minutes {
		// Most runs are two one-byte varints: read those in place.
		var length, count uint64
		if off+1 < len(data) && data[off]|data[off+1] < 0x80 {
			length, count = uint64(data[off]), uint64(data[off+1])
			off += 2
		} else {
			s.off = off
			if length, err = s.uvarint("run length"); err == nil {
				count, err = s.uvarint("run count")
			}
			if err != nil {
				return nil, fmt.Errorf("function %s: %w", id, err)
			}
			off = s.off
		}
		if length == 0 || length > s.minutes-covered {
			return nil, fmt.Errorf("function %s: run of %d minutes at %d overruns the %d-minute horizon",
				id, length, covered, s.minutes)
		}
		// length ≤ 2^24 and count ≤ 2^31 here, so neither the product
		// nor the sum wraps before the bound trips.
		if count > maxFunctionInvs {
			return nil, fmt.Errorf("function %s: invocation column overflows", id)
		}
		total += length * count
		if total > maxFunctionInvs {
			return nil, fmt.Errorf("function %s: invocation column overflows", id)
		}
		if count > 0 {
			runs = append(runs, colRun{covered, length, count})
		}
		covered += length
	}
	s.off, s.runs = off, runs
	fn := &Function{ID: id, Trigger: TriggerType(trig), ExecStats: st}
	if total > 0 {
		inv := make([]float64, total)
		i := 0
		for _, run := range runs {
			m, end := int(run.start), int(run.start+run.length)
			if run.count == 1 {
				// SpreadMinute's one invocation in minute m, written
				// in place: the commonest run of a sparse column.
				for ; m < end; m++ {
					inv[i] = float64(m) * 60
					i++
				}
				continue
			}
			for ; m < end; m++ {
				i += len(SpreadMinute(inv[i:i], m, int(run.count)))
			}
		}
		fn.Invocations = inv
	}
	return fn, nil
}

// str reads a length-prefixed string.
func (s *BinarySource) str(what string) (string, error) {
	n, err := s.uvarint(what)
	if err != nil {
		return "", err
	}
	if n > binaryMaxString {
		return "", fmt.Errorf("trace: %s of %d bytes", what, n)
	}
	if n > uint64(len(s.data)-s.off) {
		return "", fmt.Errorf("trace: reading %s: %w", what, io.ErrUnexpectedEOF)
	}
	a := s.off
	s.off += int(n)
	return string(s.data[a:s.off]), nil
}

func (s *BinarySource) f64(what string) (float64, error) {
	if len(s.data)-s.off < 8 {
		return 0, fmt.Errorf("trace: reading %s: %w", what, io.ErrUnexpectedEOF)
	}
	v := binary.LittleEndian.Uint64(s.data[s.off:])
	s.off += 8
	return math.Float64frombits(v), nil
}

// uvarint reads an unsigned varint; the one-byte case, most of a
// column, stays inline.
func (s *BinarySource) uvarint(what string) (uint64, error) {
	if s.off < len(s.data) && s.data[s.off] < 0x80 {
		v := s.data[s.off]
		s.off++
		return uint64(v), nil
	}
	return s.uvarintLong(what)
}

func (s *BinarySource) uvarintLong(what string) (uint64, error) {
	v, n := binary.Uvarint(s.data[s.off:])
	if n <= 0 {
		err := io.ErrUnexpectedEOF
		if n < 0 {
			err = errVarintOverflow
		}
		return 0, fmt.Errorf("trace: reading %s: %w", what, err)
	}
	s.off += n
	return v, nil
}
