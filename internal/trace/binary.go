package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
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

// byteScanner is what the decoder needs: buffered byte-wise reads for
// varints plus bulk reads for strings. Both *bufio.Reader (streaming)
// and *bytes.Reader (mmap) satisfy it.
type byteScanner interface {
	io.Reader
	io.ByteReader
}

// BinarySource streams a binary trace bundle as a Source, one app at a
// time in constant memory — the tracec counterpart of CSVSource.
type BinarySource struct {
	r       byteScanner
	dur     time.Duration
	minutes int
	apps    int // remaining app records
	err     error
	closer  func() error

	// Decode scratch, reused across records so a steady-state Next
	// allocates only the app's own structures (pinned by
	// TestBinarySourceAllocs).
	strBuf []byte
	f64Buf [8]byte
	runs   []colRun
}

// colRun is one decoded run of the invocation column: count
// invocations per minute for length minutes starting at start.
type colRun struct{ start, length, count uint64 }

// NewBinarySource opens a binary trace for streaming from r, reading
// the header eagerly so the horizon is known before the first app.
func NewBinarySource(r io.Reader) (*BinarySource, error) {
	bs, ok := r.(byteScanner)
	if !ok {
		bs = bufio.NewReaderSize(r, 1<<16)
	}
	return newBinarySource(bs, nil)
}

// OpenBinaryFile opens a binary trace file, memory-mapping it when the
// platform allows (the column decode then walks the page cache
// directly) and falling back to buffered reads. Callers should Close
// the source; draining it to io.EOF also releases the file.
func OpenBinaryFile(path string) (*BinarySource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: opening binary trace: %w", err)
	}
	if data, ok := mmapFile(f); ok {
		src, err := newBinarySource(bytes.NewReader(data), func() error {
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
	src, err := newBinarySource(bufio.NewReaderSize(f, 1<<20), f.Close)
	if err != nil {
		f.Close()
		return nil, err
	}
	return src, nil
}

func newBinarySource(r byteScanner, closer func() error) (*BinarySource, error) {
	var magic [len(binaryMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading binary magic: %w", noEOF(err))
	}
	if string(magic[:]) != binaryMagic {
		return nil, fmt.Errorf("trace: not a binary trace (magic %q)", magic)
	}
	minutes, err := readUvarint(r, "minutes")
	if err != nil {
		return nil, err
	}
	if minutes > binaryMaxMinutes {
		return nil, fmt.Errorf("trace: binary trace claims %d minutes", minutes)
	}
	apps, err := readUvarint(r, "app count")
	if err != nil {
		return nil, err
	}
	if apps > math.MaxInt32 {
		return nil, fmt.Errorf("trace: binary trace claims %d apps", apps)
	}
	return &BinarySource{
		r:       r,
		dur:     time.Duration(minutes) * time.Minute,
		minutes: int(minutes),
		apps:    int(apps),
		closer:  closer,
	}, nil
}

// Horizon implements Source.
func (s *BinarySource) Horizon() time.Duration { return s.dur }

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
	app, err := s.readApp()
	if err != nil {
		s.err = err
		s.Close()
		return nil, err
	}
	s.apps--
	return app, nil
}

func (s *BinarySource) readApp() (*App, error) {
	owner, err := s.readString("owner")
	if err != nil {
		return nil, err
	}
	id, err := s.readString("app ID")
	if err != nil {
		return nil, err
	}
	memMB, err := s.readF64("memory")
	if err != nil {
		return nil, err
	}
	nfns, err := readUvarint(s.r, "function count")
	if err != nil {
		return nil, err
	}
	if nfns > binaryMaxFns {
		return nil, fmt.Errorf("trace: app %s claims %d functions", id, nfns)
	}
	app := &App{ID: id, Owner: owner, MemoryMB: memMB,
		Functions: make([]*Function, 0, nfns)}
	for i := uint64(0); i < nfns; i++ {
		fn, err := s.readFunction()
		if err != nil {
			return nil, fmt.Errorf("trace: app %s: %w", id, err)
		}
		app.Functions = append(app.Functions, fn)
	}
	return app, nil
}

func (s *BinarySource) readFunction() (*Function, error) {
	id, err := s.readString("function ID")
	if err != nil {
		return nil, err
	}
	trig, err := s.r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("reading trigger: %w", noEOF(err))
	}
	if int(trig) >= NumTriggers {
		return nil, fmt.Errorf("function %s: unknown trigger %d", id, trig)
	}
	fn := &Function{ID: id, Trigger: TriggerType(trig)}
	if fn.ExecStats.AvgSeconds, err = s.readF64("exec avg"); err != nil {
		return nil, err
	}
	if fn.ExecStats.MinSeconds, err = s.readF64("exec min"); err != nil {
		return nil, err
	}
	if fn.ExecStats.MaxSeconds, err = s.readF64("exec max"); err != nil {
		return nil, err
	}
	count, err := readUvarint(s.r, "exec count")
	if err != nil {
		return nil, err
	}
	if count > math.MaxInt64 {
		return nil, fmt.Errorf("function %s: exec count overflow", id)
	}
	fn.ExecStats.Count = int64(count)

	// The invocation column: runs must tile the horizon exactly. The
	// expansion allocates once (the total is known from the runs) and
	// goes through SpreadMinute, the canonical count-to-timestamp
	// definition shared with the CSV readers.
	runs := s.runs[:0]
	covered, total := uint64(0), uint64(0)
	for covered < uint64(s.minutes) {
		length, err := readUvarint(s.r, "run length")
		if err != nil {
			return nil, fmt.Errorf("function %s: %w", id, err)
		}
		count, err := readUvarint(s.r, "run count")
		if err != nil {
			return nil, fmt.Errorf("function %s: %w", id, err)
		}
		if length == 0 || covered+length > uint64(s.minutes) {
			return nil, fmt.Errorf("function %s: run of %d minutes at %d overruns the %d-minute horizon",
				id, length, covered, s.minutes)
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
	s.runs = runs
	if total > 0 {
		inv := make([]float64, 0, total)
		for _, r := range runs {
			for k := uint64(0); k < r.length; k++ {
				inv = SpreadMinute(inv, int(r.start+k), int(r.count))
			}
		}
		fn.Invocations = inv
	}
	return fn, nil
}

func (s *BinarySource) readString(what string) (string, error) {
	n, err := readUvarint(s.r, what)
	if err != nil {
		return "", err
	}
	if n > binaryMaxString {
		return "", fmt.Errorf("trace: %s of %d bytes", what, n)
	}
	if uint64(cap(s.strBuf)) < n {
		s.strBuf = make([]byte, n)
	}
	b := s.strBuf[:n]
	if _, err := io.ReadFull(s.r, b); err != nil {
		return "", fmt.Errorf("trace: reading %s: %w", what, noEOF(err))
	}
	return string(b), nil
}

func (s *BinarySource) readF64(what string) (float64, error) {
	// s.f64Buf rather than a local: a stack buffer would escape through
	// the io.ReadFull interface call and cost an allocation per field.
	if _, err := io.ReadFull(s.r, s.f64Buf[:]); err != nil {
		return 0, fmt.Errorf("trace: reading %s: %w", what, noEOF(err))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(s.f64Buf[:])), nil
}

func readUvarint(r io.ByteReader, what string) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("trace: reading %s: %w", what, noEOF(err))
	}
	return v, nil
}

// noEOF turns a bare io.EOF into io.ErrUnexpectedEOF: inside a record,
// end-of-input means truncation, not a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
