package ithist

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stats"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	check := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		h := New(DefaultConfig())
		for i := 0; i < 500; i++ {
			h.Observe(time.Duration(r.Float64() * float64(6*time.Hour)))
		}
		got, err := Decode(h.Encode())
		if err != nil {
			return false
		}
		if got.Total() != h.Total() || got.OutOfBounds() != h.OutOfBounds() {
			return false
		}
		for i := 0; i < h.Config().NumBins; i++ {
			if got.Count(i) != h.Count(i) {
				return false
			}
		}
		// Derived quantities must agree too.
		gpw, gka, gok := got.Windows()
		hpw, hka, hok := h.Windows()
		return gok == hok && gpw == hpw && gka == hka
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeDecodeConfigRoundTrip covers every percentile with one
// decimal: the encoding stores them as scaled integers, and a
// truncating conversion lost a unit for inputs like HeadPercentile 2.3,
// leaving the decoded histogram unmergeable with its live twin.
func TestEncodeDecodeConfigRoundTrip(t *testing.T) {
	roundTrip := func(cfg Config) {
		t.Helper()
		h := New(cfg)
		h.Observe(7 * time.Minute)
		got, err := Decode(h.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if got.Config() != cfg {
			t.Fatalf("decoded config %+v, want %+v", got.Config(), cfg)
		}
		if err := h.Merge(got, 1); err != nil {
			t.Fatalf("%+v: merging the decoded twin: %v", cfg, err)
		}
	}
	for p := 0; p <= 1000; p++ {
		cfg := DefaultConfig()
		cfg.HeadPercentile = float64(p) / 10
		cfg.TailPercentile = 100
		roundTrip(cfg)
		cfg.HeadPercentile = 0
		cfg.TailPercentile = float64(p) / 10
		roundTrip(cfg)
	}
}

// uvarints encodes vals the way Encode lays out its fields.
func uvarints(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestDecodeRejectsGarbage(t *testing.T) {
	// version, bins, head, tail, oob, counts...
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad varint", []byte{0xff}},
		{"truncated after version", []byte{1}},
		{"wrong version", []byte{1, 1, 2, 3}},
		// Allocating 2^33 bins was an unrecoverable out-of-memory crash.
		{"more bins than bytes", uvarints(2, 1<<33, 0, 0, 0)},
		{"bin count past int", uvarints(2, 1<<63, 500, 9900, 0)},
		{"count past the cap", uvarints(2, 1, 500, 9900, 0, 1<<63+5)},
		{"counts summing past the cap", uvarints(2, 2, 500, 9900, 0, maxCount, 1)},
		{"oob past int64", uvarints(2, 1, 500, 9900, 1<<63+1, 0)},
		{"oob past the cap", uvarints(2, 1, 500, 9900, maxCount+1, 0)},
	}
	for _, tc := range cases {
		if h, err := Decode(tc.data); err == nil {
			t.Errorf("%s: decoded T=%d oob=%d, want an error", tc.name, h.Total(), h.OutOfBounds())
		}
	}
	h, err := Decode(uvarints(2, 2, 500, 9900, maxCount, maxCount-1, 1))
	if err != nil || h.Total() != maxCount || h.OutOfBounds() != maxCount {
		t.Fatalf("counts at the cap: %v", err)
	}
}

func TestDecodeEmptyHistogram(t *testing.T) {
	h := New(DefaultConfig())
	got, err := Decode(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != 0 || got.OutOfBounds() != 0 {
		t.Fatal("empty histogram did not round trip")
	}
	if _, _, ok := got.Windows(); ok {
		t.Fatal("decoded empty histogram should have no windows")
	}
}

func TestEncodeCompact(t *testing.T) {
	// A sparse histogram should encode much smaller than 8 bytes/bin.
	h := New(DefaultConfig())
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Minute)
	}
	if n := len(h.Encode()); n > 400 {
		t.Fatalf("encoding = %d bytes, want compact", n)
	}
}

func TestMergePlainSum(t *testing.T) {
	a := New(DefaultConfig())
	b := New(DefaultConfig())
	a.Observe(10 * time.Minute)
	b.Observe(10 * time.Minute)
	b.Observe(20 * time.Minute)
	b.Observe(10 * time.Hour) // OOB
	if err := a.Merge(b, 1); err != nil {
		t.Fatal(err)
	}
	if a.Count(10) != 2 || a.Count(20) != 1 {
		t.Fatalf("counts = %d, %d", a.Count(10), a.Count(20))
	}
	if a.Total() != 3 || a.OutOfBounds() != 1 {
		t.Fatalf("total=%d oob=%d", a.Total(), a.OutOfBounds())
	}
}

func TestMergeWeighted(t *testing.T) {
	a := New(DefaultConfig())
	b := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		b.Observe(30 * time.Minute)
	}
	if err := a.Merge(b, 0.5); err != nil {
		t.Fatal(err)
	}
	if a.Count(30) != 5 {
		t.Fatalf("weighted count = %d, want 5", a.Count(30))
	}
	// CV bookkeeping must stay consistent with a fresh recompute.
	var want int64
	for _, c := range binCounts(a) {
		want += c * c
	}
	if a.sumSq != want {
		t.Fatalf("merged sumSq %d != recomputed %d", a.sumSq, want)
	}
}

func TestMergeErrors(t *testing.T) {
	a := New(DefaultConfig())
	cfg := DefaultConfig()
	cfg.NumBins = 60
	b := New(cfg)
	if err := a.Merge(b, 1); err == nil {
		t.Fatal("expected config mismatch error")
	}
	c := New(DefaultConfig())
	if err := a.Merge(c, -1); err == nil {
		t.Fatal("expected negative weight error")
	}
}

// TestMergeRejectsNonFiniteWeight: int64(NaN * c) wrote MinInt64 into
// every bin, empty ones included, before non-finite weights were
// rejected.
func TestMergeRejectsNonFiniteWeight(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := New(DefaultConfig())
		a.Observe(3 * time.Minute)
		b := New(DefaultConfig())
		b.Observe(5 * time.Minute)
		b.Observe(5 * time.Hour)
		if err := a.Merge(b, w); err == nil {
			t.Errorf("weight %v: merged, want an error", w)
		}
		if a.Total() != 1 || a.OutOfBounds() != 0 || a.Count(3) != 1 || a.Count(5) != 0 || a.Count(0) != 0 {
			t.Errorf("weight %v: rejected merge changed the histogram", w)
		}
	}
}
