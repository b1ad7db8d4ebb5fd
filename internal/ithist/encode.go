package ithist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary encoding backs the production implementation's hourly
// database backups (§6): a fixed header (version, bin count, cutoff
// percentiles) followed by varint-encoded bin counts and the OOB
// counter. A 240-bin histogram with small counts encodes to a few
// hundred bytes; in memory its dense form is 960 bytes of uint32
// counters (and the small form, before the ninth in-bounds
// observation, no bin array at all). Either form encodes the same
// bytes, and Decode returns the dense form.

// encodingVersion is 2: version 1 also carried the bin width and the
// margin, so its bytes would misread as this layout.
const encodingVersion = 2

// Encode serializes the histogram (configuration and counters). The
// percentiles are stored in hundredths, rounded to nearest, so any
// config with that many decimals decodes to itself.
func (h *Histogram) Encode() []byte {
	buf := make([]byte, 0, 64+h.cfg.NumBins)
	buf = binary.AppendUvarint(buf, encodingVersion)
	buf = binary.AppendUvarint(buf, uint64(h.cfg.NumBins))
	buf = binary.AppendUvarint(buf, uint64(math.Round(h.cfg.HeadPercentile*100)))
	buf = binary.AppendUvarint(buf, uint64(math.Round(h.cfg.TailPercentile*100)))
	buf = binary.AppendUvarint(buf, uint64(h.oob))
	for i := 0; i < h.cfg.NumBins; i++ {
		buf = binary.AppendUvarint(buf, uint64(h.Count(i)))
	}
	return buf
}

// Decode reconstructs a histogram serialized by Encode. It rejects,
// rather than wraps, any input no Observe or Merge sequence produces:
// more bins than bytes left to count them, or counts past the
// saturation cap.
func Decode(data []byte) (*Histogram, error) {
	read := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("ithist: truncated encoding")
		}
		data = data[n:]
		return v, nil
	}
	version, err := read()
	if err != nil {
		return nil, err
	}
	if version != encodingVersion {
		return nil, fmt.Errorf("ithist: unsupported encoding version %d", version)
	}
	var vals [3]uint64
	for i := range vals {
		if vals[i], err = read(); err != nil {
			return nil, err
		}
	}
	cfg := Config{
		NumBins:        int(vals[0]),
		HeadPercentile: float64(vals[1]) / 100,
		TailPercentile: float64(vals[2]) / 100,
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ithist: decoded invalid config: %w", err)
	}
	oob, err := read()
	if err != nil {
		return nil, err
	}
	if oob > maxCount {
		return nil, fmt.Errorf("ithist: out-of-bounds count %d exceeds the cap %d", oob, maxCount)
	}
	// Each count takes at least one byte: bound the allocation by the
	// input before making it.
	if cfg.NumBins > len(data) {
		return nil, fmt.Errorf("ithist: truncated encoding: %d bins, %d bytes left", cfg.NumBins, len(data))
	}
	h := New(cfg)
	h.oob = int64(oob)
	counts := h.dense()
	for i := range counts {
		c, err := read()
		if err != nil {
			return nil, err
		}
		if c > uint64(maxCount-h.total) {
			return nil, fmt.Errorf("ithist: bin %d count %d takes the total past the cap %d", i, c, maxCount)
		}
		counts[i] = uint32(c)
		h.total += int64(c)
		h.sumSq += int64(c) * int64(c)
	}
	return h, nil
}

// Merge adds other's counters into h, scaled by weight (counts are
// rounded to the nearest integer; weight 1 is a plain sum). The
// production implementation aggregates daily histograms in a weighted
// fashion to favor recent days (§6). Histogram configurations must
// match, and weight must be finite and non-negative. Bins are added in
// ascending order, each clamped so T stays within the saturation cap;
// oob is clamped the same way.
func (h *Histogram) Merge(other *Histogram, weight float64) error {
	if h.cfg != other.cfg {
		return fmt.Errorf("ithist: merging incompatible configs")
	}
	if !(weight >= 0) || math.IsInf(weight, 1) {
		return fmt.Errorf("ithist: merge weight %v is not finite and non-negative", weight)
	}
	counts := h.dense()
	for i := range counts {
		add := scaled(other.Count(i), weight, maxCount-h.total)
		if add == 0 {
			continue
		}
		oldC := int64(counts[i])
		newC := oldC + add
		counts[i] = uint32(newC)
		h.total += add
		h.sumSq += newC*newC - oldC*oldC
	}
	h.oob += scaled(other.oob, weight, maxCount-h.oob)
	h.invalidateCursors()
	return nil
}

// scaled rounds c*weight to the nearest integer, clamped to room.
func scaled(c int64, weight float64, room int64) int64 {
	f := float64(c)*weight + 0.5
	if f >= float64(room) {
		return room
	}
	return int64(f)
}
