package ithist

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// The binary encoding backs the production implementation's hourly
// database backups (§6): a fixed header (version, config) followed by
// varint-encoded bin counts and the OOB counter. A 240-bin histogram
// with small counts encodes to a few hundred bytes, in line with the
// paper's 960-byte in-memory footprint.

const encodingVersion = 1

// Encode serializes the histogram (configuration and counters). The
// percentiles are stored in hundredths and the margin in
// ten-thousandths, rounded to nearest, so any config with that many
// decimals decodes to itself.
func (h *Histogram) Encode() []byte {
	buf := make([]byte, 0, 64+len(h.counts))
	buf = binary.AppendUvarint(buf, encodingVersion)
	buf = binary.AppendUvarint(buf, uint64(h.cfg.BinWidth))
	buf = binary.AppendUvarint(buf, uint64(h.cfg.NumBins))
	buf = binary.AppendUvarint(buf, uint64(math.Round(h.cfg.HeadPercentile*100)))
	buf = binary.AppendUvarint(buf, uint64(math.Round(h.cfg.TailPercentile*100)))
	buf = binary.AppendUvarint(buf, uint64(math.Round(h.cfg.Margin*10000)))
	buf = binary.AppendUvarint(buf, uint64(h.oob))
	for _, c := range h.counts {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	return buf
}

// Decode reconstructs a histogram serialized by Encode.
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
	var vals [5]uint64
	for i := range vals {
		if vals[i], err = read(); err != nil {
			return nil, err
		}
	}
	cfg := Config{
		BinWidth:       time.Duration(vals[0]),
		NumBins:        int(vals[1]),
		HeadPercentile: float64(vals[2]) / 100,
		TailPercentile: float64(vals[3]) / 100,
		Margin:         float64(vals[4]) / 10000,
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ithist: decoded invalid config: %w", err)
	}
	oob, err := read()
	if err != nil {
		return nil, err
	}
	h := New(cfg)
	h.oob = int64(oob)
	for i := 0; i < cfg.NumBins; i++ {
		c, err := read()
		if err != nil {
			return nil, err
		}
		if c > 0 {
			h.counts[i] = int64(c)
			h.total += int64(c)
			h.sumSq += int64(c) * int64(c)
		}
	}
	h.invalidateCursors()
	return h, nil
}

// Merge adds other's counters into h, scaled by weight (counts are
// rounded to the nearest integer; weight 1 is a plain sum). The
// production implementation aggregates daily histograms in a weighted
// fashion to favor recent days (§6). Histogram configurations must
// match.
func (h *Histogram) Merge(other *Histogram, weight float64) error {
	if h.cfg != other.cfg {
		return fmt.Errorf("ithist: merging incompatible configs")
	}
	if weight < 0 {
		return fmt.Errorf("ithist: negative merge weight %v", weight)
	}
	for i, c := range other.counts {
		add := int64(float64(c)*weight + 0.5)
		if add == 0 {
			continue
		}
		oldC := h.counts[i]
		h.counts[i] += add
		h.total += add
		h.sumSq += h.counts[i]*h.counts[i] - oldC*oldC
	}
	h.oob += int64(float64(other.oob)*weight + 0.5)
	h.invalidateCursors()
	return nil
}
