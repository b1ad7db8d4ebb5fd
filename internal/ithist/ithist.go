// Package ithist implements the paper's range-limited idle-time (IT)
// histogram (§4.2), the centerpiece of the hybrid keep-alive policy.
//
// The histogram uses 1-minute bins over a configurable range (default
// 4 hours, i.e. 240 bins). Idle times beyond the range are counted as
// out-of-bounds (OOB). The head (default 5th percentile, rounded down
// to the bin's lower edge) selects the pre-warming window; the tail
// (default 99th percentile, rounded up to the bin's upper edge)
// selects the keep-alive window; a 10% margin widens both for
// safety. Representativeness is judged by the coefficient of
// variation of the bin counts, tested in closed form from the sum of
// squared counts — one integer add per observation. SEMANTICS.md in
// this directory is the normative statement of every decision rule;
// the batch kernel (DecideSeq) and the per-call methods both compute
// it.
//
// The percentile bins that drive Windows are maintained incrementally:
// each Observe adjusts a head and a tail cursor (amortized O(1), worst
// case one walk over the bins), and Windows memoizes the derived
// window pair keyed on the cursor bins, so the per-invocation decision
// cost is constant instead of an O(NumBins) scan.
//
// The dense form of the bins is one uint32 counter each, 960 bytes at
// the default, the size §6 gives for the Azure production
// implementation. Most applications are invoked rarely (§3: 45% at
// most once an hour), so a histogram starts in a small form instead:
// it holds its first smallCap in-bounds bin indices inline, sorted,
// and allocates the bin array only on the next in-bounds observation
// or when the batch kernel runs. The form is a representation only;
// every method answers the same in both.
package ithist

import (
	"fmt"
	"time"
)

// The bin width and the window margin are fixed by §4.2; only the
// range (NumBins) and the cutoff percentiles are configuration.
const (
	// BinWidth is the width of one bin: the paper's 1 minute.
	BinWidth = time.Minute
	// Margin widens the windows for error tolerance: the pre-warming
	// window shrinks by Margin and the keep-alive window grows by it.
	Margin = 0.10
)

// Config parameterizes the histogram. The zero value is invalid; use
// DefaultConfig.
type Config struct {
	// NumBins is the number of bins; BinWidth*NumBins is the histogram
	// range (the paper's default is 240 bins = 4 hours).
	NumBins int
	// HeadPercentile selects the pre-warming window (default 5).
	HeadPercentile float64
	// TailPercentile selects the keep-alive window (default 99).
	TailPercentile float64
}

// DefaultConfig returns the paper's default parameters: a 4-hour
// range and 5th/99th percentile cutoffs.
func DefaultConfig() Config {
	return Config{
		NumBins:        240,
		HeadPercentile: 5,
		TailPercentile: 99,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NumBins <= 0 {
		return fmt.Errorf("ithist: NumBins must be positive, got %d", c.NumBins)
	}
	if !(c.HeadPercentile >= 0 && c.HeadPercentile <= 100) {
		return fmt.Errorf("ithist: HeadPercentile %v out of [0,100]", c.HeadPercentile)
	}
	if !(c.TailPercentile >= 0 && c.TailPercentile <= 100) {
		return fmt.Errorf("ithist: TailPercentile %v out of [0,100]", c.TailPercentile)
	}
	if c.HeadPercentile > c.TailPercentile {
		return fmt.Errorf("ithist: head %v > tail %v", c.HeadPercentile, c.TailPercentile)
	}
	return nil
}

// cursor incrementally tracks the bin containing one percentile of the
// in-bounds distribution: bin is the smallest index whose inclusive
// prefix count reaches the percentile target, and cum is that prefix
// count. Maintaining the pair under single-count increments is
// amortized O(1) because the target moves by at most frac per
// observation.
type cursor struct {
	bin int
	cum int64
}

// smallCap is the number of in-bounds observations the small form
// holds before the histogram allocates its bin array.
const smallCap = 8

// maxSmallBins bounds the configurations the small form serves: it
// stores bin indices as uint16. Wider histograms are dense from New.
const maxSmallBins = 1 << 16

// maxCount is the saturation cap on the in-bounds total and the OOB
// count (SEMANTICS.md, Saturation): ⌊√(2⁶³−1)⌋, so that S ≤ T² fits
// int64 and every bin, never above T, fits uint32.
const maxCount = 3037000499

// Histogram tracks an application's idle-time distribution.
type Histogram struct {
	cfg Config
	// counts is the dense form, one counter per bin; nil while the
	// small form holds the in-bounds observations.
	counts []uint32
	// small is the small form: while counts is nil, the bins of the
	// total in-bounds observations, ascending.
	small [smallCap]uint16
	total int64 // in-bounds observations
	oob   int64 // out-of-bounds observations

	// sumSq is the sum of squared bin counts, the integer moment behind
	// the representativeness gate (CVBelow).
	sumSq int64

	head, tail cursor
	syncedAt   int64 // h.total value at the last cursor sync

	// Memoized Windows result, valid for cursor bins (winHead,
	// winTail); winHead -1 marks it invalid.
	winHead, winTail int
	winPreWarm       time.Duration
	winKeepAlive     time.Duration

	// Pads the struct to 192 B, three whole cache lines: a histogram
	// is written on every observation, and pools hand neighbouring
	// ones to different goroutines, which must not share a line.
	_ [32]byte
}

// New creates a histogram with the given configuration. It panics on
// an invalid configuration (programming error).
func New(cfg Config) *Histogram {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Histogram{cfg: cfg}
	if cfg.NumBins > maxSmallBins {
		h.counts = make([]uint32, cfg.NumBins)
	}
	h.invalidateCursors()
	return h
}

// dense returns the bin array, first moving the small form's
// observations into a freshly allocated one. The cursors carry over
// unchanged: bin indices and prefix counts do not depend on the form.
func (h *Histogram) dense() []uint32 {
	if h.counts == nil {
		h.counts = make([]uint32, h.cfg.NumBins)
		for _, b := range h.small[:h.total] {
			h.counts[b]++
		}
	}
	return h.counts
}

// insertSmall records in-bounds bin idx in the small form, which has
// room for it, and returns the bin's count before the insert.
func (h *Histogram) insertSmall(idx int) int64 {
	s := h.small[:h.total+1]
	j := len(s) - 1
	for ; j > 0 && int(s[j-1]) > idx; j-- {
		s[j] = s[j-1]
	}
	s[j] = uint16(idx)
	var c int64
	for k := j - 1; k >= 0 && int(s[k]) == idx; k-- {
		c++
	}
	return c
}

// Config returns the histogram's configuration.
func (h *Histogram) Config() Config { return h.cfg }

// Range returns the histogram's covered duration (BinWidth * NumBins).
func (h *Histogram) Range() time.Duration {
	return BinWidth * time.Duration(h.cfg.NumBins)
}

// Observe records one idle time. ITs at or beyond the range (or
// negative) count as out-of-bounds and do not enter the bins.
//
// Only the cursors' prefix counts are maintained here (two compares);
// restoring the percentile invariant — which can require walking bins
// — is deferred to syncCursors, so applications whose windows are
// never consulted (the policy's standard-fallback regime) don't pay
// for it.
//
// An observation that would take T or oob past maxCount is not
// recorded (SEMANTICS.md, Saturation).
func (h *Histogram) Observe(it time.Duration) {
	idx := -1
	if it >= 0 {
		idx = int(it / BinWidth)
	}
	var oldC int64
	switch {
	case uint(idx) < uint(len(h.counts)): // dense form, in bounds
		if h.total == maxCount {
			return
		}
		oldC = int64(h.counts[idx])
		h.counts[idx]++
	case uint(idx) >= uint(h.cfg.NumBins):
		if h.oob < maxCount {
			h.oob++
		}
		return
	case h.total < smallCap:
		oldC = h.insertSmall(idx)
	default: // the in-bounds observation the small form has no room for
		counts := h.dense()
		oldC = int64(counts[idx])
		counts[idx]++
	}
	h.total++
	h.sumSq += 2*oldC + 1

	if idx <= h.head.bin {
		h.head.cum++
	}
	if idx <= h.tail.bin {
		h.tail.cum++
	}
}

// Regime labels which path of the hybrid policy's Figure 10 flow the
// histogram state selects for one observation.
type Regime uint8

// Regime values, in the order Figure 10 evaluates them.
const (
	RegimeStandard Regime = iota // unrepresentative: conservative fallback
	RegimeWindows                // representative: histogram windows apply
	RegimeOOB                    // out-of-bounds heavy: time-series path
)

// WindowRun is a run of consecutive observations sharing a regime and
// (for RegimeWindows) a window pair, the unit DecideSeq emits.
type WindowRun struct {
	PreWarm   time.Duration
	KeepAlive time.Duration
	Regime    Regime
	Count     int32
}

// syncCursors restores both percentile-cursor invariants after any
// number of Observe calls. The prefix counts are kept exact by
// Observe, so the walk is amortized O(1): each cursor moves only as
// far as the percentile target drifted.
func (h *Histogram) syncCursors() {
	if h.syncedAt == h.total {
		// Nothing observed in-bounds since the last sync (the targets
		// only depend on the in-bounds total).
		return
	}
	h.syncedAt = h.total
	tH, tT := h.cfg.HeadPercentile*float64(h.total), h.cfg.TailPercentile*float64(h.total)
	if h.counts == nil {
		h.head, h.tail = h.locateSmall(tH), h.locateSmall(tT)
		return
	}
	h.head.walk(h.counts, tH)
	h.tail.walk(h.counts, tT)
}

// locateSmall is walk's result for the small form, found from the
// sorted bin list: the percentile bin holds the k-th smallest
// observation for the least k with 100*k >= tN, and its prefix count
// runs through the last observation in that bin. total must be > 0.
func (h *Histogram) locateSmall(tN float64) cursor {
	if tN < minTarget {
		tN = minTarget
	}
	s := h.small[:h.total]
	k := 1
	for 100*float64(k) < tN {
		k++
	}
	bin := s[k-1]
	for k < len(s) && s[k] == bin {
		k++
	}
	return cursor{bin: int(bin), cum: int64(k)}
}

// minTarget is the sub-half clamp on a cursor target tN = p*total (the
// percentile test scaled by 100): "100*cum >= tN" over integer prefix
// counts is unchanged by raising any target below 50 to 50 (a zero or
// tiny target is first satisfied at the first occupied bin either
// way), which gives the cursors a single uniform invariant.
const minTarget = 50

// walk restores the cursor invariant given an up-to-date prefix count:
// bin becomes the smallest index whose inclusive prefix count cum has
// 100*cum >= tN, with counts[bin] > 0. tN is percentile*total,
// unclamped. For integral percentiles both sides are integers far
// below 2^53, so the float comparison is the exact rational test the
// batch kernel tracks in int64. An invalidated cursor (bin -1, cum 0)
// walks up from the first bin, which is the locate-by-scan; the counts
// must hold at least one observation.
func (c *cursor) walk(counts []uint32, tN float64) {
	if tN < minTarget {
		tN = minTarget
	}
	for 100*float64(c.cum) < tN {
		c.bin++
		for counts[c.bin] == 0 {
			c.bin++
		}
		c.cum += int64(counts[c.bin])
	}
	for 100*float64(c.cum-int64(counts[c.bin])) >= tN {
		c.cum -= int64(counts[c.bin])
		c.bin--
		for counts[c.bin] == 0 {
			c.bin--
		}
	}
}

// Total returns the number of in-bounds idle times observed.
func (h *Histogram) Total() int64 { return h.total }

// OutOfBounds returns the number of out-of-bounds idle times.
func (h *Histogram) OutOfBounds() int64 { return h.oob }

// OOBHeavy reports whether the out-of-bounds fraction exceeds thr
// (thr > 0), division-free. The common all-in-bounds case exits on an
// integer test.
func (h *Histogram) OOBHeavy(thr float64) bool {
	return h.oob != 0 && float64(h.oob) > thr*float64(h.total+h.oob)
}

// CVBelow reports whether the bin-count CV is below thr — the
// per-invocation representativeness gate of the hybrid policy,
// defined square- and division-free as n*S < (1+thr^2)*T^2 (a CV
// exactly on thr is not below it). The comparison runs in int64
// whenever 1+thr^2 is integral and the products fit, so ties resolve
// by exact algebra; otherwise the same inequality in float64.
func (h *Histogram) CVBelow(thr float64) bool {
	if h.total == 0 {
		// All-zero counts: the CV is defined as 0.
		return thr > 0
	}
	nI := int64(h.cfg.NumBins)
	if thrI, ok := intGate(thr, nI); ok && h.total < intSizeLimit {
		return nI*h.sumSq < thrI*h.total*h.total
	}
	t := float64(h.total)
	return float64(nI)*float64(h.sumSq) < (1+thr*thr)*t*t
}

// intGate returns 1+thr^2 as the integer factor of the int64 gate,
// and whether that form is available: the factor must be integral and
// it and the bin count nI below 2^11, so that with fewer than
// intSizeLimit observations neither product overflows.
func intGate(thr float64, nI int64) (thrI int64, ok bool) {
	thrSq1 := 1 + thr*thr
	thrI = int64(thrSq1)
	return thrI, float64(thrI) == thrSq1 && thrI < 1<<11 && nI < 1<<11
}

// intSizeLimit bounds the observation counts under which the int64
// forms cannot overflow: with total < 2^26, total^2 < 2^52 leaves
// eleven bits for the threshold factors and sixteen for the OOB
// fraction scale.
const intSizeLimit = 1 << 26

// Count returns the count in bin idx.
func (h *Histogram) Count(idx int) int64 {
	if h.counts != nil {
		return int64(h.counts[idx])
	}
	var c int64
	for _, b := range h.small[:h.total] {
		if int(b) == idx {
			c++
		}
	}
	return c
}

// percentileBin returns the index of the bin containing percentile p
// of the in-bounds distribution by a full scan. Caller guarantees
// total > 0. The incremental cursors make this cold-path only; it is
// retained as the reference implementation the property tests compare
// the cursors against.
func (h *Histogram) percentileBin(p float64) int {
	tN := p * float64(h.total)
	var cum int64
	last := 0
	for i := 0; i < h.cfg.NumBins; i++ {
		c := h.Count(i)
		if c == 0 {
			continue
		}
		cum += c
		if 100*float64(cum) >= tN {
			return i
		}
		last = i
	}
	return last
}

// Windows computes the pre-warming and keep-alive windows from the
// current distribution, per §4.2 and Figure 11:
//
//   - head = HeadPercentile of the IT distribution, rounded DOWN to
//     the containing bin's lower edge, then reduced by Margin; this is
//     the pre-warming window. A head that rounds to bin 0 yields a
//     pre-warming window of 0 (the app is not unloaded; center column
//     of Figure 12).
//   - tail = TailPercentile, rounded UP to the containing bin's upper
//     edge, then increased by Margin. The keep-alive window covers
//     from the pre-warm point through the tail: keepAlive = tail -
//     preWarm (so that pre-warm + keep-alive spans the IT range the
//     histogram predicts).
//
// The windows depend only on the head and tail percentile bins, which
// the cursors keep current, so repeated calls are O(1): the margin
// arithmetic reruns only when a cursor actually moved.
//
// ok is false when the histogram has no in-bounds observations.
func (h *Histogram) Windows() (preWarm, keepAlive time.Duration, ok bool) {
	if h.total == 0 {
		return 0, 0, false
	}
	h.syncCursors()
	if h.winHead != h.head.bin || h.winTail != h.tail.bin {
		h.computeWindows()
	}
	return h.winPreWarm, h.winKeepAlive, true
}

// computeWindows derives the memoized window pair from the cursor bins.
func (h *Histogram) computeWindows() {
	h.winHead, h.winTail = h.head.bin, h.tail.bin
	h.winPreWarm, h.winKeepAlive = marginWindows(h.cfg.NumBins, h.head.bin, h.tail.bin)
}

// marginWindows derives the window pair from the percentile bins of a
// numBins histogram (the §4.2 rounding and margin rules; see Windows).
func marginWindows(numBins, headBin, tailBin int) (preWarm, keepAlive time.Duration) {
	// Round head down, tail up, to whole-bin edges.
	head := time.Duration(headBin) * BinWidth
	tail := time.Duration(tailBin+1) * BinWidth

	// Apply the margin: pre-warm earlier, keep alive longer.
	preWarm = time.Duration(float64(head) * (1 - Margin))
	tailM := time.Duration(float64(tail) * (1 + Margin))
	if r := BinWidth * time.Duration(numBins); tailM > r {
		// Never promise a keep-alive beyond the histogram's knowledge.
		tailM = r
	}
	keepAlive = tailM - preWarm
	if keepAlive < BinWidth {
		keepAlive = BinWidth
	}
	return preWarm, keepAlive
}

// invalidateCursors drops the percentile cursors and the window memo
// when the counts are cleared (New, Reset; Observe only handles
// single-count increments). The next consultation relocates them by
// scan.
func (h *Histogram) invalidateCursors() {
	h.head = cursor{bin: -1}
	h.tail = cursor{bin: -1}
	h.syncedAt = 0
	h.winHead = -1
}

// Reset clears all state (used when an application is redeployed, and
// when pooled state is reused). A bin array already allocated is kept,
// zeroed, so a reused histogram allocates nothing.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.total, h.oob = 0, 0
	h.sumSq = 0
	h.invalidateCursors()
}
