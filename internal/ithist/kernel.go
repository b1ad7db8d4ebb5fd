package ithist

import "time"

// Run keys for the batch kernel's run-length encoding: runs break
// exactly when the emitted (regime, windows) pair changes, tracked as
// a small integer — OOB and Standard are fixed keys, Windows keys are
// 2 plus a generation counter bumped whenever the memoized window
// values change. The per-observation tail is one compare instead of a
// three-field one; the run's windows are captured at run start.
const (
	keyOOB = 0
	keyStd = 1
)

// DecideSeq records idles[1:] in order (idles[0] precedes an app's
// first invocation, which observes nothing) and appends the
// per-observation regime evaluation to runs, run-length encoded. It
// is the batch form of, per observation:
//
//	Observe(it)
//	cnt := Total() + OutOfBounds()
//	cnt >= minObs && OOBHeavy(oobThr) -> RegimeOOB
//	cnt < minObs || CVBelow(cvThr)    -> RegimeStandard
//	pw, ka, ok := Windows(); !ok      -> RegimeStandard
//	otherwise                         -> RegimeWindows with (pw, ka)
//
// and computes the same decisions (SEMANTICS.md), with every
// per-observation quantity — the CV gate, the OOB fraction test, the
// percentile-cursor targets — in int64 registers.
//
// The integer forms need an integral 1+cvThr² and integral
// percentiles, an OOB fraction with at most sixteen fractional bits,
// fewer than 2^11 bins and fewer than 2^26 observations (the paper's
// defaults — cv=2, 5th/99th percentiles, OOB 0.5 — qualify). For any
// other configuration DecideSeq observes nothing and reports false;
// the caller walks the per-call methods above instead.
//
// A run it accepts promotes the histogram to its dense form. It needs
// no saturation check (SEMANTICS.md, Saturation): it declines any run
// that would reach 2^26 observations, far below maxCount.
func (h *Histogram) DecideSeq(idles []time.Duration, minObs int64, oobThr, cvThr float64, runs []WindowRun) ([]WindowRun, bool) {
	if len(idles) <= 1 {
		return runs, true
	}
	nI := int64(h.cfg.NumBins)
	thrI, gateOK := intGate(cvThr, nI)
	pHead := int64(h.cfg.HeadPercentile)
	pTail := int64(h.cfg.TailPercentile)
	// oobThr with at most 16 fractional bits makes oob > oobThr*cnt
	// exact in int64: oobQ*cnt < 2^16 * 2^27 stays far below 2^53, so
	// the float comparison of OOBHeavy does not round either.
	oobQ := oobThr * (1 << 16)
	if !gateOK || h.total+h.oob+int64(len(idles)) >= intSizeLimit ||
		float64(pHead) != h.cfg.HeadPercentile ||
		float64(pTail) != h.cfg.TailPercentile ||
		float64(int64(oobQ)) != oobQ || oobQ < 0 || oobQ > 1<<16 {
		return runs, false
	}
	h.dense()
	return h.decideSeq(idles, minObs, nI, thrI, pHead, pTail, int64(oobQ), runs), true
}

func (h *Histogram) decideSeq(idles []time.Duration, minObs, nI, thrI, pHead, pTail, oobQ int64, runs []WindowRun) []WindowRun {
	counts := h.counts
	total, oob := h.total, h.oob
	sumSq := h.sumSq
	tsq := total * total
	head, tail := h.head, h.tail
	syncedAt := h.syncedAt
	winHead, winTail := h.winHead, h.winTail
	winPW, winKA := h.winPreWarm, h.winKeepAlive
	winGen := int64(0)
	curKey := int64(-1)
	var curCount int32
	var curPW, curKA time.Duration
	var curRegime Regime
	// Incremental cursor margins: with tN = percentile*total, the
	// post-walk invariants are 100*cum >= tN (forward slack mF) and
	// tN - 100*(cum - counts[bin]) > 0 (backward slack mB). Both slacks
	// change by register-width constants per in-bounds observation —
	// tN grows by the percentile, 100*cum by 100 when the observation
	// lands at or below the cursor bin, and cum - counts[bin] only when
	// it lands strictly below — so the steady loop proves "this
	// observation cannot move either cursor, hence cannot change the
	// windows" with one sign test and skips the sync block entirely.
	// The slacks are only trusted (margValid) once the cursors are
	// seeded and total has grown past the sub-half clamp region where
	// tN is pinned at 50 rather than tracking percentile*total.
	var mHf, mHb, mTf, mTb int64
	margValid := false
	clampFree := int64(1) << 62
	if pHead > 0 && pTail > 0 {
		clampFree = (50 + pHead - 1) / pHead
		if cf := (50 + pTail - 1) / pTail; cf > clampFree {
			clampFree = cf
		}
	}
	// The loop is split into a call-free hot section and a cold
	// section: the register allocator spills every value that is live
	// across a call site inside a loop, and with walk,
	// marginWindows and append reachable from a single-loop body, the
	// whole carried state (moments, cursors, slacks) lives on the
	// stack — two dozen stack accesses per observation dwarf the
	// arithmetic. The hot loop below contains no calls at all, so the
	// carried state stays in registers; it breaks out on the rare
	// events that need one — a run-key change (append) or a cursor
	// sync (walk/memoization) — and the cold section resolves the
	// already-observed idle before re-entering.
	const keyNeedSync = int64(-2)
	n := len(idles)
	i := 1
	for i < n {
		var key int64
		for ; i < n; i++ {
			it := idles[i]
			// Branchless observe (real traces alternate idle signs
			// unpredictably under concurrency, and the mispredicts cost
			// more than the observation itself): ORing the idle's sign
			// into idx makes any negative idle map to a negative idx,
			// so one unsigned bounds test routes both OOB cases; the
			// sign bit of idx-bin-1 bumps the cursor prefix counts
			// without data-dependent branches.
			idx := int(it/BinWidth) | int(it>>63)
			if uint(idx) >= uint(len(counts)) {
				oob++
			} else {
				c := counts[idx]
				counts[idx] = c + 1
				total++
				tsq += total<<1 - 1
				sumSq += 2*int64(c) + 1
				leH := int64(idx-head.bin-1) >> 63 // -1 iff idx <= head.bin
				leT := int64(idx-tail.bin-1) >> 63
				head.cum -= leH
				tail.cum -= leT
				mHf += (100 & leH) - pHead
				mTf += (100 & leT) - pTail
				mHb += pHead - (100 & (int64(idx-head.bin) >> 63))
				mTb += pTail - (100 & (int64(idx-tail.bin) >> 63))
			}
			// Regime selection in SEMANTICS.md's order. The CV test is
			// evaluated eagerly (it is two multiplies); when total == 0
			// it reads "not below", and the total != 0 term keeps the
			// RegimeStandard outcome Windows' !ok gives the per-call
			// chain.
			cnt := total + oob
			key = keyStd
			if cnt >= minObs && oob != 0 && oob<<16 > oobQ*cnt {
				key = keyOOB
			} else if cnt >= minObs && nI*sumSq >= thrI*tsq && total != 0 {
				// All four slacks non-negative (backward ones strictly
				// positive) proves both walks are no-ops and the
				// memoized windows current; ORing propagates any
				// violated sign bit.
				if margValid && (mHf|(mHb-1)|mTf|(mTb-1)) >= 0 {
					key = 2 + winGen
				} else {
					key = keyNeedSync
				}
			}
			if key != curKey {
				break
			}
			curCount++
		}
		if i >= n {
			break
		}
		// Cold section. Observation i is already folded into the
		// histogram state; resolve its run key — syncing the cursors
		// and re-memoizing the windows if the hot loop flagged it —
		// then extend or restart the current run.
		if key == keyNeedSync {
			tH, tT := pHead*total, pTail*total
			if syncedAt != total {
				syncedAt = total
				head.walk(counts, float64(tH))
				tail.walk(counts, float64(tT))
			}
			if winHead != head.bin || winTail != tail.bin {
				pw, ka := marginWindows(int(nI), head.bin, tail.bin)
				// Bump the run key only when the window values change:
				// distinct cursor bins can margin-round to identical
				// windows, which belong to one run.
				if winHead < 0 || pw != winPW || ka != winKA {
					winGen++
				}
				winHead, winTail = head.bin, tail.bin
				winPW, winKA = pw, ka
			}
			if total >= clampFree {
				mHf = 100*head.cum - tH
				mHb = tH - 100*(head.cum-int64(counts[head.bin]))
				mTf = 100*tail.cum - tT
				mTb = tT - 100*(tail.cum-int64(counts[tail.bin]))
				margValid = true
			}
			key = 2 + winGen
		}
		if key == curKey {
			curCount++
		} else {
			if curCount > 0 {
				runs = append(runs, WindowRun{PreWarm: curPW, KeepAlive: curKA, Regime: curRegime, Count: curCount})
			}
			curKey, curCount = key, 1
			switch key {
			case keyOOB:
				curRegime, curPW, curKA = RegimeOOB, 0, 0
			case keyStd:
				curRegime, curPW, curKA = RegimeStandard, 0, 0
			default:
				curRegime, curPW, curKA = RegimeWindows, winPW, winKA
			}
		}
		i++
	}
	runs = append(runs, WindowRun{PreWarm: curPW, KeepAlive: curKA, Regime: curRegime, Count: curCount})

	// Spill the carried state back into the histogram.
	h.total, h.oob = total, oob
	h.sumSq = sumSq
	h.head, h.tail = head, tail
	h.syncedAt = syncedAt
	h.winHead, h.winTail = winHead, winTail
	h.winPreWarm, h.winKeepAlive = winPW, winKA
	return runs
}
