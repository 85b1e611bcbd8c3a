package bitvec

import "math/bits"

// Sparsity-aware AND kernels.
//
// Deep in the mining enumeration a residual vector has est ≈ τ set bits out
// of n — the overwhelming majority of its backing words are zero, yet a
// word-granular AND sweeps all of them. A Vector therefore optionally
// carries a *summary*: one bit per backing word, set iff that word is
// nonzero. An AND against a summarized vector walks only the nonzero words
// (a zero word stays zero under AND, so skipped words need no work at all)
// and clears summary bits as words die, so the walk keeps shrinking as the
// residual sharpens toward τ.
//
// The summary degrades gracefully: dense vectors never build one. AndCount
// runs a 4-way unrolled dense loop on unsummarized vectors; a caller that
// knows a vector will be AND-ed again (the miner, before descending into a
// residual's subtree) promotes it with MaybeSummarize, which builds the
// summary only when the popcount shows at least three quarters of the words
// must be zero. From then on the summary is maintained incrementally by
// AndCount, Set, Clear, CopyFrom, and Clone, and dropped by the mutators
// that can repopulate words wholesale (SetAll, Or, Grow, SetWords, ...).
// Sparse mode never changes results — only which words are visited.

const (
	// summaryMinWords is the backing-word count below which a summary is
	// never built: the bookkeeping costs more than sweeping a handful of
	// words.
	summaryMinWords = 8
	// summaryDensityDiv promotes a vector to sparse mode when its popcount
	// is at most len(words)/summaryDensityDiv — with 64-bit words, a
	// popcount of words/4 guarantees ≥ 75% of the words are zero.
	summaryDensityDiv = 4
)

// Summarized reports whether the vector is in sparse mode (carrying a
// word-level summary).
func (v *Vector) Summarized() bool { return len(v.summary) != 0 }

// WordStats reports which kernel the next AndCount against v would run and
// how many backing words it would visit: the nonzero-word count for the
// sparse walk, or all words for the dense sweep. Telemetry only — an O(1)
// read of maintained state, never a scan.
func (v *Vector) WordStats() (words int, sparse bool) {
	if len(v.summary) != 0 {
		return v.nz, true
	}
	return len(v.words), false
}

// Summarize force-builds the word-level summary regardless of density, so
// tests and benchmarks can pin the sparse kernels directly. Production code
// wants MaybeSummarize, which applies the density threshold.
func (v *Vector) Summarize() {
	v.buildSummary()
}

// MaybeSummarize promotes the vector to sparse mode when count — its known
// popcount, which callers on the AND path already have — proves it sparse
// enough to profit (count ≤ words/4 guarantees ≥ 75% of the words are
// zero). Call it on a vector that will be AND-ed again, such as a residual
// whose subtree is about to be mined; already-summarized or small vectors
// are left as they are.
func (v *Vector) MaybeSummarize(count int) {
	if len(v.summary) != 0 || len(v.words) < summaryMinWords || count > len(v.words)/summaryDensityDiv {
		return
	}
	v.buildSummary()
}

// dropSummary leaves sparse mode; the next AndCount may rebuild it. The
// backing array stays with the vector, so a pooled vector that alternates
// between the modes (a residual re-copied from a summarized parent after a
// cold AND dropped its summary) re-enters sparse mode without allocating.
func (v *Vector) dropSummary() {
	v.summary = v.summary[:0]
	v.nz = 0
}

// buildSummary scans the backing words once and records which are nonzero.
func (v *Vector) buildSummary() {
	need := (len(v.words) + wordMask) >> wordShift
	if cap(v.summary) < need {
		v.summary = make([]uint64, need)
	} else {
		v.summary = v.summary[:need]
		for i := range v.summary {
			v.summary[i] = 0
		}
	}
	nz := 0
	for i, w := range v.words {
		if w != 0 {
			v.summary[i>>wordShift] |= 1 << uint(i&wordMask)
			nz++
		}
	}
	v.nz = nz
}

// copySummaryFrom mirrors other's sparse mode onto v.
func (v *Vector) copySummaryFrom(other *Vector) {
	if len(other.summary) == 0 {
		v.dropSummary()
		return
	}
	if cap(v.summary) < len(other.summary) {
		v.summary = make([]uint64, len(other.summary))
	}
	v.summary = v.summary[:len(other.summary)]
	copy(v.summary, other.summary)
	v.nz = other.nz
}

// andCountDense is the dense AND+popcount kernel: 4-way unrolled so the
// popcounts pipeline instead of serializing on one accumulator chain.
func (v *Vector) andCountDense(other *Vector) int {
	vw, ow := v.words, other.words
	if len(ow) < len(vw) { // impossible after sameLen; keeps BCE honest
		return 0
	}
	c0, c1, c2, c3 := 0, 0, 0, 0
	i := 0
	for ; i+4 <= len(vw); i += 4 {
		w0 := vw[i] & ow[i]
		w1 := vw[i+1] & ow[i+1]
		w2 := vw[i+2] & ow[i+2]
		w3 := vw[i+3] & ow[i+3]
		vw[i], vw[i+1], vw[i+2], vw[i+3] = w0, w1, w2, w3
		c0 += bits.OnesCount64(w0)
		c1 += bits.OnesCount64(w1)
		c2 += bits.OnesCount64(w2)
		c3 += bits.OnesCount64(w3)
	}
	for ; i < len(vw); i++ {
		vw[i] &= ow[i]
		c0 += bits.OnesCount64(vw[i])
	}
	return c0 + c1 + c2 + c3
}

// andCountSparse ANDs other into v visiting only v's nonzero words, guided
// by the summary, and retires summary bits as words reach zero.
func (v *Vector) andCountSparse(other *Vector) int {
	c := 0
	for si, sw := range v.summary {
		if sw == 0 {
			continue
		}
		base := si << wordShift
		for sw != 0 {
			t := bits.TrailingZeros64(sw)
			sw &= sw - 1
			wi := base + t
			w := v.words[wi] & other.words[wi]
			v.words[wi] = w
			if w == 0 {
				v.summary[si] &^= 1 << uint(t)
				v.nz--
			} else {
				c += bits.OnesCount64(w)
			}
		}
	}
	return c
}
