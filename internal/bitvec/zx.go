package bitvec

import (
	"fmt"
	"math/bits"
)

// Zero-extending variants of the AND/OR kernels.
//
// A snapshotted BBS index grows its slices lazily: inserting a transaction
// only lengthens the slices whose bits the transaction actually sets, so a
// slice untouched since the last snapshot can be shorter than the index.
// The missing tail is all zeros by construction (no transaction set a bit
// there), which makes the shorter operand logically equal to itself padded
// with zeros. These kernels implement exactly that reading without
// materializing the padding: the caller keeps the full-length destination,
// the operand may be short.
//
// The kernels read an operand as a dense slice holds its words (see
// dense.go): full, the words wholly below its length, then part, its partial
// word, read as word len(full). A Vector operand is split the same way, so
// one kernel serves both. Both rely on the trimTail invariant — bits beyond
// an operand's logical length are zero in part — so whole-word operations
// against it are already exact.

// AndCountZX is AndCount with a zero-extended operand: other may be shorter
// than v, in which case v's bits at or beyond other.Len() are cleared. With
// equal lengths it is exactly AndCount; an operand longer than v is a
// contract violation and panics like the fixed-length kernels do.
func (v *Vector) AndCountZX(other *Vector) int {
	d := other.split()
	return v.andCountZX(&d, other.n)
}

// split returns v's words as a dense slice holds them: the words wholly
// below Len, and the partial word (zero when Len is a multiple of 64).
func (v *Vector) split() denseWords {
	k := v.n >> wordShift
	if k == len(v.words) {
		return denseWords{full: v.words}
	}
	return denseWords{full: v.words[:k], part: v.words[k]}
}

// andCountZX ANDs the n-bit operand d into v, zero-extended, and returns
// the popcount of the result. A summarized v walks only its nonzero words;
// otherwise the overlap is swept 4-way unrolled like andCountDense and the
// tail past the operand is zeroed.
//
//lint:hotpath
func (v *Vector) andCountZX(d *denseWords, n int) int {
	if n > v.n {
		panic(fmt.Sprintf("bitvec: zero-extended operand longer than destination: %d vs %d", n, v.n))
	}
	full, part := d.full, d.part
	if len(v.summary) != 0 {
		return v.andCountSummarizedZX(full, part)
	}
	vw := v.words
	if len(full) > len(vw) { // impossible: n <= v.n; keeps BCE honest
		return 0
	}
	c0, c1, c2, c3 := 0, 0, 0, 0
	i := 0
	for ; i+4 <= len(full); i += 4 {
		w0 := vw[i] & full[i]
		w1 := vw[i+1] & full[i+1]
		w2 := vw[i+2] & full[i+2]
		w3 := vw[i+3] & full[i+3]
		vw[i], vw[i+1], vw[i+2], vw[i+3] = w0, w1, w2, w3
		c0 += bits.OnesCount64(w0)
		c1 += bits.OnesCount64(w1)
		c2 += bits.OnesCount64(w2)
		c3 += bits.OnesCount64(w3)
	}
	for ; i < len(full); i++ {
		vw[i] &= full[i]
		c0 += bits.OnesCount64(vw[i])
	}
	if i < len(vw) {
		vw[i] &= part
		c1 += bits.OnesCount64(vw[i])
		clear(vw[i+1:])
	}
	return c0 + c1 + c2 + c3
}

// andCountSummarizedZX walks v's nonzero words; words past the operand's
// end are ANDs against the zero padding, so they die and leave the summary.
//
//lint:hotpath
func (v *Vector) andCountSummarizedZX(full []uint64, part uint64) int {
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
			w := v.words[wi]
			switch {
			case wi < len(full):
				w &= full[wi]
			case wi == len(full):
				w &= part
			default:
				w = 0
			}
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

// OrZX replaces v with v OR other where other may be shorter than v: the
// operand is read as zero-padded, so v's bits beyond other.Len() are kept
// as they are. An operand longer than v panics.
func (v *Vector) OrZX(other *Vector) {
	if other.n > v.n {
		panic(fmt.Sprintf("bitvec: zero-extended operand longer than destination: %d vs %d", other.n, v.n))
	}
	d := other.split()
	v.orZX(&d)
}

// orZX ORs the operand d into v, which is no shorter than it.
func (v *Vector) orZX(d *denseWords) {
	v.dropSummary()
	for i, w := range d.full {
		v.words[i] |= w
	}
	if d.part != 0 {
		v.words[len(d.full)] |= d.part
	}
}
