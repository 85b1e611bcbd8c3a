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
// Both kernels rely on the trimTail invariant — bits beyond a vector's
// logical length are zero in its last backing word — so whole-word
// operations against the short operand's final word are already exact.

// AndCountZX is AndCount with a zero-extended operand: other may be shorter
// than v, in which case v's bits at or beyond other.Len() are cleared. With
// equal lengths it is exactly AndCount; an operand longer than v is a
// contract violation and panics like the fixed-length kernels do.
func (v *Vector) AndCountZX(other *Vector) int {
	if other.n >= v.n {
		return v.AndCount(other) // sameLen panics on other.n > v.n
	}
	if len(v.summary) != 0 {
		return v.andCountSparseZX(other)
	}
	return v.andCountDenseZX(other)
}

// andCountDenseZX sweeps the overlap like andCountDense and zeroes the tail.
func (v *Vector) andCountDenseZX(other *Vector) int {
	vw, ow := v.words, other.words
	if len(ow) > len(vw) { // impossible: other.n < v.n; keeps BCE honest
		return 0
	}
	c0, c1, c2, c3 := 0, 0, 0, 0
	i := 0
	for ; i+4 <= len(ow); i += 4 {
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
	for ; i < len(ow); i++ {
		vw[i] &= ow[i]
		c0 += bits.OnesCount64(vw[i])
	}
	for ; i < len(vw); i++ {
		vw[i] = 0
	}
	return c0 + c1 + c2 + c3
}

// andCountSparseZX walks v's nonzero words; words past the operand's end
// are ANDs against the zero padding, so they die and leave the summary.
func (v *Vector) andCountSparseZX(other *Vector) int {
	ow := other.words
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
			var w uint64
			if wi < len(ow) {
				w = v.words[wi] & ow[wi]
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
	v.dropSummary()
	for i, w := range other.words {
		v.words[i] |= w
	}
}
