package bitvec

import "math/bits"

// Dense slice payload.
//
// A dense slice holds its words in two parts: full, the words wholly below
// its length n, and part, the partial word n/64 (bits n&^63 through n-1;
// zero when n is a multiple of 64), which lives in the slice header itself.
// full is a prefix of an append-only array. The BBS insert path only ever
// sets bit n-1 of a slice, so a set lands in part, and completing part or
// skipping past it appends words after the end of full: no set rewrites a
// word full already holds. A header copy (CloneFor) therefore shares full
// with its source and costs a header, not the slice's words: each copy
// keeps its own part, and the writer appends past every copy's length. That
// is what a copy-on-write snapshot of a served index relies on (see sigfile).
//
// Two rules keep the sharing exact when a set does not follow that pattern
// — a set inside full, or two copies of one header both appending. Both
// read the array's bookkeeping, a wordArray that every header over the
// array shares:
//
//   - a header appends in place only at the array's frontier, when its full
//     ends where the written words end; any other header appends to a copy
//     of its words;
//   - a header writes a word of full in place only while no copy shares the
//     array; otherwise it copies its words first.
//
// Only writers read or write a wordArray, so a reader of a shared header
// never races with the writer.

// wordArray is the bookkeeping of one backing array of full words.
type wordArray struct {
	end    int  // words of the array that some header holds in full
	shared bool // a header copy reads the array: no word below end may change
}

// denseWords is a dense slice's payload: full and part as above, and the
// bookkeeping of full's backing array.
type denseWords struct {
	full []uint64
	part uint64
	arr  *wordArray
}

// denseWordsOf adopts words, exactly wordsFor(n) of them with the bits past
// n clear, as the payload of an n-bit slice.
func denseWordsOf(words []uint64, n int) denseWords {
	k := n >> wordShift
	d := denseWords{full: words[:k], arr: &wordArray{end: k}}
	if k < len(words) {
		d.part = words[k]
	}
	return d
}

// Count returns the payload's popcount.
func (d *denseWords) Count() int {
	c := bits.OnesCount64(d.part)
	for _, w := range d.full {
		c += bits.OnesCount64(w)
	}
	return c
}

// get reports bit i of an n-bit payload, i < n.
func (d *denseWords) get(i int) bool {
	w := d.part
	if wi := i >> wordShift; wi < len(d.full) {
		w = d.full[wi]
	}
	return w&(1<<uint(i&wordMask)) != 0
}

// appendSet is AppendSet on a dense slice of n bits: it sets bit i, growing
// the payload to i+1 bits if i >= n, and reports whether the bit was clear.
//
//lint:hotpath
func (d *denseWords) appendSet(n, i int) bool {
	wi := i >> wordShift
	bit := uint64(1) << uint(i&wordMask)
	if wi < len(d.full) {
		w := d.full[wi]
		if w&bit != 0 {
			return false
		}
		if d.arr.shared {
			d.own()
		}
		d.full[wi] = w | bit
		return true
	}
	if wi > len(d.full) {
		// i is past the partial word: it is complete, and so is every word
		// between it and word wi.
		d.push(d.part, wi-len(d.full)-1)
		d.part = 0
	} else if d.part&bit != 0 {
		return false
	}
	d.part |= bit
	if i >= n && (i+1)&wordMask == 0 {
		d.push(d.part, 0) // the set completes word wi
		d.part = 0
	}
	return true
}

// push appends w and then zeros zero words to full: in place at the
// array's frontier while it has room, else into a fresh array with room to
// double.
func (d *denseWords) push(w uint64, zeros int) {
	k := len(d.full)
	need := k + 1 + zeros
	if k != d.arr.end || need > cap(d.full) {
		full := make([]uint64, k, max(need, 2*k))
		copy(full, d.full)
		d.full, d.arr = full, &wordArray{}
	}
	d.full = d.full[:need]
	d.full[k] = w
	clear(d.full[k+1:]) // past the frontier the array may hold stale words
	d.arr.end = need
}

// own moves full to a private array, so a word of it can change without a
// header copy seeing it.
func (d *denseWords) own() {
	full := make([]uint64, len(d.full), cap(d.full))
	copy(full, d.full)
	d.full, d.arr = full, &wordArray{end: len(full)}
}
