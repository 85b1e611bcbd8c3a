// Package bitvec provides the dense bit-vector kernel that underpins the
// Bit-Sliced Bloom-Filtered Signature File (BBS).
//
// A Vector is a fixed-capacity bitset backed by a []uint64. The package is
// written for the access patterns of BBS:
//
//   - bit-slices are AND-ed together pairwise, in place, with an early-exit
//     popcount check (CountItemSet stops as soon as the running count falls
//     below the support threshold);
//   - result vectors are iterated bit-by-set-bit to drive Probe refinement;
//   - slices grow by one bit per transaction appended to a dynamic database.
//
// All operations are word-granular. None of the methods allocate unless the
// doc comment says otherwise.
package bitvec

import (
	"fmt"
	"math/bits"
)

const (
	wordBits  = 64
	wordShift = 6
	wordMask  = wordBits - 1
)

// Vector is a bitset of a fixed logical length. Bits are indexed from 0.
// The zero value is an empty vector of length 0; use New or Grow to size it.
type Vector struct {
	words []uint64
	n     int // logical length in bits

	// Sparse mode (see sparse.go): summary holds one bit per backing word,
	// set iff the word is nonzero; empty means the summary is not maintained
	// (dropSummary truncates rather than frees, keeping the capacity).
	// nz counts the nonzero words while the summary is live.
	summary []uint64
	nz      int
}

// New returns a zeroed vector of n bits.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{words: make([]uint64, wordsFor(n)), n: n}
}

// FromBits builds a vector from a bool slice, mostly for tests and examples.
func FromBits(bits []bool) *Vector {
	v := New(len(bits))
	for i, b := range bits {
		if b {
			v.Set(i)
		}
	}
	return v
}

func wordsFor(n int) int { return (n + wordMask) >> wordShift }

// Len returns the logical length of the vector in bits.
func (v *Vector) Len() int { return v.n }

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.bounds(i)
	wi := i >> wordShift
	if len(v.summary) != 0 && v.words[wi] == 0 {
		v.summary[wi>>wordShift] |= 1 << uint(wi&wordMask)
		v.nz++
	}
	v.words[wi] |= 1 << uint(i&wordMask)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.bounds(i)
	wi := i >> wordShift
	was := v.words[wi]
	v.words[wi] &^= 1 << uint(i&wordMask)
	if len(v.summary) != 0 && was != 0 && v.words[wi] == 0 {
		v.summary[wi>>wordShift] &^= 1 << uint(wi&wordMask)
		v.nz--
	}
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.bounds(i)
	return v.words[i>>wordShift]&(1<<uint(i&wordMask)) != 0
}

func (v *Vector) bounds(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// SetAll sets every bit in the vector to 1.
func (v *Vector) SetAll() {
	v.dropSummary()
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trimTail()
}

// Reset sets every bit to 0 without changing the length.
func (v *Vector) Reset() {
	v.dropSummary()
	for i := range v.words {
		v.words[i] = 0
	}
}

// trimTail zeroes the bits beyond the logical length in the last word, so
// that popcounts and equality checks stay exact.
func (v *Vector) trimTail() {
	if tail := uint(v.n & wordMask); tail != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << tail) - 1
	}
}

// Grow extends the vector to n bits, preserving contents. New bits are 0.
// Shrinking is not supported; Grow with n <= Len is a no-op. Grow amortizes
// reallocation by doubling capacity, so appending one bit per transaction
// (the dynamic-database path of BBS) is O(1) amortized.
func (v *Vector) Grow(n int) {
	if n <= v.n {
		return
	}
	v.dropSummary()
	need := wordsFor(n)
	if need > cap(v.words) {
		newCap := 2 * cap(v.words)
		if newCap < need {
			newCap = need
		}
		w := make([]uint64, need, newCap)
		copy(w, v.words)
		v.words = w
	} else {
		v.words = v.words[:need] // past its length the storage reads 0; see shrinkWords
	}
	v.n = n
}

// Resize sets the vector's length to exactly n bits, keeping its storage:
// bits below min(n, Len) keep their values and bits past the old length
// read 0. Unlike Grow it also shrinks, which is how a reused result vector
// follows an index that got shorter.
func (v *Vector) Resize(n int) {
	if n >= v.n {
		v.Grow(n)
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	v.dropSummary()
	v.shrinkWords(wordsFor(n))
	v.n = n
	v.trimTail()
}

// shrinkWords cuts the backing words to need, zeroing what it cuts off:
// Grow reuses the capacity past the length without clearing it, so that
// storage must read 0.
func (v *Vector) shrinkWords(need int) {
	clear(v.words[need:])
	v.words = v.words[:need]
}

// Append adds a single bit at the end of the vector.
func (v *Vector) Append(bit bool) {
	i := v.n
	v.Grow(i + 1)
	if bit {
		v.Set(i)
	}
}

// Count returns the number of set bits (population count).
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountUpTo returns min(Count(), limit). It scans words until the running
// count reaches limit, so callers that only need to know "at least limit
// bits are set" pay proportionally less on dense vectors.
func (v *Vector) CountUpTo(limit int) int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
		if c >= limit {
			return limit
		}
	}
	return c
}

// And replaces v with v AND other. Both vectors must have the same length.
func (v *Vector) And(other *Vector) {
	v.sameLen(other)
	v.dropSummary()
	for i, w := range other.words {
		v.words[i] &= w
	}
}

// AndCount replaces v with v AND other and returns the popcount of the
// result in the same pass. This fusion is the inner loop of CountItemSet.
//
// The kernel is chosen by v's mode (see sparse.go): a summarized vector
// visits only its nonzero words (and keeps its summary current); a dense
// one runs the unrolled full sweep. Promotion to sparse mode is the
// caller's call — MaybeSummarize — because building the summary costs a
// word sweep that only pays off when the vector is AND-ed again. The
// result bits are identical either way.
//
//lint:hotpath
func (v *Vector) AndCount(other *Vector) int {
	v.sameLen(other)
	if len(v.summary) != 0 {
		return v.andCountSparse(other)
	}
	return v.andCountDense(other)
}

// Or replaces v with v OR other. Both vectors must have the same length.
func (v *Vector) Or(other *Vector) {
	v.sameLen(other)
	v.dropSummary()
	for i, w := range other.words {
		v.words[i] |= w
	}
}

// AndNot replaces v with v AND NOT other (clears the bits set in other).
func (v *Vector) AndNot(other *Vector) {
	v.sameLen(other)
	v.dropSummary()
	for i, w := range other.words {
		v.words[i] &^= w
	}
}

// Xor replaces v with v XOR other. Both vectors must have the same length.
func (v *Vector) Xor(other *Vector) {
	v.sameLen(other)
	v.dropSummary()
	for i, w := range other.words {
		v.words[i] ^= w
	}
}

func (v *Vector) sameLen(other *Vector) {
	if v.n != other.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, other.n))
	}
}

// CopyFrom makes v an exact copy of other, reusing v's storage when it is
// large enough. After the call v.Len() == other.Len().
func (v *Vector) CopyFrom(other *Vector) {
	need := len(other.words)
	switch {
	case cap(v.words) < need:
		v.words = make([]uint64, need)
	case need < len(v.words):
		v.shrinkWords(need)
	default:
		v.words = v.words[:need]
	}
	copy(v.words, other.words)
	v.n = other.n
	v.copySummaryFrom(other)
}

// Clone returns a new vector with the same contents. Allocates.
func (v *Vector) Clone() *Vector { return v.CloneFor(v.n) }

// CloneFor is Clone with the backing words sized to hold n bits, so growing
// the copy to n bits (Append, Grow) does not reallocate it. A copy-on-write
// owner clones for the length it is about to append to: an exact-size clone
// would be reallocated — at double the capacity — by its own first append.
// Allocates.
func (v *Vector) CloneFor(n int) *Vector {
	c := &Vector{words: make([]uint64, len(v.words), max(len(v.words), wordsFor(n))), n: v.n}
	copy(c.words, v.words)
	c.copySummaryFrom(v)
	return c
}

// Equal reports whether v and other have the same length and contents.
func (v *Vector) Equal(other *Vector) bool {
	if v.n != other.n {
		return false
	}
	for i, w := range v.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether no bit is set.
func (v *Vector) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// NextSet returns the index of the first set bit at or after i, and whether
// one exists. It is the building block for iteration without allocation:
//
//	for i, ok := v.NextSet(0); ok; i, ok = v.NextSet(i + 1) { ... }
func (v *Vector) NextSet(i int) (int, bool) {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return 0, false
	}
	wi := i >> wordShift
	w := v.words[wi] >> uint(i&wordMask)
	if w != 0 {
		return i + bits.TrailingZeros64(w), true
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi<<wordShift + bits.TrailingZeros64(v.words[wi]), true
		}
	}
	return 0, false
}

// ForEachSet calls fn with the index of every set bit, in increasing order.
// If fn returns false, iteration stops early.
func (v *Vector) ForEachSet(fn func(i int) bool) {
	for wi, w := range v.words {
		base := wi << wordShift
		for w != 0 {
			t := bits.TrailingZeros64(w)
			if !fn(base + t) {
				return
			}
			w &= w - 1
		}
	}
}

// Ones returns the indices of all set bits. Allocates; prefer ForEachSet or
// NextSet in hot paths.
func (v *Vector) Ones() []int {
	out := make([]int, 0, v.Count())
	v.ForEachSet(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the vector as a bit string, bit 0 first, matching the
// paper's Table 1 presentation ("11111111" for a fully set 8-bit vector).
func (v *Vector) String() string {
	buf := make([]byte, v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

// Words exposes the backing words for serialization. The returned slice
// aliases the vector's storage; callers must not modify it.
func (v *Vector) Words() []uint64 { return v.words }

// SetWords replaces the vector's contents with the given words and logical
// length. The slice is copied. Bits beyond n in the final word are cleared.
func (v *Vector) SetWords(words []uint64, n int) error {
	if n < 0 {
		return fmt.Errorf("bitvec: negative length %d", n)
	}
	if wordsFor(n) != len(words) {
		return fmt.Errorf("bitvec: %d words cannot hold exactly %d bits", len(words), n)
	}
	v.dropSummary()
	v.words = make([]uint64, len(words))
	copy(v.words, words)
	v.n = n
	v.trimTail()
	return nil
}
