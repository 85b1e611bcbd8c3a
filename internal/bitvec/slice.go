package bitvec

import (
	"fmt"
	"math/bits"
)

// Adaptive slice storage.
//
// A signature-file slice is a bit column over transactions, and the columns
// are wildly skewed: with k hash functions and m slices a few columns are
// hot while most hold a handful of bits — exactly the slices CountItemSet's
// rarest-first chain touches first. Storing every column as dense words
// makes index size (and the words an AND must sweep) linear in transactions
// regardless of content. A Slice therefore carries one of three physical
// encodings, chosen from its popcount:
//
//	EncDense  — []uint64 words, the classic layout; hot slices.
//	EncSparse — sorted set-bit positions as byte offsets within 256-bit
//	            chunks, behind a CSR-style chunk directory; rare slices.
//	EncRLE    — []uint32 (start, length) pairs of one-runs; clustered slices.
//
// The sparse layout serves two masters. Size: one byte per set bit (plus a
// ~3% directory) is what lets moderately rare slices — the bulk of a
// signature file under a skewed item distribution — compress three-fold or
// better. Speed: unlike a byte-packed delta stream it is randomly
// accessible, so the kernels walk the chunk directory and payload strictly
// in order — prefetch-friendly — and the summarized-accumulator kernel
// skips a chunk's payload outright when all four of its words are dead.
//
// The AND kernels operate directly on the compressed forms — a sparse slice
// ANDs into the accumulator by masking only the words its positions name, an
// RLE slice by walking its runs — so the rarest-first chain never
// decompresses a slice. The accumulator stays a dense Vector (optionally in
// summary mode, see sparse.go), and every kernel produces bit-identical
// results to materializing the slice and calling AndCountZX.
//
// Encoding selection is hysteretic so per-transaction appends cannot thrash:
// a compressed form is chosen — at build/Fold/Load time, or by an append
// entering the window via MaybeCompress — only when its payload is at most
// half the dense payload (compressWinDiv), while an appending slice is
// promoted back to dense only once its payload reaches the full dense
// size. Inside that band the current encoding sticks: a demoted slice must
// double its payload to promote and a promoted slice must double its
// length to demote, so each slice re-encodes O(log n) times over a
// database's lifetime.

// Encoding identifies the physical representation of a Slice.
type Encoding uint8

const (
	// EncDense stores the slice as dense 64-bit words.
	EncDense Encoding = iota
	// EncSparse stores sorted set-bit positions as chunked byte offsets.
	EncSparse
	// EncRLE stores maximal runs of consecutive set bits as (start, length)
	// pairs.
	EncRLE
)

func (e Encoding) String() string {
	switch e {
	case EncDense:
		return "dense"
	case EncSparse:
		return "sparse"
	case EncRLE:
		return "rle"
	}
	return fmt.Sprintf("Encoding(%d)", uint8(e))
}

const (
	// compressMinWords is the dense word count below which a slice is never
	// compressed: the encoding bookkeeping costs more than sweeping a
	// handful of words (mirrors summaryMinWords for the accumulator).
	compressMinWords = 8
	// compressWinDiv gates build-time selection: a compressed encoding is
	// chosen only when its payload is at most denseBytes/compressWinDiv.
	// Appends promote back to dense at payload >= denseBytes (1x), so the
	// band between 1/compressWinDiv and 1 is the hysteresis that keeps
	// Insert from thrashing encodings.
	compressWinDiv = 2
)

// Slice is one signature-file bit column under an adaptive encoding. The
// logical length n plays the same role as Vector.Len: bits at or beyond n
// read as zero (the zero-extension contract of the ZX kernels). Exactly one
// of dense/pos/runs is live, per enc.
type Slice struct {
	enc  Encoding
	n    int // logical length in bits
	ones int // popcount, maintained on every mutation
	// ones == 0 does not imply the backing store is empty (a dense slice
	// keeps its zero words); the converse always holds.
	dense *Vector // EncDense
	// EncSparse: pos8 holds each set position's low 8 bits, ascending
	// within its 256-bit chunk; chunkOff is the CSR directory — chunk c's
	// offsets live in pos8[chunkOff[c]:chunkOff[c+1]].
	pos8     []uint8
	chunkOff []int32
	last     int      // EncSparse: last set position, -1 while empty
	runs     []uint32 // EncRLE: (start, length) pairs, ascending, non-adjacent

	// cold, when non-nil, means the payload lives in page-granular cold
	// storage instead of the fields above (which are nil): enc names the
	// payload's format, and the AND kernels stream it page by page from
	// cold.src (see cold.go). Cold slices are immutable; mutation paths
	// Thaw first.
	cold *coldPayload
}

const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// numChunks returns how many 256-bit chunks cover an n-bit slice.
func numChunks(n int) int { return (n + chunkMask) >> chunkShift }

// appendPos appends one set position to a sparse payload. Positions must
// arrive ascending; the directory grows with zero-size chunks as needed.
func (s *Slice) appendPos(p int) {
	c := p >> chunkShift
	for len(s.chunkOff) < c+2 {
		s.chunkOff = append(s.chunkOff, int32(len(s.pos8)))
	}
	s.pos8 = append(s.pos8, uint8(p&chunkMask))
	s.chunkOff[c+1] = int32(len(s.pos8))
}

// forEachPos calls fn with every set position of a sparse payload in
// ascending order.
func (s *Slice) forEachPos(fn func(p int)) {
	for c := 0; c+1 < len(s.chunkOff); c++ {
		base := c << chunkShift
		for _, lo := range s.pos8[s.chunkOff[c]:s.chunkOff[c+1]] {
			fn(base + int(lo))
		}
	}
}

// NewDenseSlice returns a zeroed dense slice of n bits.
func NewDenseSlice(n int) *Slice {
	return &Slice{enc: EncDense, dense: New(n), n: n}
}

// NewSparseSlice returns an empty slice in sparse encoding, the natural
// starting point for a compressed index built by appends.
func NewSparseSlice() *Slice {
	return &Slice{enc: EncSparse, last: -1}
}

// DenseSliceOf wraps an existing vector as a dense slice. The vector is
// aliased, not copied; the caller hands over ownership.
func DenseSliceOf(v *Vector) *Slice {
	return &Slice{enc: EncDense, dense: v, n: v.Len(), ones: v.Count()}
}

// DenseSliceWithOnes is DenseSliceOf with a caller-supplied popcount, for
// callers that already know it — a load reading a persisted count, a thaw
// carrying the cold header's — so wrapping skips the recount. A wrong count
// never corrupts results (the AND chain is order-insensitive); it only
// degrades the rarest-first ordering, so trusted-but-unverified sources
// like a persisted header are acceptable.
func DenseSliceWithOnes(v *Vector, ones int) *Slice {
	return &Slice{enc: EncDense, dense: v, n: v.Len(), ones: ones}
}

// SliceFromWords builds a dense slice from serialized words (decode path).
func SliceFromWords(words []uint64, n int) (*Slice, error) {
	v := &Vector{}
	if err := v.SetWords(words, n); err != nil {
		return nil, err
	}
	return DenseSliceOf(v), nil
}

// SliceFromPositions builds a sparse slice from serialized set-bit
// positions (decode path). Positions must be strictly ascending and below n.
func SliceFromPositions(pos []uint32, n int) (*Slice, error) {
	s := &Slice{enc: EncSparse, n: n, ones: len(pos), last: -1}
	s.pos8 = make([]uint8, 0, len(pos))
	for i, p := range pos {
		if i > 0 && p <= pos[i-1] {
			return nil, fmt.Errorf("bitvec: sparse positions not strictly ascending at %d", i)
		}
		if int(p) >= n {
			return nil, fmt.Errorf("bitvec: sparse position %d beyond length %d", p, n)
		}
		s.appendPos(int(p))
		s.last = int(p)
	}
	return s, nil
}

// SliceFromRuns builds an RLE slice from serialized (start, length) pairs
// (decode path). Runs must be maximal: nonempty, ascending, separated by at
// least one zero bit, and contained in [0, n).
func SliceFromRuns(runs []uint32, n int) (*Slice, error) {
	if len(runs)%2 != 0 {
		return nil, fmt.Errorf("bitvec: odd rle payload length %d", len(runs))
	}
	ones, prevEnd := 0, -1
	for r := 0; r < len(runs); r += 2 {
		start, length := int(runs[r]), int(runs[r+1])
		if length <= 0 {
			return nil, fmt.Errorf("bitvec: empty rle run at pair %d", r/2)
		}
		if start <= prevEnd {
			return nil, fmt.Errorf("bitvec: rle runs not ascending and separated at pair %d", r/2)
		}
		end := start + length
		if end > n || end < start {
			return nil, fmt.Errorf("bitvec: rle run [%d,%d) beyond length %d", start, end, n)
		}
		ones += length
		prevEnd = end
	}
	return &Slice{enc: EncRLE, n: n, ones: ones, runs: runs}, nil
}

// Encoding reports the slice's current physical representation.
func (s *Slice) Encoding() Encoding { return s.enc }

// Len returns the logical length in bits.
func (s *Slice) Len() int { return s.n }

// Ones returns the popcount. O(1): maintained on every mutation, which is
// what lets Load skip recounting and OrderRarestFirst stay allocation-free.
func (s *Slice) Ones() int { return s.ones }

// Bytes returns the payload size of the current encoding in bytes — the
// resident footprint, as opposed to the 8*wordsFor(n) a dense layout needs.
func (s *Slice) Bytes() int64 {
	if s.cold != nil {
		return 0 // payload is paged, not resident; see ColdPayloadBytes
	}
	switch s.enc {
	case EncDense:
		return 8 * int64(len(s.dense.words))
	case EncSparse:
		return int64(len(s.pos8)) + 4*int64(len(s.chunkOff))
	default:
		return 4 * int64(len(s.runs))
	}
}

// Get reports whether bit i is set, reading bits at or beyond Len as zero
// (the zero-extension contract).
func (s *Slice) Get(i int) bool {
	if i < 0 {
		panic(fmt.Sprintf("bitvec: negative index %d", i))
	}
	if i >= s.n {
		return false
	}
	if s.cold != nil {
		// Correctness path only: O(payload). Query kernels never call Get.
		return s.Thaw().Get(i)
	}
	switch s.enc {
	case EncDense:
		return s.dense.Get(i)
	case EncSparse:
		c := i >> chunkShift
		if c+1 >= len(s.chunkOff) {
			return false
		}
		j := lowerBound8(s.pos8, int(s.chunkOff[c]), int(s.chunkOff[c+1]), uint8(i&chunkMask))
		return j < int(s.chunkOff[c+1]) && int(s.pos8[j]) == i&chunkMask
	default:
		for r := 0; r < len(s.runs); r += 2 {
			start := int(s.runs[r])
			if i < start {
				return false
			}
			if i < start+int(s.runs[r+1]) {
				return true
			}
		}
		return false
	}
}

// CloneFor returns a deep copy preserving the encoding, with room for the
// append the copy is made for: a dense copy's words already cover n bits,
// and a compressed copy's payload has spare capacity for one more set
// position (or run) at bit n-1. The copy-on-write machinery in sigfile
// clones a shared slice just before it appends the next row, and an
// exact-size copy would be reallocated by that very append.
func (s *Slice) CloneFor(n int) *Slice {
	if s.cold != nil {
		// The cold payload is immutable and shared; a header copy is a
		// full clone. Mutators thaw (producing private resident storage)
		// before their first write.
		c := *s
		return &c
	}
	c := &Slice{enc: s.enc, n: s.n, ones: s.ones}
	switch s.enc {
	case EncDense:
		c.dense = s.dense.CloneFor(n)
	case EncSparse:
		c.pos8 = append(make([]uint8, 0, len(s.pos8)+1), s.pos8...)
		c.chunkOff = append(make([]int32, 0, max(len(s.chunkOff), numChunks(n)+1)), s.chunkOff...)
		c.last = s.last
	default:
		c.runs = append(make([]uint32, 0, len(s.runs)+2), s.runs...)
	}
	return c
}

// AppendSet sets bit i and reports whether it was newly set. Appends must
// arrive in non-decreasing order of i for compressed encodings — the BBS
// insert path satisfies this by construction, as i is the transaction
// ordinal. A compressed slice whose payload reaches the dense size promotes
// itself to dense in place (the upper edge of the hysteresis band).
func (s *Slice) AppendSet(i int) bool {
	if i < 0 {
		panic(fmt.Sprintf("bitvec: negative index %d", i))
	}
	if s.cold != nil {
		panic("bitvec: append to a cold slice; Thaw it first")
	}
	switch s.enc {
	case EncDense:
		if i >= s.n {
			s.dense.Grow(i + 1)
			s.n = i + 1
		}
		if s.dense.Get(i) {
			return false
		}
		s.dense.Set(i)
		s.ones++
		return true
	case EncSparse:
		if i == s.last {
			return false
		}
		if i < s.last {
			panic(fmt.Sprintf("bitvec: out-of-order append %d after %d on sparse slice", i, s.last))
		}
		s.appendPos(i)
		s.last = i
		s.ones++
		if i >= s.n {
			s.n = i + 1
		}
		s.maybePromote()
		return true
	default: // EncRLE
		if len(s.runs) > 0 {
			start := int(s.runs[len(s.runs)-2])
			end := start + int(s.runs[len(s.runs)-1])
			if i < end {
				if i >= start {
					return false
				}
				panic(fmt.Sprintf("bitvec: out-of-order append %d before run end %d on rle slice", i, end))
			}
			if i == end {
				s.runs[len(s.runs)-1]++
				s.ones++
				if i >= s.n {
					s.n = i + 1
				}
				s.maybePromote()
				return true
			}
		}
		s.runs = append(s.runs, uint32(i), 1)
		s.ones++
		if i >= s.n {
			s.n = i + 1
		}
		s.maybePromote()
		return true
	}
}

// maybePromote flips a compressed slice to dense once its payload is no
// smaller than the dense layout — the upper edge of the hysteresis band.
// Only Recompress (directly or via MaybeCompress) moves the other way.
func (s *Slice) maybePromote() {
	if s.enc == EncDense || s.Bytes() < 8*int64(wordsFor(s.n)) {
		return
	}
	s.dense = s.Materialize()
	s.enc = EncDense
	s.pos8, s.chunkOff, s.runs = nil, nil, nil
}

// MaybeCompress re-encodes an appending dense slice downward when its
// sparse form would fit the build-time selection window — the lower edge
// of the hysteresis band whose upper edge is maybePromote. The window test
// is O(1) arithmetic on the popcount, cheap enough for the Insert path to
// run per set bit; the rebuild only fires when the window is actually
// entered, which appending ones alone can never cause (every new one grows
// the sparse payload) — only the slice's length outgrowing its density
// can. With demotion at half the dense payload and promotion at the full
// dense payload, a demoted slice must double its payload to promote back
// and a promoted slice must double its length to demote again, so appends
// cannot thrash. Returns the re-encoded slice or the receiver unchanged.
func (s *Slice) MaybeCompress() *Slice {
	if s.enc != EncDense || s.cold != nil {
		return s
	}
	words := wordsFor(s.n)
	if words < compressMinWords {
		return s
	}
	sparse := int64(s.ones) + 4*int64(numChunks(s.n)+1)
	if sparse > 8*int64(words)/compressWinDiv {
		return s
	}
	return s.Recompress(s.n, true)
}

// Materialize decodes the slice into a fresh dense Vector of length Len.
// Allocates; query paths must stay on the direct kernels instead.
func (s *Slice) Materialize() *Vector {
	if s.cold != nil {
		return s.Thaw().Materialize()
	}
	v := New(s.n)
	switch s.enc {
	case EncDense:
		copy(v.words, s.dense.words)
	case EncSparse:
		s.forEachPos(func(p int) {
			v.words[p>>wordShift] |= 1 << uint(p&wordMask)
		})
	default:
		for r := 0; r < len(s.runs); r += 2 {
			setWordRange(v.words, int(s.runs[r]), int(s.runs[r])+int(s.runs[r+1]))
		}
	}
	return v
}

// DenseVector returns the backing vector of a dense slice, aliased, or nil
// for compressed encodings. Serialization and tests use it; mutating the
// result corrupts the slice's popcount.
func (s *Slice) DenseVector() *Vector {
	if s.enc != EncDense || s.cold != nil {
		return nil // cold dense payloads have no resident vector to alias
	}
	return s.dense
}

// Positions returns the decoded set-bit positions of a sparse slice as a
// fresh ascending []uint32; nil unless EncSparse. Serialization and tests
// use it — the resident form stays the chunked u8 layout.
func (s *Slice) Positions() []uint32 {
	if s.enc != EncSparse {
		return nil
	}
	if s.cold != nil {
		return s.Thaw().Positions()
	}
	pos := make([]uint32, 0, s.ones)
	s.forEachPos(func(p int) { pos = append(pos, uint32(p)) })
	return pos
}

// Runs returns the RLE payload, aliased; nil unless EncRLE.
func (s *Slice) Runs() []uint32 {
	if s.enc != EncRLE {
		return nil
	}
	if s.cold != nil {
		return s.Thaw().Runs()
	}
	return s.runs
}

// Recompress re-picks the encoding from current contents, assuming the
// slice logically spans n bits (the index length; a lazily-grown slice may
// back fewer, but its dense cost is what a full-length layout would pay).
// With compress false the result is always dense (the classic layout).
// With compress true the smallest of the three payloads wins, but a
// compressed form is chosen only when it is at most half the dense payload
// — the lower edge of the hysteresis band — and tiny slices stay dense
// (compressMinWords). Returns s unchanged when the encoding already matches
// the choice; otherwise a newly built slice of length n, leaving s intact
// (safe against snapshots aliasing it).
func (s *Slice) Recompress(n int, compress bool) *Slice {
	if n < s.n {
		panic(fmt.Sprintf("bitvec: recompress length %d below slice length %d", n, s.n))
	}
	if s.cold != nil {
		// Re-encoding needs the payload resident; the result is resident
		// too — a policy flip un-tiers the slice until the next Tier pass.
		s = s.Thaw()
	}
	target := s.chooseEncoding(n, compress)
	if target == s.enc {
		return s
	}
	switch target {
	case EncDense:
		v := s.Materialize()
		v.Grow(n)
		return DenseSliceWithOnes(v, s.ones)
	case EncSparse:
		t := &Slice{enc: EncSparse, n: n, ones: s.ones, last: -1}
		t.pos8 = make([]uint8, 0, s.ones)
		s.forEachRange(func(start, end int) {
			for i := start; i < end; i++ {
				t.appendPos(i)
			}
			t.last = end - 1
		})
		return t
	default:
		runs := make([]uint32, 0, 2*s.countRuns())
		s.forEachRange(func(start, end int) {
			runs = append(runs, uint32(start), uint32(end-start))
		})
		return &Slice{enc: EncRLE, n: n, ones: s.ones, runs: runs}
	}
}

// chooseEncoding applies the build-time selection rule at logical length n.
func (s *Slice) chooseEncoding(n int, compress bool) Encoding {
	if !compress {
		return EncDense
	}
	words := wordsFor(n)
	if words < compressMinWords {
		return EncDense
	}
	denseBytes := 8 * int64(words)
	sparseBytes := int64(s.ones) + 4*int64(numChunks(n)+1)
	rleBytes := 8 * int64(s.countRuns())
	limit := denseBytes / compressWinDiv
	best, bestBytes := EncDense, denseBytes
	// RLE first so an equally small sparse form wins the tie below: the
	// position-list kernel is the simpler of the two.
	if rleBytes <= limit && rleBytes < bestBytes {
		best, bestBytes = EncRLE, rleBytes
	}
	if sparseBytes <= limit && sparseBytes <= bestBytes {
		best = EncSparse
	}
	return best
}

// countRuns returns the number of maximal runs of consecutive set bits.
func (s *Slice) countRuns() int {
	switch s.enc {
	case EncRLE:
		return len(s.runs) / 2
	case EncSparse:
		runs, prev := 0, -2
		s.forEachPos(func(p int) {
			if p != prev+1 {
				runs++
			}
			prev = p
		})
		return runs
	default:
		runs := 0
		prev := false
		for _, w := range s.dense.words {
			// A run starts at every 01 transition, reading the vector as a
			// bit stream; `prev` carries the last bit across word borders.
			starts := w &^ (w<<1 | boolBit(prev))
			runs += bits.OnesCount64(starts)
			prev = w>>63 != 0
		}
		return runs
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// forEachRange calls fn with every maximal run [start, end) of set bits.
func (s *Slice) forEachRange(fn func(start, end int)) {
	switch s.enc {
	case EncRLE:
		for r := 0; r < len(s.runs); r += 2 {
			fn(int(s.runs[r]), int(s.runs[r])+int(s.runs[r+1]))
		}
	case EncSparse:
		start, prev := -1, -2
		s.forEachPos(func(p int) {
			if p != prev+1 {
				if start >= 0 {
					fn(start, prev+1)
				}
				start = p
			}
			prev = p
		})
		if start >= 0 {
			fn(start, prev+1)
		}
	default:
		// Word by word: a run starts at the lowest set bit at or above the
		// cursor and ends at the lowest clear one above that, so a word
		// costs one TrailingZeros64 per run border in it. x is the word, or
		// its complement while a run is open, with the bits below the cursor
		// cleared. Bits past s.n are zero (the Vector's tail invariant), so
		// only a run reaching the last word's top bit is still open after it.
		start, open := 0, false
		for wi, w := range s.dense.words {
			x := w
			if open {
				x = ^w
			}
			for x != 0 {
				b := bits.TrailingZeros64(x)
				if open {
					fn(start, wi<<wordShift+b)
				} else {
					start = wi<<wordShift + b
				}
				open = !open
				x = ^x & (^uint64(0) << uint(b))
			}
		}
		if open {
			fn(start, s.n)
		}
	}
}

// AndCountInto replaces dst with dst AND s (zero-extended) and returns the
// popcount of the result, dispatching to the kernel for s's encoding and
// dst's mode. This is the compressed-slice counterpart of AndCountZX and
// the inner step of CountItemSet's rarest-first chain: the slice is never
// materialized, and a summarized accumulator keeps its summary maintained.
//
//lint:hotpath
func (s *Slice) AndCountInto(dst *Vector) int {
	// Kept to a short predicted check so it inlines into AndSlice: the
	// resident dense case — every slice of an uncompressed index — must
	// cost what the classic layout paid, one predicted branch (the cold
	// test folds into it: a resident dense slice always has cold == nil)
	// over a direct AndCountZX. Everything else — resident compressed and
	// all cold payloads — takes the out-of-line slow path.
	if s.enc == EncDense && s.cold == nil {
		return dst.AndCountZX(s.dense)
	}
	return s.andCountIntoSlow(dst)
}

// andCountIntoCompressed dispatches the compressed-encoding kernels on dst's
// mode. Split from AndCountInto to keep the dense fast path inlinable.
//
//lint:hotpath
func (s *Slice) andCountIntoCompressed(dst *Vector) int {
	switch s.enc {
	case EncSparse:
		if s.n > dst.n {
			panic(fmt.Sprintf("bitvec: zero-extended operand longer than destination: %d vs %d", s.n, dst.n))
		}
		if len(dst.summary) != 0 {
			return dst.andCountPositionsSparse(s.pos8, s.chunkOff)
		}
		return dst.andCountPositionsDense(s.pos8, s.chunkOff)
	default:
		if s.n > dst.n {
			panic(fmt.Sprintf("bitvec: zero-extended operand longer than destination: %d vs %d", s.n, dst.n))
		}
		if len(dst.summary) != 0 {
			return dst.andCountRunsSparse(s.runs)
		}
		return dst.andCountRunsDense(s.runs)
	}
}

// OrInto ORs the slice into dst (zero-extended), the Fold accumulation
// step. dst leaves sparse mode like the other wholesale mutators.
func (s *Slice) OrInto(dst *Vector) {
	if s.n > dst.n {
		panic(fmt.Sprintf("bitvec: zero-extended operand longer than destination: %d vs %d", s.n, dst.n))
	}
	if s.cold != nil {
		s.Thaw().OrInto(dst) // fold path, off the query kernels
		return
	}
	switch s.enc {
	case EncDense:
		dst.OrZX(s.dense)
	case EncSparse:
		dst.dropSummary()
		s.forEachPos(func(p int) {
			dst.words[p>>wordShift] |= 1 << uint(p&wordMask)
		})
	default:
		dst.dropSummary()
		for r := 0; r < len(s.runs); r += 2 {
			setWordRange(dst.words, int(s.runs[r]), int(s.runs[r])+int(s.runs[r+1]))
		}
	}
}

// OrAt ORs src into v starting at bit offset at: v[at+i] |= src[i] — one
// part's block laid into a block-order vector (see sigfile.View).
func (v *Vector) OrAt(src *Vector, at int) {
	if at < 0 || at+src.n > v.n {
		panic(fmt.Sprintf("bitvec: block [%d,%d) outside a vector of %d bits", at, at+src.n, v.n))
	}
	v.dropSummary()
	blitWords(v.words, at, src.words)
}

// CopyRange overwrites v with the v.Len() bits of src starting at bit offset
// at: v[i] = src[at+i], the inverse of OrAt.
func (v *Vector) CopyRange(src *Vector, at int) {
	if at < 0 || at+v.n > src.n {
		panic(fmt.Sprintf("bitvec: block [%d,%d) outside a vector of %d bits", at, at+v.n, src.n))
	}
	v.dropSummary()
	sw := src.words[at>>wordShift:]
	if shift := uint(at & wordMask); shift == 0 {
		copy(v.words, sw)
	} else {
		for i := range v.words {
			w := sw[i] >> shift
			if i+1 < len(sw) {
				w |= sw[i+1] << (wordBits - shift)
			}
			v.words[i] = w
		}
	}
	v.trimTail()
}

// blitWords ORs src into dst with a bit offset of `at`: dst[at+i] |= src[i]
// read bitwise. Offsets are word-aligned only when at%64 == 0; otherwise
// every source word straddles two destination words.
func blitWords(dst []uint64, at int, src []uint64) {
	wi, shift := at>>wordShift, uint(at&wordMask)
	if shift == 0 {
		for i, w := range src {
			dst[wi+i] |= w
		}
		return
	}
	for i, w := range src {
		dst[wi+i] |= w << shift
		if hi := w >> (wordBits - shift); hi != 0 {
			dst[wi+i+1] |= hi
		}
	}
}

// setWordRange ORs ones over the bit range [start, end) of dst.
func setWordRange(dst []uint64, start, end int) {
	if start >= end {
		return
	}
	fw, lw := start>>wordShift, (end-1)>>wordShift
	if fw == lw {
		dst[fw] |= onesRange(start&wordMask, (end-1)&wordMask+1)
		return
	}
	dst[fw] |= ^uint64(0) << uint(start&wordMask)
	for wi := fw + 1; wi < lw; wi++ {
		dst[wi] = ^uint64(0)
	}
	dst[lw] |= onesRange(0, (end-1)&wordMask+1)
}

// onesRange returns a word with bits [a, b) set, 0 <= a < b <= 64.
func onesRange(a, b int) uint64 {
	return (^uint64(0) >> uint(wordBits-(b-a))) << uint(a)
}

// andCountPositionsDense is the sparse-slice kernel against a dense
// accumulator: chunk by chunk, gather the entries into a four-word mask held
// in registers (a chunk is 256 bits), then AND it through the accumulator.
// Entry gathering is branch-free with no serial dependency, so the byte
// stream issues at full width; words past the slice's chunks are zeroed.
//
//lint:hotpath
func (v *Vector) andCountPositionsDense(pos8 []uint8, chunkOff []int32) int {
	vw := v.words
	cnt := 0
	wi := 0
	for c := 0; c+1 < len(chunkOff); c++ {
		var m [4]uint64
		for _, e := range pos8[chunkOff[c]:chunkOff[c+1]] {
			m[e>>6] |= 1 << uint(e&wordMask)
		}
		if wi+4 <= len(vw) {
			w0 := vw[wi] & m[0]
			w1 := vw[wi+1] & m[1]
			w2 := vw[wi+2] & m[2]
			w3 := vw[wi+3] & m[3]
			vw[wi], vw[wi+1], vw[wi+2], vw[wi+3] = w0, w1, w2, w3
			cnt += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
				bits.OnesCount64(w2) + bits.OnesCount64(w3)
			wi += 4
		} else {
			for k := 0; k < 4 && wi < len(vw); k, wi = k+1, wi+1 {
				w := vw[wi] & m[k]
				vw[wi] = w
				cnt += bits.OnesCount64(w)
			}
		}
	}
	for ; wi < len(vw); wi++ {
		vw[wi] = 0
	}
	return cnt
}

// andCountPositionsSparse is the sparse×sparse kernel: stream the slice's
// chunks in order, but consult the accumulator's summary first — four
// consecutive words share one summary nibble — and skip a chunk's payload
// entirely when all four are already dead. Both arrays are read strictly
// sequentially, so the walk prefetches like the dense kernel instead of
// bouncing between directory and payload, while a nearly-dead accumulator
// still skips most chunk payloads. Summary bits retire as words die.
//
//lint:hotpath
func (v *Vector) andCountPositionsSparse(pos8 []uint8, chunkOff []int32) int {
	cnt := 0
	nchunks := len(chunkOff) - 1
	if nchunks < 0 {
		nchunks = 0 // empty payload: fall through to the zero-extension tail
	}
	for c := 0; c < nchunks; c++ {
		wbase := c << (chunkShift - wordShift) // 4 words per 256-bit chunk
		// 4 divides 64, so the nibble never straddles summary words.
		sb := (v.summary[wbase>>wordShift] >> uint(wbase&wordMask)) & 0xf
		if sb == 0 {
			continue
		}
		var m [4]uint64
		for _, e := range pos8[chunkOff[c]:chunkOff[c+1]] {
			m[e>>6] |= 1 << uint(e&wordMask)
		}
		top := 4
		if rest := len(v.words) - wbase; rest < 4 {
			top = rest // last chunk of a short accumulator
		}
		for k := 0; k < top; k++ {
			if sb&(1<<uint(k)) == 0 {
				continue
			}
			wi := wbase + k
			w := v.words[wi] & m[k]
			v.words[wi] = w
			if w == 0 {
				v.summary[wi>>wordShift] &^= 1 << uint(wi&wordMask)
				v.nz--
			} else {
				cnt += bits.OnesCount64(w)
			}
		}
	}
	// Zero-extension tail: accumulator words past the slice's last chunk.
	for wi := nchunks << (chunkShift - wordShift); wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			v.words[wi] = 0
			v.summary[wi>>wordShift] &^= 1 << uint(wi&wordMask)
			v.nz--
		}
	}
	return cnt
}

// andCountRunsDense is the RLE kernel against a dense accumulator: a word
// cursor and a run cursor advance together; words fully inside a run keep
// their bits (popcount, no store), words outside every run are zeroed, and
// border words get a mask assembled from the runs touching them.
//
//lint:hotpath
func (v *Vector) andCountRunsDense(runs []uint32) int {
	vw := v.words
	c := 0
	r := 0
	for wi := 0; wi < len(vw); wi++ {
		lo := wi << wordShift
		hi := lo + wordBits
		for r < len(runs) && int(runs[r])+int(runs[r+1]) <= lo {
			r += 2
		}
		if r >= len(runs) || int(runs[r]) >= hi {
			vw[wi] = 0
			continue
		}
		if int(runs[r]) <= lo && int(runs[r])+int(runs[r+1]) >= hi {
			// Interior of a long run: mask is all ones, the word survives
			// untouched.
			c += bits.OnesCount64(vw[wi])
			continue
		}
		w := vw[wi] & runsWordMask(runs, r, lo, hi)
		vw[wi] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// andCountRunsSparse is the RLE skip-AND against a summarized accumulator:
// only the accumulator's nonzero words are visited, each masked by the runs
// covering it; the run cursor advances monotonically.
//
//lint:hotpath
func (v *Vector) andCountRunsSparse(runs []uint32) int {
	c := 0
	r := 0
	for si, sw := range v.summary {
		if sw == 0 {
			continue
		}
		base := si << wordShift
		for sw != 0 {
			t := bits.TrailingZeros64(sw)
			sw &= sw - 1
			wi := base + t
			lo := wi << wordShift
			hi := lo + wordBits
			for r < len(runs) && int(runs[r])+int(runs[r+1]) <= lo {
				r += 2
			}
			var w uint64
			if r < len(runs) && int(runs[r]) < hi {
				w = v.words[wi] & runsWordMask(runs, r, lo, hi)
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

// runsWordMask assembles the coverage mask of word [lo, hi) from the runs
// at or after pair index r; runs[r] is the first run ending after lo.
//
//lint:hotpath
func runsWordMask(runs []uint32, r, lo, hi int) uint64 {
	var mask uint64
	for ; r < len(runs) && int(runs[r]) < hi; r += 2 {
		a, b := int(runs[r]), int(runs[r])+int(runs[r+1])
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		mask |= onesRange(a-lo, b-lo)
	}
	return mask
}

// lowerBound8 returns the first index in a[i:j] whose value is >= x
// (j when none is), the binary search both sparse kernels lean on.
//
//lint:hotpath
func lowerBound8(a []uint8, i, j int, x uint8) int {
	for i < j {
		h := int(uint(i+j) >> 1)
		if a[h] < x {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}
