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
// regardless of content. A Slice therefore carries one of two physical
// encodings, chosen from its popcount:
//
//	EncDense  — []uint64 words, the classic layout; hot slices.
//	EncSparse — sorted set-bit positions as byte offsets within 256-bit
//	            chunks, behind a CSR-style chunk directory; rare slices.
//
// The tag value EncRLE is reserved; no Slice carries it.
//
// The sparse layout serves two masters. Size: one byte per set bit (plus a
// ~3% directory) is what lets moderately rare slices — the bulk of a
// signature file under a skewed item distribution — compress three-fold or
// better. Speed: unlike a byte-packed delta stream it is randomly
// accessible, so the kernels walk the chunk directory and payload strictly
// in order — prefetch-friendly — and the summarized-accumulator kernel
// skips a chunk's payload outright when all four of its words are dead.
//
// The AND kernel operates directly on the compressed form — a sparse slice
// ANDs into the accumulator by masking only the words its positions name —
// so the rarest-first chain never decompresses a slice. The accumulator
// stays a dense Vector (optionally in summary mode, see sparse.go), and
// every kernel produces bit-identical results to materializing the slice
// and calling AndCountZX.
//
// Encoding selection is hysteretic so per-transaction appends cannot thrash:
// the sparse form is chosen — at build/Fold/Load time, or by an append
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
	// EncRLE is the retired run-length tag. No Slice carries it; the value
	// stays reserved because v3 index files written before its retirement
	// may hold it (the loader re-encodes such slices), and bbsperf (bench/)
	// still names it.
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
	// compressWinDiv gates build-time selection: the sparse encoding is
	// chosen only when its payload is at most denseBytes/compressWinDiv.
	// Appends promote back to dense at payload >= denseBytes (1x), so the
	// band between 1/compressWinDiv and 1 is the hysteresis that keeps
	// Insert from thrashing encodings.
	compressWinDiv = 2
)

// Slice is one signature-file bit column under an adaptive encoding. The
// logical length n plays the same role as Vector.Len: bits at or beyond n
// read as zero (the zero-extension contract of the ZX kernels). Exactly one
// of dense and pos8/chunkOff is live, per enc.
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
	last     int // EncSparse: last set position, -1 while empty

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
	if s.enc == EncDense {
		return 8 * int64(len(s.dense.words))
	}
	return int64(len(s.pos8)) + 4*int64(len(s.chunkOff))
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
	if s.enc == EncDense {
		return s.dense.Get(i)
	}
	c := i >> chunkShift
	if c+1 >= len(s.chunkOff) {
		return false
	}
	j := lowerBound8(s.pos8, int(s.chunkOff[c]), int(s.chunkOff[c+1]), uint8(i&chunkMask))
	return j < int(s.chunkOff[c+1]) && int(s.pos8[j]) == i&chunkMask
}

// CloneFor returns a deep copy preserving the encoding, with room for the
// append the copy is made for: a dense copy's words already cover n bits,
// and a sparse copy's payload has spare capacity for one more set position
// at bit n-1. The copy-on-write machinery in sigfile
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
	if s.enc == EncDense {
		c.dense = s.dense.CloneFor(n)
		return c
	}
	c.pos8 = append(make([]uint8, 0, len(s.pos8)+1), s.pos8...)
	c.chunkOff = append(make([]int32, 0, max(len(s.chunkOff), numChunks(n)+1)), s.chunkOff...)
	c.last = s.last
	return c
}

// AppendSet sets bit i and reports whether it was newly set. Appends must
// arrive in non-decreasing order of i for a sparse slice — the BBS insert
// path satisfies this by construction, as i is the transaction ordinal. A
// sparse slice whose payload reaches the dense size promotes itself to
// dense in place (the upper edge of the hysteresis band). On a dense slice
// the test and the set are one load and one store of the bit's word.
//
//lint:hotpath
func (s *Slice) AppendSet(i int) bool {
	if i < 0 {
		panic(fmt.Sprintf("bitvec: negative index %d", i))
	}
	if s.cold != nil {
		panic("bitvec: append to a cold slice; Thaw it first")
	}
	if s.enc == EncDense {
		if i >= s.n {
			s.dense.Grow(i + 1)
			s.n = i + 1
		}
		if !s.dense.testAndSet(i) {
			return false
		}
		s.ones++
		return true
	}
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
}

// maybePromote flips a sparse slice to dense once its payload is no
// smaller than the dense layout — the upper edge of the hysteresis band.
// Only Recompress (directly or via MaybeCompress) moves the other way.
func (s *Slice) maybePromote() {
	if s.enc == EncDense || s.Bytes() < 8*int64(wordsFor(s.n)) {
		return
	}
	s.dense = s.Materialize()
	s.enc = EncDense
	s.pos8, s.chunkOff = nil, nil
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
	if s.enc == EncDense {
		copy(v.words, s.dense.words)
		return v
	}
	s.forEachPos(func(p int) {
		v.words[p>>wordShift] |= 1 << uint(p&wordMask)
	})
	return v
}

// DenseVector returns the backing vector of a dense slice, aliased, or nil
// for a sparse one. Serialization and tests use it; mutating the
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

// Recompress re-picks the encoding from current contents, assuming the
// slice logically spans n bits (the index length; a lazily-grown slice may
// back fewer, but its dense cost is what a full-length layout would pay).
// With compress false the result is always dense (the classic layout).
// With compress true the smaller of the sparse and dense payloads wins, but
// sparse is chosen only when it is at most half the dense payload — the
// lower edge of the hysteresis band — and tiny slices stay dense
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
	if target == EncDense {
		v := s.Materialize()
		v.Grow(n)
		return DenseSliceWithOnes(v, s.ones)
	}
	// target is sparse and differs from s.enc, so s is dense.
	t := &Slice{enc: EncSparse, n: n, ones: s.ones, last: -1}
	t.pos8 = make([]uint8, 0, s.ones)
	s.forEachRange(func(start, end int) {
		for i := start; i < end; i++ {
			t.appendPos(i)
		}
		t.last = end - 1
	})
	return t
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
	sparseBytes := int64(s.ones) + 4*int64(numChunks(n)+1)
	if sparseBytes <= 8*int64(words)/compressWinDiv {
		return EncSparse
	}
	return EncDense
}

// forEachRange calls fn with every maximal run [start, end) of set bits of
// a dense slice — the walk Recompress builds a sparse payload from, the
// only re-encoding that is not a plain Materialize.
//
// Word by word: a run starts at the lowest set bit at or above the cursor
// and ends at the lowest clear one above that, so a word costs one
// TrailingZeros64 per run border in it. x is the word, or its complement
// while a run is open, with the bits below the cursor cleared. Bits past
// s.n are zero (the Vector's tail invariant), so only a run reaching the
// last word's top bit is still open after it.
func (s *Slice) forEachRange(fn func(start, end int)) {
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
	// over a direct AndCountZX. Everything else — resident sparse and all
	// cold payloads — takes the out-of-line slow path.
	if s.enc == EncDense && s.cold == nil {
		return dst.AndCountZX(s.dense)
	}
	return s.andCountIntoSlow(dst)
}

// andCountIntoSparse dispatches the resident sparse-slice kernels on dst's
// mode. Split from AndCountInto to keep the dense fast path inlinable.
//
//lint:hotpath
func (s *Slice) andCountIntoSparse(dst *Vector) int {
	if s.n > dst.n {
		panic(fmt.Sprintf("bitvec: zero-extended operand longer than destination: %d vs %d", s.n, dst.n))
	}
	if len(dst.summary) != 0 {
		return dst.andCountPositionsSparse(s.pos8, s.chunkOff)
	}
	return dst.andCountPositionsDense(s.pos8, s.chunkOff)
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
	if s.enc == EncDense {
		dst.OrZX(s.dense)
		return
	}
	dst.dropSummary()
	s.forEachPos(func(p int) {
		dst.words[p>>wordShift] |= 1 << uint(p&wordMask)
	})
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
