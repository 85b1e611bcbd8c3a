package bitvec

import (
	"encoding/binary"
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
//	EncDense  — 64-bit words, the classic layout; hot slices. The words
//	            wholly below the length are an append-only array that
//	            header copies share, the partial last word lives in the
//	            header (see dense.go).
//	EncSparse — one byte stream of per-chunk records: for each 256-bit
//	            chunk a count byte and its set positions' low 8 bits;
//	            rare slices.
//
// The tag value EncRLE is reserved; no Slice carries it.
//
// The sparse layout serves two masters. Size: one byte per set bit plus
// one directory byte per chunk is what lets moderately rare slices — the
// bulk of a signature file under a skewed item distribution — compress
// three-fold or better. Speed: the kernels read the stream strictly in
// order — prefetch-friendly — and the summarized-accumulator kernel skips
// a chunk's record outright, by its count byte alone, when all four of its
// words are dead. The same bytes are a sparse slice's cold payload (see
// cold.go), so tiering a slice copies its stream and nothing is re-encoded.
//
// A record is a count byte h followed by h ascending low-8-bit positions,
// h ≤ 254. A chunk holding 255 or 256 set bits — which no count byte can
// tell apart from the others — is stored as the tag byte bitmapTag and the
// chunk's four words, little-endian: 33 bytes instead of up to 257. The
// stream holds one record per chunk from chunk 0 through the chunk of the
// last set position; the chunks after it are zero by the ZX contract.
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
	// EncSparse stores set-bit positions as a stream of per-chunk records.
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
// of dense and sp is live, per enc.
type Slice struct {
	enc  Encoding
	n    int // logical length in bits
	ones int // popcount, maintained on every mutation
	// ones == 0 does not imply the backing store is empty (a dense slice
	// keeps its zero words); the converse always holds.

	// cold, when non-nil, means the payload lives in page-granular cold
	// storage instead of the fields below (which are nil): enc names the
	// payload's format, and the AND kernels stream it page by page from
	// cold.src (see cold.go). Cold slices are immutable; mutation paths
	// Thaw first. It sits with the fields above, ahead of dense, so that
	// what every AND and every dense append reads is the header's first
	// 64 bytes.
	cold *coldPayload

	dense denseWords // EncDense
	// EncSparse: sp is the record stream, one record per chunk through
	// the chunk of last; tail is the offset of that chunk's record.
	sp   []uint8
	tail int
	last int // EncSparse: last set position, -1 while empty
}

const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1

	// bitmapTag is the count byte of a record that holds its chunk as
	// bitmapBytes of words instead of a position list; a list record holds
	// at most bitmapTag-1 positions.
	bitmapTag   = 0xFF
	bitmapBytes = chunkSize / 8
	// maxRecord is the longest record: a count byte and bitmapTag-1
	// positions.
	maxRecord = bitmapTag
)

// numChunks returns how many 256-bit chunks cover an n-bit slice.
func numChunks(n int) int { return (n + chunkMask) >> chunkShift }

// sparseBytes is the size of a sparse payload holding ones set bits over n
// bits: a count byte per chunk plus a byte per set bit. It is exact for a
// slice whose last chunk holds a set bit and none of whose chunks is a
// bitmap record; any other slice's stream is smaller. The encoding choice
// (chooseEncoding, MaybeCompress) reads it in O(1) from the popcount.
func sparseBytes(ones, n int) int64 { return int64(ones) + int64(numChunks(n)) }

// recordEnd returns the offset just past the record starting at sp[i].
func recordEnd(sp []uint8, i int) int {
	if h := sp[i]; h != bitmapTag {
		return i + 1 + int(h)
	}
	return i + 1 + bitmapBytes
}

// chunkWords decodes one whole record into its chunk's four words.
func chunkWords(rec []uint8) (m [4]uint64) {
	if rec[0] == bitmapTag {
		for k := range m {
			m[k] = binary.LittleEndian.Uint64(rec[1+8*k:])
		}
		return m
	}
	for _, e := range rec[1:] {
		m[e>>wordShift] |= 1 << uint(e&wordMask)
	}
	return m
}

// appendPos appends one set position to a sparse payload. Positions must
// arrive ascending; empty records fill the chunks the stream skips, and a
// list record that would reach bitmapTag entries turns into a bitmap.
func (s *Slice) appendPos(p int) {
	c := p >> chunkShift
	if s.last < 0 || c != s.last>>chunkShift {
		// While the stream is empty, s.last>>chunkShift is -1.
		for next := s.last>>chunkShift + 1; next < c; next++ {
			s.sp = append(s.sp, 0)
		}
		s.tail = len(s.sp)
		s.sp = append(s.sp, 0)
	}
	switch h := s.sp[s.tail]; h {
	case bitmapTag:
		s.sp[s.tail+1+(p&chunkMask)>>3] |= 1 << uint(p&7)
	case bitmapTag - 1:
		m := chunkWords(s.sp[s.tail:])
		s.sp = append(s.sp[:s.tail], bitmapTag)
		for _, w := range m {
			s.sp = binary.LittleEndian.AppendUint64(s.sp, w)
		}
		s.sp[s.tail+1+(p&chunkMask)>>3] |= 1 << uint(p&7)
	default:
		s.sp[s.tail] = h + 1
		s.sp = append(s.sp, uint8(p&chunkMask))
	}
	s.last = p
}

// forEachPos calls fn with every set position of a sparse payload in
// ascending order.
func (s *Slice) forEachPos(fn func(p int)) {
	for i, c := 0, 0; i < len(s.sp); c++ {
		end := recordEnd(s.sp, i)
		for k, w := range chunkWords(s.sp[i:end]) {
			base := c<<chunkShift + k<<wordShift
			for ; w != 0; w &= w - 1 {
				fn(base + bits.TrailingZeros64(w))
			}
		}
		i = end
	}
}

// NewDenseSlice returns a zeroed dense slice of n bits.
func NewDenseSlice(n int) *Slice {
	return denseSliceOf(make([]uint64, wordsFor(n)), n, 0)
}

// denseSliceOf adopts words, exactly wordsFor(n) of them with the bits past
// n clear, as an n-bit dense slice holding ones set bits.
func denseSliceOf(words []uint64, n, ones int) *Slice {
	return &Slice{enc: EncDense, n: n, ones: ones, dense: denseWordsOf(words, n)}
}

// NewSparseSlice returns an empty slice in sparse encoding, the natural
// starting point for a compressed index built by appends.
func NewSparseSlice() *Slice {
	return &Slice{enc: EncSparse, last: -1}
}

// DenseSliceOf wraps an existing vector as a dense slice. The vector is
// aliased, not copied; the caller hands over ownership.
func DenseSliceOf(v *Vector) *Slice {
	return denseSliceOf(v.words, v.n, v.Count())
}

// DenseSliceWithOnes is DenseSliceOf with a caller-supplied popcount, for
// callers that already know it — a load reading a persisted count, a thaw
// carrying the cold header's — so wrapping skips the recount. A wrong count
// never corrupts results (the AND chain is order-insensitive); it only
// degrades the rarest-first ordering, so trusted-but-unverified sources
// like a persisted header are acceptable.
func DenseSliceWithOnes(v *Vector, ones int) *Slice {
	return denseSliceOf(v.words, v.n, ones)
}

// SliceFromPositions builds a sparse slice from serialized set-bit
// positions (decode path). Positions must be strictly ascending and below n.
// The stream is sized from the positions, not from n: a record per chunk
// through the last position's, and a byte per position.
func SliceFromPositions(pos []uint32, n int) (*Slice, error) {
	s := &Slice{enc: EncSparse, n: n, ones: len(pos), last: -1}
	if len(pos) > 0 {
		s.sp = make([]uint8, 0, len(pos)+int(pos[len(pos)-1]>>chunkShift)+1)
	}
	for i, p := range pos {
		if i > 0 && p <= pos[i-1] {
			return nil, fmt.Errorf("bitvec: sparse positions not strictly ascending at %d", i)
		}
		if int(p) >= n {
			return nil, fmt.Errorf("bitvec: sparse position %d beyond length %d", p, n)
		}
		s.appendPos(int(p))
	}
	return s, nil
}

// SliceFromRecords builds a sparse slice of n bits over sp, a serialized
// record stream (decode path), adopting sp rather than copying it. The
// stream must be the one appendPos writes: list records of strictly
// ascending entries, bitmap records only for chunks of bitmapTag or more
// set bits, no position at or beyond n, and a last record that is not
// empty. Anything else would break the appends and the byte-identity of a
// re-encode, so it is an error.
func SliceFromRecords(sp []uint8, n int) (*Slice, error) {
	s := &Slice{enc: EncSparse, n: n, sp: sp, last: -1}
	for i, c := 0, 0; i < len(sp); c++ {
		h, end := int(sp[i]), recordEnd(sp, i)
		if end > len(sp) {
			return nil, fmt.Errorf("bitvec: record %d runs past the end of a %d-byte stream", c, len(sp))
		}
		for k := i + 2; h != bitmapTag && k < end; k++ {
			if sp[k] <= sp[k-1] {
				return nil, fmt.Errorf("bitvec: record %d entries not strictly ascending", c)
			}
		}
		m := chunkWords(sp[i:end])
		ones := 0
		for _, w := range m {
			ones += bits.OnesCount64(w)
		}
		if h == bitmapTag && ones < bitmapTag {
			return nil, fmt.Errorf("bitvec: bitmap record %d holds only %d positions", c, ones)
		}
		if ones > 0 {
			s.last = c<<chunkShift + highBit(m)
		} else if end == len(sp) {
			return nil, fmt.Errorf("bitvec: stream ends in an empty record")
		}
		if s.last >= n {
			return nil, fmt.Errorf("bitvec: sparse position %d beyond length %d", s.last, n)
		}
		s.ones += ones
		s.tail, i = i, end
	}
	return s, nil
}

// highBit returns the highest set bit of a chunk's words, or -1 if none.
func highBit(m [4]uint64) int {
	for k := 3; k >= 0; k-- {
		if m[k] != 0 {
			return k<<wordShift + wordBits - 1 - bits.LeadingZeros64(m[k])
		}
	}
	return -1
}

// Records returns a sparse slice's record stream, aliased, or nil for a
// dense or cold one. Serialization uses it; the caller must not modify it.
func (s *Slice) Records() []uint8 {
	if s.enc != EncSparse || s.cold != nil {
		return nil
	}
	return s.sp
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
		return 8 * int64(wordsFor(s.n))
	}
	return int64(len(s.sp))
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
		return s.dense.get(i)
	}
	j := 0
	for c := i >> chunkShift; c > 0 && j < len(s.sp); c-- {
		j = recordEnd(s.sp, j)
	}
	if j == len(s.sp) {
		return false // past the last record
	}
	m := chunkWords(s.sp[j:recordEnd(s.sp, j)])
	return m[(i&chunkMask)>>wordShift]&(1<<uint(i&wordMask)) != 0
}

// CloneFor returns a copy preserving the encoding, for appends up to bit
// n-1 that must not reach the receiver. A dense copy is a header copy: it
// shares the receiver's full words, which no append to either rewrites (see
// dense.go). A sparse copy is deep, its stream with spare capacity for one
// more set position at bit n-1: its position byte and the count bytes of
// the chunks up to it. The copy-on-write machinery in sigfile clones a
// shared slice just before it appends the next row, and an exact-size copy
// would be reallocated by that very append.
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
		s.dense.arr.shared = true // both headers may go on appending
		c.dense = s.dense
		return c
	}
	grow := 1 + max(0, numChunks(n)-(s.last>>chunkShift+1))
	c.sp = append(make([]uint8, 0, len(s.sp)+grow), s.sp...)
	c.tail, c.last = s.tail, s.last
	return c
}

// AppendSet sets bit i and reports whether it was newly set. Appends must
// arrive in non-decreasing order of i for a sparse slice — the BBS insert
// path satisfies this by construction, as i is the transaction ordinal. A
// sparse slice whose payload reaches the dense size promotes itself to
// dense in place (the upper edge of the hysteresis band). On a dense slice
// the test and the set are one load and one store of the bit's word: the
// header's partial word when i is the last bit.
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
		if !s.dense.appendSet(s.n, i) {
			return false // only a bit below n can already be set
		}
		s.n = max(s.n, i+1)
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
	s.dense = denseWordsOf(s.Materialize().words, s.n)
	s.enc = EncDense
	s.sp = nil
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
	if sparseBytes(s.ones, s.n) > 8*int64(words)/compressWinDiv {
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
	if d := &s.dense; s.enc == EncDense {
		copy(v.words, d.full)
		if d.part != 0 {
			v.words[len(d.full)] = d.part
		}
		return v
	}
	s.forEachPos(func(p int) {
		v.words[p>>wordShift] |= 1 << uint(p&wordMask)
	})
	return v
}

// AppendDense appends a resident dense slice's words to dst, wordsFor(Len)
// of them, little-endian: the bytes a dense vector of Len bits serializes
// to. Any other slice appends nothing.
func (s *Slice) AppendDense(dst []byte) []byte {
	if s.enc != EncDense || s.cold != nil {
		return dst
	}
	for _, w := range s.dense.full {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	if s.n&wordMask != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, s.dense.part)
	}
	return dst
}

// Positions returns the decoded set-bit positions of a sparse slice as a
// fresh ascending []uint32; nil unless EncSparse. Serialization and tests
// use it — the resident form stays the record stream.
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
	t.sp = make([]uint8, 0, sparseBytes(s.ones, s.n))
	for wi, w := range s.dense.full {
		t.appendWord(wi, w)
	}
	t.appendWord(len(s.dense.full), s.dense.part)
	return t
}

// appendWord appends the set bits of word wi to a sparse payload.
func (s *Slice) appendWord(wi int, w uint64) {
	for ; w != 0; w &= w - 1 {
		s.appendPos(wi<<wordShift + bits.TrailingZeros64(w))
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
	if sparseBytes(s.ones, n) <= 8*int64(words)/compressWinDiv {
		return EncSparse
	}
	return EncDense
}

// AndCountInto replaces dst with dst AND s (zero-extended) and returns the
// popcount of the result, dispatching to the kernel for s's encoding and
// dst's mode. This is the compressed-slice counterpart of AndCountZX and
// the inner step of CountItemSet's rarest-first chain: the slice is never
// materialized, and a summarized accumulator keeps its summary maintained.
//
//lint:hotpath
func (s *Slice) AndCountInto(dst *Vector) int {
	// The resident dense case — every slice of an uncompressed index —
	// costs one predicted branch over the dense kernel (the cold test folds
	// into it: a resident dense slice always has cold == nil). Everything
	// else — resident sparse and all cold payloads — takes the
	// out-of-line slow path.
	if s.enc == EncDense && s.cold == nil {
		return dst.andCountZX(&s.dense, s.n)
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
		return dst.andCountRecordsSummarized(s.sp)
	}
	cnt, _, c := andCountRecords(dst.words, s.sp, 0)
	clear(dst.words[min(c<<(chunkShift-wordShift), len(dst.words)):])
	return cnt
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
		dst.orZX(&s.dense)
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

// andCountRecords is the sparse-slice kernel against a dense accumulator:
// it ANDs the whole records at the front of sp into vw, the first of them
// being chunk c, and returns the popcount of the words it wrote, the bytes
// it consumed and the chunk after the last. Record by record, the entries
// gather into a four-word mask held in registers (a chunk is 256 bits) that
// is then AND-ed through the accumulator; entry gathering is branch-free
// with no serial dependency, so the byte stream issues at full width. A
// record cut short by the end of sp is left for the caller: the cold
// kernel carries it into the next page window. The accumulator words past
// the last chunk are the caller's to zero. Both record kernels spell out
// the position-list loop rather than call chunkWords: with a chunk holding
// a handful of positions, the call's copied result cost about a third of
// the dense-accumulator kernel's time.
//
//lint:hotpath
func andCountRecords(vw []uint64, sp []uint8, c int) (cnt, used, next int) {
	i := 0
	for i < len(sp) {
		var m [4]uint64
		if h := int(sp[i]); h != bitmapTag {
			if i+1+h > len(sp) {
				break
			}
			for _, e := range sp[i+1 : i+1+h] {
				m[e>>wordShift] |= 1 << uint(e&wordMask)
			}
			i += 1 + h
		} else {
			if i+1+bitmapBytes > len(sp) {
				break
			}
			m = chunkWords(sp[i : i+1+bitmapBytes])
			i += 1 + bitmapBytes
		}
		wi := c << (chunkShift - wordShift)
		c++
		if wi+4 <= len(vw) {
			w0 := vw[wi] & m[0]
			w1 := vw[wi+1] & m[1]
			w2 := vw[wi+2] & m[2]
			w3 := vw[wi+3] & m[3]
			vw[wi], vw[wi+1], vw[wi+2], vw[wi+3] = w0, w1, w2, w3
			cnt += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
				bits.OnesCount64(w2) + bits.OnesCount64(w3)
			continue
		}
		for k := 0; wi < len(vw); k, wi = k+1, wi+1 {
			w := vw[wi] & m[k]
			vw[wi] = w
			cnt += bits.OnesCount64(w)
		}
	}
	return cnt, i, c
}

// andCountRecordsSummarized is the sparse×sparse kernel: stream the
// slice's records in order, but consult the accumulator's summary first —
// four consecutive words share one summary nibble — and skip a record by
// its count byte alone when all four are already dead. The stream is read
// strictly sequentially, so the walk prefetches like the dense kernel,
// while a nearly-dead accumulator still skips most records. Summary bits
// retire as words die.
//
//lint:hotpath
func (v *Vector) andCountRecordsSummarized(sp []uint8) int {
	cnt, c := 0, 0
	for i := 0; i < len(sp); c++ {
		h := int(sp[i])
		end := i + 1 + h
		if h == bitmapTag {
			end = i + 1 + bitmapBytes
		}
		wbase := c << (chunkShift - wordShift) // 4 words per 256-bit chunk
		// 4 divides 64, so the nibble never straddles summary words.
		sb := (v.summary[wbase>>wordShift] >> uint(wbase&wordMask)) & 0xf
		if sb == 0 {
			i = end
			continue
		}
		var m [4]uint64
		if h != bitmapTag {
			for _, e := range sp[i+1 : end] {
				m[e>>wordShift] |= 1 << uint(e&wordMask)
			}
		} else {
			m = chunkWords(sp[i:end])
		}
		i = end
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
	for wi := c << (chunkShift - wordShift); wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			v.words[wi] = 0
			v.summary[wi>>wordShift] &^= 1 << uint(wi&wordMask)
			v.nz--
		}
	}
	return cnt
}
