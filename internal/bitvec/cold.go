package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Cold slice payloads.
//
// A tiered index keeps a slice's header — encoding, length, popcount —
// resident while parking its payload in page-granular cold storage (the
// Bloofi observation: cheap per-slice metadata stays hot so cold bytes are
// only paid for when a slice actually joins an AND chain). The cold byte
// formats mirror the resident encodings one-to-one:
//
//	EncDense  — ceil(n/64) uint64 words, little-endian
//	EncSparse — ones × uint32 set-bit positions, strictly ascending
//
// A payload is an extent of a packed page file: it starts at an 8-byte
// aligned offset inside its first page — sharing that page with its
// neighbours — and, when it does not fit, runs on from byte 0 of the pages
// after it. All values are 4- or 8-byte aligned and the page size divides
// by 8, so no value ever straddles a page: the AND kernels stream the
// payload one page window at a time — pin, scan, release — and never
// materialize the slice. Each window is cut from the page once, so the
// loops inside it run without per-value bounds checks. The kernels produce
// bit-identical results to their resident counterparts; tiering moves
// bytes, never bits.

// PageSource serves the pages a cold payload's extent lies on: page 0 is
// the one holding the payload's first byte. The returned slice is
// read-only and valid until Release(k). Implementations surface I/O
// failure by panicking with a wrapped error: the cold file is derived data
// whose loss mid-kernel has no local recovery, and threading errors through
// the AND chain would tax the resident fast path (see sigfile's adapter for
// the policy).
type PageSource interface {
	// Page pins extent page k and returns its bytes.
	Page(k int) []byte
	// Release unpins page k.
	Release(k int)
	// PageSize returns the page granularity in bytes; it must be a
	// positive multiple of 8.
	PageSize() int
}

// coldPayload locates a slice's payload in cold storage.
type coldPayload struct {
	src   PageSource
	off   int // offset of the first payload byte inside page 0; a multiple of 8
	bytes int // payload length in bytes
}

// NewColdSlice builds a slice header whose payload of payloadBytes bytes
// lives behind src in the cold format for enc, starting off bytes into
// src's page 0. The header carries the logical length and popcount, so
// ordering, budgeting, and persistence metadata never fault a page.
func NewColdSlice(enc Encoding, n, ones int, src PageSource, off, payloadBytes int) *Slice {
	if off < 0 || off >= src.PageSize() || off&7 != 0 {
		panic(fmt.Sprintf("bitvec: cold payload offset %d not 8-byte aligned inside a %d-byte page", off, src.PageSize()))
	}
	return &Slice{enc: enc, n: n, ones: ones, cold: &coldPayload{src: src, off: off, bytes: payloadBytes}}
}

// window pins extent page k and returns the part of it that holds payload,
// given that done payload bytes lie on the pages before it. The caller
// releases page k.
func (c *coldPayload) window(k, done int) []byte {
	pg := c.src.Page(k)
	start := 0
	if k == 0 {
		start = c.off
	}
	end := start + c.bytes - done
	if end > len(pg) {
		end = len(pg)
	}
	return pg[start:end]
}

// IsCold reports whether the payload lives in cold storage.
func (s *Slice) IsCold() bool { return s.cold != nil }

// ColdPayloadBytes returns the cold payload length in bytes, 0 for a
// resident slice.
func (s *Slice) ColdPayloadBytes() int64 {
	if s.cold == nil {
		return 0
	}
	return int64(s.cold.bytes)
}

// EncodeCold serializes a resident slice's payload into the cold byte
// format for its encoding. The tiering pass writes this to the cold file;
// Thaw is its inverse.
func (s *Slice) EncodeCold() []byte {
	if s.cold != nil {
		panic("bitvec: EncodeCold on an already-cold slice")
	}
	if s.enc == EncDense {
		words := s.Materialize().words // normalizes a lazily-grown vector to wordsFor(n)
		out := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(out[8*i:], w)
		}
		return out
	}
	pos := s.Positions()
	out := make([]byte, 4*len(pos))
	for i, p := range pos {
		binary.LittleEndian.PutUint32(out[4*i:], p)
	}
	return out
}

// readAll streams the whole cold payload into one contiguous buffer —
// the decode path for Thaw and the rare whole-slice readers (Materialize,
// Fold's OrInto, shard merges). Query kernels never call it.
func (c *coldPayload) readAll() []byte {
	out := make([]byte, 0, c.bytes)
	for k := 0; len(out) < c.bytes; k++ {
		out = append(out, c.window(k, len(out))...)
		c.src.Release(k)
	}
	return out
}

// Thaw decodes a cold slice back into a fully resident one with the same
// encoding, length, and popcount; a resident receiver is returned as-is.
// The receiver is never modified (snapshots may share it) — the caller
// installs the result. Mutation paths thaw first: cold slices are
// immutable by construction.
func (s *Slice) Thaw() *Slice {
	if s.cold == nil {
		return s
	}
	raw := s.cold.readAll()
	if s.enc == EncDense {
		words := make([]uint64, len(raw)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		var v Vector
		if err := v.SetWords(words, s.n); err != nil {
			panic(fmt.Errorf("bitvec: thaw dense cold slice: %w", err))
		}
		return DenseSliceWithOnes(&v, s.ones)
	}
	pos := make([]uint32, len(raw)/4)
	for i := range pos {
		pos[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	t, err := SliceFromPositions(pos, s.n)
	if err != nil {
		panic(fmt.Errorf("bitvec: thaw sparse cold slice: %w", err))
	}
	return t
}

// andCountIntoSlow is AndCountInto's non-inlined tail: cold payloads
// stream through the page-windowed kernels below; resident sparse payloads
// dispatch to the direct kernels. Split out so the resident dense
// fast path in AndCountInto stays a single predicted branch.
//
//lint:hotpath
func (s *Slice) andCountIntoSlow(dst *Vector) int {
	if s.cold == nil {
		return s.andCountIntoSparse(dst)
	}
	if s.n > dst.n {
		panic(fmt.Sprintf("bitvec: zero-extended operand longer than destination: %d vs %d", s.n, dst.n))
	}
	// The cold kernels write dst.words directly, so the accumulator must
	// leave sparse mode first. A bits-identical change (the summary is an
	// overlay); the chain's MaybeSummarize re-promotes at the same points
	// it would on the resident path because the estimates are identical.
	dst.dropSummary()
	if s.enc == EncDense {
		return s.andCountColdDense(dst)
	}
	return s.andCountColdPositions(dst)
}

// andCountColdDense ANDs a cold dense payload into dst window by window:
// each is a run of little-endian words AND-ed and popcounted in one
// unrolled pass; dst words beyond the payload are zeroed (the ZX contract).
//
//lint:hotpath
func (s *Slice) andCountColdDense(dst *Vector) int {
	c := s.cold
	vw := dst.words
	cnt := 0
	wi := 0
	for k := 0; 8*wi < c.bytes; k++ {
		win := c.window(k, 8*wi)
		cnt += andCountBytes(vw[wi:], win)
		c.src.Release(k)
		wi += len(win) >> 3
	}
	for ; wi < len(vw); wi++ {
		vw[wi] = 0
	}
	return cnt
}

// andCountBytes ANDs the little-endian words of src into the front of dst
// and returns the popcount of the words it wrote: andCountDense over a
// byte window, 4-way unrolled the same way. Both slices shrink from the
// front, so the loop conditions are the only bounds checks.
func andCountBytes(dst []uint64, src []byte) int {
	c0, c1, c2, c3 := 0, 0, 0, 0
	for len(dst) >= 4 && len(src) >= 32 {
		w0 := dst[0] & binary.LittleEndian.Uint64(src[0:8])
		w1 := dst[1] & binary.LittleEndian.Uint64(src[8:16])
		w2 := dst[2] & binary.LittleEndian.Uint64(src[16:24])
		w3 := dst[3] & binary.LittleEndian.Uint64(src[24:32])
		dst[0], dst[1], dst[2], dst[3] = w0, w1, w2, w3
		c0 += bits.OnesCount64(w0)
		c1 += bits.OnesCount64(w1)
		c2 += bits.OnesCount64(w2)
		c3 += bits.OnesCount64(w3)
		dst, src = dst[4:], src[32:]
	}
	for len(dst) >= 1 && len(src) >= 8 {
		w := dst[0] & binary.LittleEndian.Uint64(src[0:8])
		dst[0] = w
		c0 += bits.OnesCount64(w)
		dst, src = dst[1:], src[8:]
	}
	return c0 + c1 + c2 + c3
}

// andCountColdPositions ANDs a cold sparse payload into dst by streaming
// its ascending uint32 positions: a (word, mask) cursor accumulates the
// positions of each word, flushes it with one AND+popcount, and zeroes the
// dst words the stream skips. One sequential pass over both arrays.
//
//lint:hotpath
func (s *Slice) andCountColdPositions(dst *Vector) int {
	c := s.cold
	vw := dst.words
	cnt := 0
	cur := -1
	var mask uint64
	for k, done := 0, 0; done < c.bytes; k++ {
		win := c.window(k, done)
		done += len(win)
		for ; len(win) >= 4; win = win[4:] {
			p := int(binary.LittleEndian.Uint32(win))
			w := p >> wordShift
			if w != cur {
				if cur >= 0 {
					nw := vw[cur] & mask
					vw[cur] = nw
					cnt += bits.OnesCount64(nw)
				}
				for i := cur + 1; i < w; i++ {
					vw[i] = 0
				}
				cur = w
				mask = 0
			}
			mask |= 1 << uint(p&wordMask)
		}
		c.src.Release(k)
	}
	if cur >= 0 {
		nw := vw[cur] & mask
		vw[cur] = nw
		cnt += bits.OnesCount64(nw)
	}
	for i := cur + 1; i < len(vw); i++ {
		vw[i] = 0
	}
	return cnt
}
