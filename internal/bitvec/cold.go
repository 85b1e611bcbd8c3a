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
// formats are the resident encodings' bytes:
//
//	EncDense  — ceil(n/64) uint64 words, little-endian
//	EncSparse — the resident record stream itself (see slice.go): per
//	            256-bit chunk a count byte and its low-8-bit positions, or
//	            bitmapTag and the chunk's four words
//
// A payload is an extent of a packed page file: it starts at an 8-byte
// aligned offset inside its first page — sharing that page with its
// neighbours — and, when it does not fit, runs on from byte 0 of the pages
// after it. The AND kernels stream the payload one page window at a time —
// pin, scan, release — and never materialize the slice. Dense words are
// 8-byte aligned and the page size divides by 8, so no word straddles a
// page; a sparse record can, and the sparse kernel carries the part a
// window cuts off into the next one. The kernels produce bit-identical
// results to their resident counterparts; tiering moves bytes, never bits.

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
// Thaw is its inverse. A sparse slice's stream is its cold format, so it is
// returned aliased, not copied: the caller must not modify it.
func (s *Slice) EncodeCold() []byte {
	if s.cold != nil {
		panic("bitvec: EncodeCold on an already-cold slice")
	}
	if s.enc == EncDense {
		return s.AppendDense(make([]byte, 0, 8*wordsFor(s.n)))
	}
	return s.sp
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
		if len(raw) != 8*wordsFor(s.n) {
			panic(fmt.Sprintf("bitvec: thaw dense cold slice: %d bytes cannot hold exactly %d bits", len(raw), s.n))
		}
		words := make([]uint64, len(raw)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		return denseSliceOf(words, s.n, s.ones)
	}
	// The payload was a resident stream, so its last record holds the last
	// set position: hop to it by count bytes and decode it alone.
	t := &Slice{enc: EncSparse, n: s.n, ones: s.ones, sp: raw, last: -1}
	for i, c := 0, 0; i < len(raw); i, c = recordEnd(raw, i), c+1 {
		t.tail = i
		t.last = c << chunkShift
	}
	if len(raw) > 0 {
		t.last += highBit(chunkWords(raw[t.tail:]))
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
	return s.andCountColdRecords(dst)
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

// andCountColdRecords ANDs a cold sparse payload into dst window by
// window with the resident kernel's record loop. A record the window's end
// cuts off is gathered in a carry buffer — across as many windows as it
// spans — and AND-ed once whole; dst words past the last chunk are zeroed
// (the ZX contract).
//
//lint:hotpath
func (s *Slice) andCountColdRecords(dst *Vector) int {
	c := s.cold
	vw := dst.words
	var carry [maxRecord]byte
	nc, cnt, chunk := 0, 0, 0
	for k, done := 0, 0; done < c.bytes; k++ {
		win := c.window(k, done)
		done += len(win)
		if nc > 0 {
			take := copy(carry[nc:recordEnd(carry[:], 0)], win)
			nc += take
			win = win[take:]
			if nc == recordEnd(carry[:], 0) {
				n, _, next := andCountRecords(vw, carry[:nc], chunk)
				cnt, chunk, nc = cnt+n, next, 0
			}
		}
		if nc == 0 {
			n, used, next := andCountRecords(vw, win, chunk)
			cnt, chunk = cnt+n, next
			nc = copy(carry[:], win[used:])
		}
		c.src.Release(k)
	}
	clear(vw[min(chunk<<(chunkShift-wordShift), len(vw)):])
	return cnt
}
