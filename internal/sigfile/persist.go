package sigfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/iostat"
	"bbsmine/internal/sighash"
)

// On-disk layout of a persisted BBS ("the structure is persistent — there is
// no need to reconstruct the BBS upon every update"). Current format,
// BBSSIG04:
//
//	magic(8) | m uint32 | k uint32 | n uint64 | flags byte
//	| numItems uint32 | (item int32, count uint64)*    exact 1-itemset counts
//	| liveFlag byte | [deleted uint64 | ceil(n/64) uint64]   live-row mask
//	| m × slice, each: ones uint64 | enc byte | payload
//	    enc 0 (dense):  ceil(n/64) uint64 words
//	    enc 1 (sparse): bytes uint32 | the slice's record stream (bitvec's
//	                    resident and cold sparse layout: per 256-bit chunk
//	                    a count byte and its low-8-bit positions)
//	    enc 2 (rle):    retired; still read, as pairs uint32 | pairs ×
//	                    (start uint32, len uint32), and re-encoded on load
//
// All integers little-endian. Items are written in ascending order so the
// file is deterministic for a given index state. flags bit 0 records the
// compression policy. The per-slice ones field persists the popcount, so
// Load rebuilds the rarest-first ordering without recounting m×n bits — on
// a cold start of a large index that recount used to dominate open time.
// n is at most 2^32, the most rows a uint32 position can name.
//
// Load still accepts the two previous formats. BBSSIG03 differs only in
// the sparse payload, count uint32 | count × uint32 ascending positions.
// BBSSIG02 is identical up to the flags byte and stores every slice as
// bare dense words with no ones/enc prefix (recounted on load, as it
// always was), so pre-compression index files open unchanged.

var (
	sigMagic   = [8]byte{'B', 'B', 'S', 'S', 'I', 'G', '0', '4'}
	sigMagicV3 = [8]byte{'B', 'B', 'S', 'S', 'I', 'G', '0', '3'}
	sigMagicV2 = [8]byte{'B', 'B', 'S', 'S', 'I', 'G', '0', '2'}
)

const flagCompress = 1 << 0

// Save writes the index to path atomically (write to temp file, rename).
func (b *BBS) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("sigfile: create %s: %w", tmp, err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err := b.writeTo(w); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("sigfile: flush: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("sigfile: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("sigfile: rename: %w", err)
	}
	return nil
}

func (b *BBS) writeTo(w io.Writer) error {
	if _, err := w.Write(sigMagic[:]); err != nil {
		return fmt.Errorf("sigfile: write magic: %w", err)
	}
	hdr := make([]byte, 17)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(b.M()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(b.hasher.K()))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(b.n))
	if b.compress {
		hdr[16] = flagCompress
	}
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("sigfile: write header: %w", err)
	}

	items := b.Items() // ascending, so the file layout is reproducible
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(items)))
	if _, err := w.Write(cnt[:]); err != nil {
		return fmt.Errorf("sigfile: write item count: %w", err)
	}
	pair := make([]byte, 12)
	for _, it := range items {
		binary.LittleEndian.PutUint32(pair[0:4], uint32(it))
		binary.LittleEndian.PutUint64(pair[4:12], uint64(b.itemCounts.get(it)))
		if _, err := w.Write(pair); err != nil {
			return fmt.Errorf("sigfile: write item entry: %w", err)
		}
	}

	wordBuf := make([]byte, 8)
	if b.live == nil {
		if _, err := w.Write([]byte{0}); err != nil {
			return fmt.Errorf("sigfile: write live flag: %w", err)
		}
	} else {
		if _, err := w.Write([]byte{1}); err != nil {
			return fmt.Errorf("sigfile: write live flag: %w", err)
		}
		binary.LittleEndian.PutUint64(wordBuf, uint64(b.deleted))
		if _, err := w.Write(wordBuf); err != nil {
			return fmt.Errorf("sigfile: write deleted count: %w", err)
		}
		for _, word := range b.live.Words() {
			binary.LittleEndian.PutUint64(wordBuf, word)
			if _, err := w.Write(wordBuf); err != nil {
				return fmt.Errorf("sigfile: write live mask: %w", err)
			}
		}
	}

	var dense []byte // one slice's words, reused across slices
	for p, s := range b.slices {
		if err := b.writeSlice(w, p, s, wordBuf, &dense); err != nil {
			return err
		}
	}
	return nil
}

// writeSlice emits one slice record: persisted popcount, encoding tag, then
// the encoding's payload. Dense slices are padded to full length — slices
// grow lazily (see Insert), so the in-memory slice may hold fewer than
// ceil(n/64) words — while a sparse stream ends at its last set position's
// chunk and needs no padding. A dense payload is encoded into *dense, which
// is reused across calls.
func (b *BBS) writeSlice(w io.Writer, p int, s *bitvec.Slice, wordBuf []byte, dense *[]byte) error {
	// A tiered slice persists from its thawed form: the cold file is
	// derived data, the BBSSIG image is authoritative, so Save always
	// writes resident payloads.
	if s.IsCold() {
		s = s.Thaw()
	}
	binary.LittleEndian.PutUint64(wordBuf, uint64(b.sliceOnes[p]))
	if _, err := w.Write(wordBuf); err != nil {
		return fmt.Errorf("sigfile: write slice %d ones: %w", p, err)
	}
	if _, err := w.Write([]byte{byte(s.Encoding())}); err != nil {
		return fmt.Errorf("sigfile: write slice %d encoding: %w", p, err)
	}
	if s.Encoding() == bitvec.EncDense {
		ws := s.AppendDense((*dense)[:0])
		ws = append(ws, make([]byte, 8*((b.n+63)/64)-len(ws))...)
		*dense = ws
		if _, err := w.Write(ws); err != nil {
			return fmt.Errorf("sigfile: write slice %d: %w", p, err)
		}
		return nil
	}
	sp := s.Records()
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(sp)))
	if _, err := w.Write(u32[:]); err != nil {
		return fmt.Errorf("sigfile: write slice %d stream length: %w", p, err)
	}
	if _, err := w.Write(sp); err != nil {
		return fmt.Errorf("sigfile: write slice %d stream: %w", p, err)
	}
	return nil
}

// Load reads a persisted BBS from path. The supplied hasher must match the
// parameters the file was built with (same m and k); the mapping itself is
// the caller's responsibility — a BBS file is only meaningful together with
// the hash scheme that produced it.
func Load(path string, h sighash.Hasher, stats *iostat.Stats) (*BBS, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sigfile: open %s: %w", path, err)
	}
	defer func() { _ = f.Close() }() // read-only; no buffered state to lose
	b, err := decodeBBS(bufio.NewReaderSize(f, 1<<16), h, stats)
	if err != nil {
		return nil, fmt.Errorf("sigfile: load %s: %w", path, err)
	}
	return b, nil
}

// decodeBBS reads one serialized BBS from r and verifies nothing trails it.
// It is the reader-level half of Load, factored out so the fuzz target can
// drive it with arbitrary bytes; apart from a retired run-length record
// (see readRetiredRuns), nothing it allocates is sized by header fields
// alone, so a corrupt header cannot force a giant allocation — reads fail
// at the truncation point first.
func decodeBBS(r *bufio.Reader, h sighash.Hasher, stats *iostat.Stats) (*BBS, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("read magic: %w", err)
	}
	v2, v3 := magic == sigMagicV2, magic == sigMagicV3
	if !v2 && !v3 && magic != sigMagic {
		return nil, fmt.Errorf("not a BBS file")
	}
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	m := int(binary.LittleEndian.Uint32(hdr[0:4]))
	k := int(binary.LittleEndian.Uint32(hdr[4:8]))
	n := int(binary.LittleEndian.Uint64(hdr[8:16]))
	if m != h.M() || k != h.K() {
		return nil, fmt.Errorf("file has m=%d k=%d, hasher has m=%d k=%d", m, k, h.M(), h.K())
	}
	if n < 0 || n > 1<<32 {
		return nil, fmt.Errorf("corrupt transaction count %d", n)
	}

	b := New(h, stats)
	b.n = n
	if !v2 {
		var flags [1]byte
		if _, err := io.ReadFull(r, flags[:]); err != nil {
			return nil, fmt.Errorf("read flags: %w", err)
		}
		if flags[0]&^flagCompress != 0 {
			return nil, fmt.Errorf("unknown flags %#x", flags[0])
		}
		b.compress = flags[0]&flagCompress != 0
	}

	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("read item count: %w", err)
	}
	numItems := int(binary.LittleEndian.Uint32(cnt[:]))
	pair := make([]byte, 12)
	var prev int32
	for i := 0; i < numItems; i++ {
		if _, err := io.ReadFull(r, pair); err != nil {
			return nil, fmt.Errorf("read item entry %d: %w", i, err)
		}
		item := int32(binary.LittleEndian.Uint32(pair[0:4]))
		c := binary.LittleEndian.Uint64(pair[4:12])
		// Save writes each item once, ascending, with a positive count of
		// at most the rows indexed; anything else would decode to a
		// different index than the one written (a duplicate overwrites, a
		// zero vanishes, an oversized count overflows a page counter).
		if i > 0 && item <= prev {
			return nil, fmt.Errorf("item entry %d: item %d after %d, want strictly ascending", i, item, prev)
		}
		if c == 0 || c > uint64(n) || c > math.MaxUint32 {
			return nil, fmt.Errorf("item entry %d: corrupt count %d for item %d over %d rows", i, c, item, n)
		}
		b.itemCounts.set(item, int(c))
		prev = item
	}

	words := (n + 63) / 64
	buf := make([]byte, 8)

	var flag [1]byte
	if _, err := io.ReadFull(r, flag[:]); err != nil {
		return nil, fmt.Errorf("read live flag: %w", err)
	}
	switch flag[0] {
	case 0:
	case 1:
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("read deleted count: %w", err)
		}
		b.deleted = int(binary.LittleEndian.Uint64(buf))
		ws, err := readWords(r, words, buf)
		if err != nil {
			return nil, fmt.Errorf("read live mask: %w", err)
		}
		var lv bitvec.Vector
		if err := lv.SetWords(ws, n); err != nil {
			return nil, fmt.Errorf("live mask: %w", err)
		}
		b.live = &lv
	default:
		return nil, fmt.Errorf("bad live flag %d", flag[0])
	}

	for p := 0; p < m; p++ {
		if v2 {
			// Legacy layout: bare dense words, no persisted popcount.
			ws, err := readWords(r, words, buf)
			if err != nil {
				return nil, fmt.Errorf("read slice %d: %w", p, err)
			}
			var v bitvec.Vector
			if err := v.SetWords(ws, n); err != nil {
				return nil, fmt.Errorf("slice %d: %w", p, err)
			}
			s := bitvec.DenseSliceOf(&v) // recounts, as v2 always did
			b.slices[p] = s
			b.sliceOnes[p] = s.Ones()
			continue
		}
		s, ones, err := readSlice(r, n, words, buf, v3)
		if err != nil {
			return nil, fmt.Errorf("read slice %d: %w", p, err)
		}
		b.slices[p] = s
		b.sliceOnes[p] = ones
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trailing data")
	}
	return b, nil
}

// readSlice decodes one slice record, its sparse payload as v3 positions
// when positions is set and as a record stream otherwise. A sparse payload
// is validated structurally (ascending positions within bounds, a
// canonical stream) and its popcount is cross-checked against the
// persisted one; a dense payload's persisted popcount is trusted — skipping
// that recount is the point of persisting it, and a wrong value cannot
// corrupt results, only the AND ordering (which every result is invariant
// to).
func readSlice(r *bufio.Reader, n, words int, buf []byte, positions bool) (*bitvec.Slice, int, error) {
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, 0, fmt.Errorf("ones: %w", err)
	}
	ones := int(binary.LittleEndian.Uint64(buf))
	if ones < 0 || ones > n {
		return nil, 0, fmt.Errorf("corrupt popcount %d for %d rows", ones, n)
	}
	var encB [1]byte
	if _, err := io.ReadFull(r, encB[:]); err != nil {
		return nil, 0, fmt.Errorf("encoding: %w", err)
	}
	switch bitvec.Encoding(encB[0]) {
	case bitvec.EncDense:
		ws, err := readWords(r, words, buf)
		if err != nil {
			return nil, 0, err
		}
		var v bitvec.Vector
		if err := v.SetWords(ws, n); err != nil {
			return nil, 0, err
		}
		return bitvec.DenseSliceWithOnes(&v, ones), ones, nil
	case bitvec.EncSparse:
		count, err := readU32(r, buf)
		if err != nil {
			return nil, 0, fmt.Errorf("sparse payload length: %w", err)
		}
		var s *bitvec.Slice
		if positions {
			pos, err := readU32s(r, count, buf)
			if err != nil {
				return nil, 0, fmt.Errorf("positions: %w", err)
			}
			s, err = bitvec.SliceFromPositions(pos, n)
			if err != nil {
				return nil, 0, err
			}
		} else {
			sp, err := readBytes(r, int(count))
			if err != nil {
				return nil, 0, fmt.Errorf("stream: %w", err)
			}
			s, err = bitvec.SliceFromRecords(sp, n)
			if err != nil {
				return nil, 0, err
			}
		}
		if s.Ones() != ones {
			return nil, 0, fmt.Errorf("popcount %d disagrees with %d positions", ones, s.Ones())
		}
		return s, ones, nil
	case bitvec.EncRLE:
		return readRetiredRuns(r, n, ones, buf)
	default:
		return nil, 0, fmt.Errorf("unknown encoding %d", encB[0])
	}
}

// readRetiredRuns decodes a slice record under the retired run-length tag,
// which indexes written before its retirement may still carry: pairs uint32
// | pairs × (start uint32, len uint32), runs non-empty, ascending, separated
// and within n and 2^32, their lengths summing to the persisted popcount.
// The runs are validated before anything is allocated, then set in a dense
// vector that reaches only the last run's end: the one decoder allocation
// sized by persisted fields rather than by bytes read, at most 2^32 bits.
// The slice is re-encoded as the build-time rule picks, so the next Save
// writes it as dense or sparse.
func readRetiredRuns(r *bufio.Reader, n, ones int, buf []byte) (*bitvec.Slice, int, error) {
	pairs, err := readU32(r, buf)
	if err != nil {
		return nil, 0, fmt.Errorf("run count: %w", err)
	}
	if int(pairs) > ones { // every run holds at least one bit
		return nil, 0, fmt.Errorf("corrupt run count %d for popcount %d", pairs, ones)
	}
	runs, err := readU32s(r, 2*pairs, buf)
	if err != nil {
		return nil, 0, fmt.Errorf("runs: %w", err)
	}
	total, prevEnd := 0, -1
	for i := 0; i < len(runs); i += 2 {
		start, end := int(runs[i]), int(runs[i])+int(runs[i+1])
		if end == start || start <= prevEnd || end > n || end > 1<<32 {
			return nil, 0, fmt.Errorf("corrupt run [%d,%d) after %d in %d rows", start, end, prevEnd, n)
		}
		total += end - start
		prevEnd = end
	}
	if total != ones {
		return nil, 0, fmt.Errorf("popcount %d disagrees with run total %d", ones, total)
	}
	var v bitvec.Vector
	v.Grow(prevEnd)
	for i := 0; i < len(runs); i += 2 {
		for p := int(runs[i]); p < int(runs[i])+int(runs[i+1]); p++ {
			v.Set(p)
		}
	}
	return bitvec.DenseSliceWithOnes(&v, ones).Recompress(n, true), ones, nil
}

// readWords reads count little-endian uint64 words. The slice grows as the
// words arrive instead of being allocated upfront, keeping memory bounded
// by the actual input length even when a corrupt header claims a huge n.
func readWords(r *bufio.Reader, count int, buf []byte) ([]uint64, error) {
	ws := make([]uint64, 0, min(count, 1<<12))
	for wi := 0; wi < count; wi++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("word %d: %w", wi, err)
		}
		ws = append(ws, binary.LittleEndian.Uint64(buf))
	}
	return ws, nil
}

func readU32(r *bufio.Reader, buf []byte) (uint32, error) {
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:4]), nil
}

// readBytes reads count bytes with the same grow-as-you-read discipline as
// readWords.
func readBytes(r *bufio.Reader, count int) ([]byte, error) {
	bs := make([]byte, 0, min(count, 1<<16))
	for len(bs) < count {
		k := min(count-len(bs), 1<<16)
		bs = slices.Grow(bs, k)[:len(bs)+k]
		if _, err := io.ReadFull(r, bs[len(bs)-k:]); err != nil {
			return nil, fmt.Errorf("byte %d: %w", len(bs)-k, err)
		}
	}
	return bs, nil
}

// readU32s reads count little-endian uint32 values with the same
// grow-as-you-read discipline as readWords.
func readU32s(r *bufio.Reader, count uint32, buf []byte) ([]uint32, error) {
	vs := make([]uint32, 0, min(int(count), 1<<12))
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return nil, fmt.Errorf("value %d: %w", i, err)
		}
		vs = append(vs, binary.LittleEndian.Uint32(buf[:4]))
	}
	return vs, nil
}
