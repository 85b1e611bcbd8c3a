package sigfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/iostat"
	"bbsmine/internal/sighash"
)

// fuzzHasher matches the (m, k) the seed corpus is encoded with; only
// inputs carrying that header get past the parameter check, which is
// exactly the population worth fuzzing — the rest of the format.
func fuzzHasher() sighash.Hasher { return sighash.NewMD5(16, 2) }

// encodeBBS serializes a BBS with the same writer Save uses.
func encodeBBS(t testing.TB, b *BBS) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := b.writeTo(w); err != nil {
		t.Fatalf("writeTo: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// seedBBS builds a small index, with one deletion so the live-mask section
// of the format is present in the corpus.
func seedBBS(t testing.TB) *BBS {
	t.Helper()
	b := New(fuzzHasher(), &iostat.Stats{})
	txs := [][]int32{{1, 2, 3}, {2, 3}, {1, 4}, {5}}
	for _, tx := range txs {
		b.Insert(tx)
	}
	if err := b.Delete(1, txs[1]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	return b
}

// itemEntryOffset is where a v3 file's first (item, count) entry starts:
// magic, the m/k/n/flags header, the entry count.
const itemEntryOffset = 8 + 17 + 4

// badItemEntries returns copies of a seedBBS encoding with one item entry
// corrupted in each way the decoder must refuse. seedBBS's items are 1..5
// over n = 4 rows.
func badItemEntries(full []byte) map[string][]byte {
	patch := func(entry, field int, v uint64, width int) []byte {
		out := bytes.Clone(full)
		at := itemEntryOffset + 12*entry + field
		if width == 4 {
			binary.LittleEndian.PutUint32(out[at:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(out[at:], v)
		}
		return out
	}
	return map[string][]byte{
		"duplicate item":   patch(1, 0, 1, 4), // entries 0 and 1 both item 1
		"descending items": patch(1, 0, 0, 4), // item 0 after item 1
		"zero count":       patch(2, 4, 0, 8),
		"count above n":    patch(0, 4, 5, 8),
		"count above u32":  patch(0, 4, 1<<32, 8),
	}
}

// withRLESlice returns b's v3 encoding with its first nonempty slice record
// rewritten under the retired run-length tag 2, well formed in the layout
// BBSSIG03 once gave it: ones uint64 | 2 | pairs uint32 | pairs × (start
// uint32, len uint32). b must be dense, as seedBBS is.
func withRLESlice(t testing.TB, b *BBS) []byte {
	t.Helper()
	for p, s := range b.slices {
		if s.Ones() == 0 {
			continue
		}
		v := s.Materialize()
		var runs []uint32
		v.ForEachSet(func(i int) bool {
			if n := len(runs); n > 0 && runs[n-2]+runs[n-1] == uint32(i) {
				runs[n-1]++
			} else {
				runs = append(runs, uint32(i), 1)
			}
			return true
		})
		return withRunRecord(t, b, p, v.Count(), runs)
	}
	t.Fatal("no nonempty slice to rewrite")
	return nil
}

// withRunRecord returns b's v3 encoding with slice p's dense record replaced
// by a tag-2 record carrying the given popcount and (start, len) pairs,
// which need not be well formed.
func withRunRecord(t testing.TB, b *BBS, p, ones int, runs []uint32) []byte {
	t.Helper()
	full := encodeBBS(t, b)
	rec := binary.LittleEndian.AppendUint64(nil, uint64(ones))
	rec = append(rec, byte(bitvec.EncRLE))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(runs)/2))
	for _, r := range runs {
		rec = binary.LittleEndian.AppendUint32(rec, r)
	}
	off := sliceRecordOffset(b, p)
	end := off + 8 + 1 + 8*((b.n+63)/64)
	return slices.Concat(full[:off], rec, full[end:])
}

// emptySparseFile returns a file of the given magic whose header claims n
// rows and whose fuzzHasher slices are all empty sparse records: with no
// dense word to read, nothing but the decoder's own checks bounds what n
// makes it allocate.
func emptySparseFile(magic [8]byte, n uint64) []byte {
	out := binary.LittleEndian.AppendUint32(magic[:], uint32(fuzzHasher().M()))
	out = binary.LittleEndian.AppendUint32(out, uint32(fuzzHasher().K()))
	out = binary.LittleEndian.AppendUint64(out, n)
	out = append(out, 0)                           // flags
	out = binary.LittleEndian.AppendUint32(out, 0) // no items
	out = append(out, 0)                           // no live mask
	for p := 0; p < fuzzHasher().M(); p++ {
		out = binary.LittleEndian.AppendUint64(out, 0) // ones
		out = append(out, byte(bitvec.EncSparse))
		out = binary.LittleEndian.AppendUint32(out, 0) // no positions, no stream
	}
	return out
}

// compressedSeedBBS is an index over enough rows, most of them empty, that
// SetCompression makes its nonempty slices sparse, so the corpus holds
// sparse records with set positions in them.
func compressedSeedBBS(t testing.TB) *BBS {
	t.Helper()
	b := New(fuzzHasher(), &iostat.Stats{})
	for i := 0; i < 640; i++ {
		if i%40 == 0 {
			b.Insert([]int32{1})
		} else {
			b.Insert(nil)
		}
	}
	b.SetCompression(true)
	for _, s := range b.slices {
		if s.Encoding() == bitvec.EncSparse && s.Ones() > 0 {
			return b
		}
	}
	t.Fatal("no nonempty sparse slice in the compressed seed")
	return nil
}

// FuzzDecodeBBS drives the persistence decoder with arbitrary bytes: it
// must never panic, and whenever it accepts an input, re-encoding the
// decoded index and decoding that again must reproduce the same bytes —
// the fixed point that pins both directions of the format.
func FuzzDecodeBBS(f *testing.F) {
	full := encodeBBS(f, seedBBS(f))
	f.Add(full)
	f.Add(full[:len(full)-3]) // truncated mid-slice
	f.Add([]byte("BBSSIG02"))
	f.Add([]byte{})
	for _, name := range []string{"duplicate item", "descending items", "zero count", "count above n", "count above u32"} {
		f.Add(badItemEntries(full)[name])
	}
	f.Add(withRLESlice(f, seedBBS(f)))
	f.Add(encodeBBS(f, compressedSeedBBS(f)))
	f.Add(encodeV3(f, compressedSeedBBS(f)))
	f.Add(emptySparseFile(sigMagicV3, 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBBS(bufio.NewReader(bytes.NewReader(data)), fuzzHasher(), &iostat.Stats{})
		if err != nil {
			return
		}
		enc := encodeBBS(t, b)
		b2, err := decodeBBS(bufio.NewReader(bytes.NewReader(enc)), fuzzHasher(), &iostat.Stats{})
		if err != nil {
			t.Fatalf("re-decode of re-encoded index failed: %v", err)
		}
		if enc2 := encodeBBS(t, b2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode not a fixed point: %d vs %d bytes", len(enc), len(enc2))
		}
	})
}

// TestDecodeBBSBoundsRowCount: a header may claim at most 2^32 rows, the
// most a uint32 position names, and a file of empty sparse slices that
// claims that many decodes without allocating for them.
func TestDecodeBBSBoundsRowCount(t *testing.T) {
	for _, magic := range [][8]byte{sigMagic, sigMagicV3} {
		for _, n := range []uint64{1<<32 + 1, 1 << 40, math.MaxInt64, math.MaxUint64} {
			if _, err := decodeBBS(bufio.NewReader(bytes.NewReader(emptySparseFile(magic, n))), fuzzHasher(), &iostat.Stats{}); err == nil {
				t.Errorf("%s: %d rows accepted", magic, n)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := decodeBBS(bufio.NewReader(bytes.NewReader(emptySparseFile(magic, 1<<32))), fuzzHasher(), &iostat.Stats{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: 2^32 rows of empty slices rejected: %v", magic, err)
		}
		if b.Len() != 1<<32 {
			t.Errorf("%s: decoded %d rows, want 2^32", magic, b.Len())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: decoding empty slices allocated %d bytes", magic, grew)
		}
	}
}

// TestDecodeBBSRoundTrip pins the exact-bytes round trip on the canonical
// seed (the fuzz target only checks it for inputs the fuzzer finds).
func TestDecodeBBSRoundTrip(t *testing.T) {
	b := seedBBS(t)
	enc := encodeBBS(t, b)
	got, err := decodeBBS(bufio.NewReader(bytes.NewReader(enc)), fuzzHasher(), &iostat.Stats{})
	if err != nil {
		t.Fatalf("decodeBBS: %v", err)
	}
	if !bytes.Equal(enc, encodeBBS(t, got)) {
		t.Fatal("decode(encode(b)) does not re-encode to the same bytes")
	}
	if got.Len() != b.Len() || got.Live() != b.Live() {
		t.Fatalf("n/live mismatch: %d/%d vs %d/%d", got.Len(), got.Live(), b.Len(), b.Live())
	}
}

// TestDecodeBBSRejectsBadItemEntries: Save writes each item once, ascending,
// with a count in 1..n, and the decoder accepts nothing else — a duplicate
// would silently overwrite, a zero would silently vanish, and a count above
// n cannot be an exact support (nor fit a 32-bit page counter).
func TestDecodeBBSRejectsBadItemEntries(t *testing.T) {
	full := encodeBBS(t, seedBBS(t))
	for name, data := range badItemEntries(full) {
		if _, err := decodeBBS(bufio.NewReader(bytes.NewReader(data)), fuzzHasher(), &iostat.Stats{}); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if !strings.Contains(err.Error(), "item entry") {
			t.Errorf("%s: error %q does not name the item entry", name, err)
		}
	}
}

// TestDecodeBBSLoadsRetiredRLE: tag 2 was the run-length encoding, which
// no writer produces any more, but indexes written before its retirement
// still carry it. Such a record must load with the same bits and popcount,
// re-encoded as the build-time rule picks: dense for the tiny seed (which
// then re-encodes to the exact bytes of the dense original), sparse for a
// rare slice over 1024 rows.
func TestDecodeBBSLoadsRetiredRLE(t *testing.T) {
	rare := New(fuzzHasher(), &iostat.Stats{})
	for i := 0; i < 1024; i++ {
		if i < 10 {
			rare.Insert([]int32{1})
		} else {
			rare.Insert(nil)
		}
	}
	for _, tc := range []struct {
		name string
		b    *BBS
		want bitvec.Encoding
	}{
		{"seed", seedBBS(t), bitvec.EncDense},
		{"rare", rare, bitvec.EncSparse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := withRLESlice(t, tc.b)
			got, err := decodeBBS(bufio.NewReader(bytes.NewReader(data)), fuzzHasher(), &iostat.Stats{})
			if err != nil {
				t.Fatalf("decodeBBS: %v", err)
			}
			converted := 0
			for p, s := range tc.b.slices {
				g := got.slices[p]
				if g.Ones() != s.Ones() || got.sliceOnes[p] != s.Ones() {
					t.Errorf("slice %d: popcount %d (table %d), want %d", p, g.Ones(), got.sliceOnes[p], s.Ones())
				}
				gv, sv := g.Materialize(), s.Materialize()
				gv.Grow(tc.b.n)
				sv.Grow(tc.b.n)
				if !gv.Equal(sv) {
					t.Errorf("slice %d: bits differ", p)
				}
				if s.Ones() > 0 && converted == 0 {
					converted++
					if g.Encoding() != tc.want {
						t.Errorf("converted slice %d has encoding %v, want %v", p, g.Encoding(), tc.want)
					}
				}
			}
			if tc.want == bitvec.EncDense && !bytes.Equal(encodeBBS(t, got), encodeBBS(t, tc.b)) {
				t.Error("the converted index does not re-encode to the dense original's bytes")
			}
		})
	}
}

// TestDecodeBBSRejectsCorruptRuns: a tag-2 record is read only if its runs
// are non-empty, ascending, separated, within n and sum to its popcount.
// seedBBS has n = 4 rows.
func TestDecodeBBSRejectsCorruptRuns(t *testing.T) {
	b := seedBBS(t)
	for name, rec := range map[string]struct {
		ones int
		runs []uint32
	}{
		"empty run":           {2, []uint32{0, 2, 3, 0}},
		"more runs than ones": {1, []uint32{0, 1, 2, 1}},
		"touching runs":       {2, []uint32{0, 1, 1, 1}},
		"descending runs":     {2, []uint32{2, 1, 0, 1}},
		"run beyond n":        {2, []uint32{3, 2}},
		"popcount above":      {3, []uint32{0, 2}},
		"popcount below":      {1, []uint32{0, 2}},
	} {
		data := withRunRecord(t, b, 0, rec.ones, rec.runs)
		if _, err := decodeBBS(bufio.NewReader(bytes.NewReader(data)), fuzzHasher(), &iostat.Stats{}); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
