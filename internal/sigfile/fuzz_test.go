package sigfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

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
