package sigfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/sighash"
)

// sparseIndex builds an index whose slices are rare enough that the
// adaptive encoding actually engages: wide m, few hash hits per slice.
func sparseIndex(rng *rand.Rand, txns int) (*BBS, [][]int32) {
	idx := New(sighash.NewMD5(2048, 4), nil)
	txs := make([][]int32, txns)
	for i := range txs {
		txs[i] = randomItems(rng, 5, 400)
		idx.Insert(txs[i])
	}
	return idx, txs
}

// compareCounts drives CountIntoBuf over many random itemsets on both
// indexes and requires byte-identical result vectors and estimates.
func compareCounts(t *testing.T, rng *rand.Rand, a, b *BBS, trials int) {
	t.Helper()
	va, vb := bitvec.New(0), bitvec.New(0)
	var bufA, bufB []int
	for trial := 0; trial < trials; trial++ {
		items := randomItems(rng, 1+rng.Intn(4), 400)
		ea := a.CountIntoBuf(va, items, &bufA)
		eb := b.CountIntoBuf(vb, items, &bufB)
		if ea != eb {
			t.Fatalf("itemset %v: estimates %d vs %d", items, ea, eb)
		}
		if !va.Equal(vb) {
			t.Fatalf("itemset %v: result vectors differ", items)
		}
	}
}

// SetCompression must engage on a sparse index, shrink the resident bytes
// at least twofold, and change no answer — including after deletions and
// on folded replicas, and back after decompressing. The dense twin is an
// identical index built from the same seed.
func TestSetCompressionParity(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	idx, txs := sparseIndex(rng, 1500)
	dense, _ := sparseIndex(rand.New(rand.NewSource(91)), 1500)

	idx.SetCompression(true)
	if !idx.Compressed() {
		t.Fatal("Compressed() false after SetCompression(true)")
	}
	if d, s := idx.EncodingCounts(); s == 0 {
		t.Fatalf("no slice compressed (dense %d, sparse %d)", d, s)
	}
	if got, logical := idx.ResidentSliceBytes(), idx.TotalBytes(); got*2 > logical {
		t.Fatalf("resident %d bytes, logical %d: less than 2x reduction", got, logical)
	}
	checkSliceOnes(t, idx)
	compareCounts(t, rng, idx, dense, 200)

	for i := 0; i < 300; i++ { // tombstone the same rows on both sides
		pos := rng.Intn(len(txs))
		if idx.IsLive(pos) {
			if err := idx.Delete(pos, txs[pos]); err != nil {
				t.Fatal(err)
			}
			if err := dense.Delete(pos, txs[pos]); err != nil {
				t.Fatal(err)
			}
		}
	}
	compareCounts(t, rng, idx, dense, 150)

	fc, err := foldPart(idx, 96)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := foldPart(dense, 96)
	if err != nil {
		t.Fatal(err)
	}
	if !fc.Compressed() {
		t.Error("fold of a compressed index lost the policy")
	}
	checkSliceOnes(t, fc)
	compareCounts(t, rng, fc, fd, 150)

	idx.SetCompression(false)
	if _, s := idx.EncodingCounts(); s != 0 {
		t.Fatalf("SetCompression(false) left %d sparse slices", s)
	}
	compareCounts(t, rng, idx, dense, 100)
}

// Inserts after compression must keep answering identically to an
// uncompressed twin fed the same stream (the hysteresis never changes
// bits, only representations).
func TestInsertAfterCompressionParity(t *testing.T) {
	idx, _ := sparseIndex(rand.New(rand.NewSource(93)), 1000)
	idx.SetCompression(true)
	twin, _ := sparseIndex(rand.New(rand.NewSource(93)), 1000)

	rng := rand.New(rand.NewSource(92))
	for i := 0; i < 500; i++ {
		items := randomItems(rng, 5, 400)
		idx.Insert(items)
		twin.Insert(items)
	}
	checkSliceOnes(t, idx)
	compareCounts(t, rng, idx, twin, 150)
}

// A compressed index must survive a Save/Load round trip with encodings,
// popcounts, policy and answers intact.
func TestSaveLoadCompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	idx, txs := sparseIndex(rng, 1200)
	for i := 0; i < 100; i++ {
		pos := rng.Intn(len(txs))
		if idx.IsLive(pos) {
			if err := idx.Delete(pos, txs[pos]); err != nil {
				t.Fatal(err)
			}
		}
	}
	idx.SetCompression(true)

	path := t.TempDir() + "/idx.bbs"
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, idx.Hasher(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Compressed() {
		t.Error("compression policy lost across save/load")
	}
	for p := range idx.slices {
		if got, want := loaded.slices[p].Encoding(), idx.slices[p].Encoding(); got != want {
			t.Fatalf("slice %d encoding %v, want %v", p, got, want)
		}
		if got, want := loaded.sliceOnes[p], idx.sliceOnes[p]; got != want {
			t.Fatalf("slice %d ones %d, want %d", p, got, want)
		}
	}
	checkSliceOnes(t, loaded)
	// Exact resident bytes differ from the pre-save index: lazily-grown
	// dense slices are padded to full length on disk, so the loaded side
	// reports the honest full footprint. The compression must still hold.
	if got, logical := loaded.ResidentSliceBytes(), loaded.TotalBytes(); got*2 > logical {
		t.Fatalf("loaded resident %d bytes, logical %d: less than 2x reduction", got, logical)
	}
	compareCounts(t, rng, loaded, idx, 150)
}

// writeToV2 serializes an index in the legacy BBSSIG02 layout, byte for
// byte what the previous release wrote, so the compatibility path is
// tested against the real old format rather than a fixture that could
// drift.
func writeToV2(b *BBS, w *bytes.Buffer) {
	w.Write(sigMagicV2[:])
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(b.M()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(b.hasher.K()))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(b.n))
	w.Write(hdr)
	items := b.Items()
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(items)))
	w.Write(cnt[:])
	pair := make([]byte, 12)
	for _, it := range items {
		binary.LittleEndian.PutUint32(pair[0:4], uint32(it))
		binary.LittleEndian.PutUint64(pair[4:12], uint64(b.itemCounts.get(it)))
		w.Write(pair)
	}
	wordBuf := make([]byte, 8)
	if b.live == nil {
		w.WriteByte(0)
	} else {
		w.WriteByte(1)
		binary.LittleEndian.PutUint64(wordBuf, uint64(b.deleted))
		w.Write(wordBuf)
		for _, word := range b.live.Words() {
			binary.LittleEndian.PutUint64(wordBuf, word)
			w.Write(wordBuf)
		}
	}
	fullWords := (b.n + 63) / 64
	var zero [8]byte
	for _, s := range b.slices {
		ws := s.Materialize().Words()
		for _, word := range ws {
			binary.LittleEndian.PutUint64(wordBuf, word)
			w.Write(wordBuf)
		}
		for wi := len(ws); wi < fullWords; wi++ {
			w.Write(zero[:])
		}
	}
}

// encodeV3 serializes b in the BBSSIG03 layout, which stored a sparse
// slice as its uint32 positions: the current bytes up to the first slice
// record under the v3 magic, then each slice record as the v3 writer
// emitted it.
func encodeV3(t testing.TB, b *BBS) []byte {
	t.Helper()
	out := slices.Concat(sigMagicV3[:], encodeBBS(t, b)[8:sliceRecordOffset(b, 0)])
	for p, s := range b.slices {
		out = binary.LittleEndian.AppendUint64(out, uint64(b.sliceOnes[p]))
		out = append(out, byte(s.Encoding()))
		if s.Encoding() == bitvec.EncDense {
			v := s.Materialize()
			v.Grow(b.n)
			for _, w := range v.Words() {
				out = binary.LittleEndian.AppendUint64(out, w)
			}
			continue
		}
		pos := s.Positions()
		out = binary.LittleEndian.AppendUint32(out, uint32(len(pos)))
		for _, v := range pos {
			out = binary.LittleEndian.AppendUint32(out, v)
		}
	}
	return out
}

// A compressed BBSSIG03 file must still load, its position lists becoming
// the same record streams the index held, so that the next Save writes the
// bytes a current writer gives the original.
func TestLoadV3Compat(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	idx, _ := sparseIndex(rng, 1500)
	idx.SetCompression(true)
	loaded, err := decodeBBS(bufio.NewReader(bytes.NewReader(encodeV3(t, idx))), idx.Hasher(), nil)
	if err != nil {
		t.Fatalf("v3 load: %v", err)
	}
	sparse := 0
	for p := range idx.slices {
		if got, want := loaded.slices[p].Encoding(), idx.slices[p].Encoding(); got != want {
			t.Fatalf("slice %d encoding %v, want %v", p, got, want)
		}
		if idx.slices[p].Encoding() == bitvec.EncSparse {
			sparse++
		}
	}
	if sparse == 0 {
		t.Fatal("no sparse slice in the test index")
	}
	checkSliceOnes(t, loaded)
	if !bytes.Equal(encodeBBS(t, loaded), encodeBBS(t, idx)) {
		t.Error("a v3 load re-encodes to different bytes than the original")
	}
	compareCounts(t, rng, loaded, idx, 100)
}

// The legacy flat format must still load — recounting popcounts as it
// always did — and answer identically.
func TestLoadV2Compat(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	idx, txs := randomIndex(rng, 128, 4, 300)
	for i := 0; i < 40; i++ {
		pos := rng.Intn(len(txs))
		if idx.IsLive(pos) {
			if err := idx.Delete(pos, txs[pos]); err != nil {
				t.Fatal(err)
			}
		}
	}

	var buf bytes.Buffer
	writeToV2(idx, &buf)
	loaded, err := decodeBBS(bufio.NewReader(&buf), idx.Hasher(), nil)
	if err != nil {
		t.Fatalf("v2 load: %v", err)
	}
	if loaded.Compressed() {
		t.Error("v2 file loaded with compression policy on")
	}
	checkSliceOnes(t, loaded)
	if loaded.Deleted() != idx.Deleted() || loaded.Len() != idx.Len() {
		t.Fatalf("v2 load: %d/%d deleted, %d/%d rows", loaded.Deleted(), idx.Deleted(), loaded.Len(), idx.Len())
	}
	compareCounts(t, rng, loaded, idx, 100)
}

// A snapshot taken before SetCompression must keep its dense slices and
// answers while the master re-encodes under it.
func TestSnapshotSurvivesCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	idx, _ := sparseIndex(rng, 1000)
	snap := idx.Snapshot()

	before := make([]*bitvec.Vector, idx.M())
	for p := range before {
		before[p] = snap.ResultSlice(p).Clone()
	}
	idx.SetCompression(true)
	for p := range before {
		if snap.slices[p].Encoding() != bitvec.EncDense {
			t.Fatalf("snapshot slice %d re-encoded under the reader", p)
		}
		if !snap.ResultSlice(p).Equal(before[p]) {
			t.Fatalf("snapshot slice %d changed under the reader", p)
		}
	}
	compareCounts(t, rng, idx, snap, 100)

	// And the master keeps honoring copy-on-write for slices that stayed
	// shared (encoding already matched, e.g. tiny or dense-chosen ones).
	idx.Insert(randomItems(rng, 5, 400))
	if idx.Len() != snap.Len()+1 {
		t.Fatalf("master length %d, snapshot %d", idx.Len(), snap.Len())
	}
}

// Corrupt slice records must be rejected, not absorbed.
func TestLoadRejectsCorruptSliceRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	idx, _ := sparseIndex(rng, 800)
	idx.SetCompression(true)

	var good bytes.Buffer
	if err := idx.writeTo(&good); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBBS(bufio.NewReader(bytes.NewReader(good.Bytes())), idx.Hasher(), nil); err != nil {
		t.Fatalf("pristine bytes rejected: %v", err)
	}

	// Find the first sparse slice record and corrupt its popcount field.
	target := -1
	for p := range idx.slices {
		if idx.slices[p].Encoding() == bitvec.EncSparse {
			target = p
			break
		}
	}
	if target < 0 {
		t.Skip("no sparse slice in the test index")
	}
	off := sliceRecordOffset(idx, target)
	bad := append([]byte(nil), good.Bytes()...)
	binary.LittleEndian.PutUint64(bad[off:off+8], uint64(idx.sliceOnes[target]+1))
	if _, err := decodeBBS(bufio.NewReader(bytes.NewReader(bad)), idx.Hasher(), nil); err == nil {
		t.Error("corrupt sparse popcount accepted")
	}

	// A stream length one short cuts the stream's last record.
	bad = append([]byte(nil), good.Bytes()...)
	streamLen := off + 8 + 1
	binary.LittleEndian.PutUint32(bad[streamLen:], uint32(len(idx.slices[target].Records())-1))
	if _, err := decodeBBS(bufio.NewReader(bytes.NewReader(bad)), idx.Hasher(), nil); err == nil {
		t.Error("cut sparse stream accepted")
	}
}

// sliceRecordOffset computes where slice p's record starts in the
// serialization of b — mirroring the writer's layout arithmetic.
func sliceRecordOffset(b *BBS, p int) int {
	off := 8 + 17 // magic + m/k/n/flags
	off += 4 + 12*len(b.Items())
	off++ // live flag
	if b.live != nil {
		off += 8 + 8*len(b.live.Words())
	}
	fullWords := (b.n + 63) / 64
	for q := 0; q < p; q++ {
		off += 8 + 1 // ones + enc
		if b.slices[q].Encoding() == bitvec.EncDense {
			off += 8 * fullWords
		} else {
			off += 4 + len(b.slices[q].Records())
		}
	}
	return off
}
