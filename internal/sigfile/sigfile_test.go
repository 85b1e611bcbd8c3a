package sigfile

import (
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/iostat"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// runningExample builds the paper's Table 1 database with h(x) = x mod 8.
func runningExample(stats *iostat.Stats) (*BBS, []txdb.Transaction) {
	txs := []txdb.Transaction{
		txdb.NewTransaction(100, []int32{0, 1, 2, 3, 4, 5, 14, 15}),
		txdb.NewTransaction(200, []int32{1, 2, 3, 5, 6, 7}),
		txdb.NewTransaction(300, []int32{1, 5, 14, 15}),
		txdb.NewTransaction(400, []int32{0, 1, 2, 7}),
		txdb.NewTransaction(500, []int32{1, 2, 5, 6, 11, 15}),
	}
	b := New(sighash.NewMod(8), stats)
	for _, tx := range txs {
		b.Insert(tx.Items)
	}
	return b, txs
}

func TestRunningExampleVectors(t *testing.T) {
	// Paper Table 1: per-transaction bit vectors.
	h := sighash.NewMod(8)
	want := map[int][]int32{
		0: {0, 1, 2, 3, 4, 5, 14, 15}, // 11111111
		1: {1, 2, 3, 5, 6, 7},         // 01110111
		2: {1, 5, 14, 15},             // 01000111
		3: {0, 1, 2, 7},               // 11100001
		4: {1, 2, 5, 6, 11, 15},       // 01110111 (see note)
	}
	// Note: the paper's Table 1 prints transaction 500 as 01101111, i.e.
	// with bit 4 set and bit 3 clear — but 11 mod 8 = 3, so the correct
	// vector under the paper's own hash is 01110111. We reproduce the
	// mathematically correct value and record the paper's typo here.
	wantStr := []string{"11111111", "01110111", "01000111", "11100001", "01110111"}
	for i, items := range want {
		v := bitvec.New(8)
		for _, p := range sighash.SignatureBits(h, items) {
			v.Set(p)
		}
		if v.String() != wantStr[i] {
			t.Errorf("tx %d vector = %s, want %s", i, v.String(), wantStr[i])
		}
	}
}

func TestRunningExampleSlices(t *testing.T) {
	// Paper Table 2: the transposed BBS. Slice j holds bit j of each vector.
	b, _ := runningExample(nil)
	// Derive expected slices from the (corrected, see TestRunningExampleVectors)
	// Table 1 vectors instead of hand-copying Table 2:
	vectors := []string{"11111111", "01110111", "01000111", "11100001", "01110111"}
	for j := 0; j < 8; j++ {
		expect := make([]byte, 5)
		for i := 0; i < 5; i++ {
			expect[i] = vectors[i][j]
		}
		// Slices grow lazily, so pad to the index length before comparing:
		// the physical tail may be missing but is logically zero.
		padded := b.slices[j].Materialize()
		padded.Grow(b.n)
		got := padded.String()
		if got != string(expect) {
			t.Errorf("slice %d = %s, want %s", j, got, string(expect))
		}
	}
}

func TestRunningExampleCounts(t *testing.T) {
	// Paper Example 2: count({0,1}) = 2 (exact), count({1,3}) = 3 vs actual 2.
	b, txs := runningExample(nil)

	est, v := b.CountItemSet([]int32{0, 1})
	if est != 2 {
		t.Errorf("CountItemSet({0,1}) = %d, want 2", est)
	}
	if v.String() != "10010" {
		t.Errorf("result vector = %s, want 10010", v.String())
	}

	est, _ = b.CountItemSet([]int32{1, 3})
	if est != 3 {
		t.Errorf("CountItemSet({1,3}) = %d, want 3", est)
	}
	actual := 0
	for _, tx := range txs {
		if tx.Contains([]int32{1, 3}) {
			actual++
		}
	}
	if actual != 2 {
		t.Fatalf("actual count of {1,3} = %d, want 2 (test fixture wrong)", actual)
	}
}

func TestEmptyItemsetCountsEverything(t *testing.T) {
	b, _ := runningExample(nil)
	est, _ := b.CountItemSet(nil)
	if est != 5 {
		t.Errorf("CountItemSet(nil) = %d, want 5 (whole database)", est)
	}
}

func TestExactCounts(t *testing.T) {
	b, txs := runningExample(nil)
	counts := map[int32]int{}
	for _, tx := range txs {
		for _, it := range tx.Items {
			counts[it]++
		}
	}
	for it, want := range counts {
		if got := b.ExactCount(it); got != want {
			t.Errorf("ExactCount(%d) = %d, want %d", it, got, want)
		}
	}
	if got := b.ExactCount(999); got != 0 {
		t.Errorf("ExactCount(unknown) = %d, want 0", got)
	}
}

func TestItems(t *testing.T) {
	b, txs := runningExample(nil)
	want := map[int32]bool{}
	for _, tx := range txs {
		for _, it := range tx.Items {
			want[it] = true
		}
	}
	got := b.Items()
	if len(got) != len(want) {
		t.Fatalf("Items returned %d items, want %d", len(got), len(want))
	}
	for _, it := range got {
		if !want[it] {
			t.Errorf("unexpected item %d", it)
		}
	}
}

func TestInsertUnsortedAndDuplicates(t *testing.T) {
	b := New(sighash.NewMod(8), nil)
	b.Insert([]int32{5, 1, 5, 3, 1})
	if got := b.ExactCount(5); got != 1 {
		t.Errorf("ExactCount(5) = %d, want 1 (duplicate must count once)", got)
	}
	if got := b.ExactCount(1); got != 1 {
		t.Errorf("ExactCount(1) = %d, want 1", got)
	}
	est, _ := b.CountItemSet([]int32{1, 3, 5})
	if est != 1 {
		t.Errorf("CountItemSet = %d, want 1", est)
	}
}

func TestDynamicInsertMatchesBatch(t *testing.T) {
	// Inserting incrementally (the dynamic-database path) must produce the
	// same index as batch construction.
	rng := rand.New(rand.NewSource(11))
	h := sighash.NewMD5(256, 4)
	a := New(h, nil)
	bIdx := New(h, nil)
	var all [][]int32
	for i := 0; i < 300; i++ {
		tx := randomItems(rng, 10, 500)
		all = append(all, tx)
		a.Insert(tx)
	}
	for _, tx := range all {
		bIdx.Insert(tx)
	}
	probe := []int32{all[0][0]}
	ea, va := a.CountItemSet(probe)
	eb, vb := bIdx.CountItemSet(probe)
	if ea != eb || !va.Equal(vb) {
		t.Errorf("incremental vs batch mismatch: %d vs %d", ea, eb)
	}
}

func TestFoldPreservesNoFalseMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	h := sighash.NewMD5(512, 4)
	b := New(h, nil)
	var txs [][]int32
	for i := 0; i < 400; i++ {
		tx := randomItems(rng, 8, 300)
		txs = append(txs, tx)
		b.Insert(tx)
	}
	folded, err := foldPart(b, 64)
	if err != nil {
		t.Fatal(err)
	}
	if folded.M() != 64 {
		t.Fatalf("folded M = %d", folded.M())
	}
	if folded.Len() != b.Len() {
		t.Fatalf("folded Len = %d, want %d", folded.Len(), b.Len())
	}
	// Every actual occurrence must still be counted (Lemma 3 survives the
	// fold), and the folded estimate dominates the original estimate.
	for trial := 0; trial < 50; trial++ {
		src := txs[rng.Intn(len(txs))]
		if len(src) < 2 {
			continue
		}
		itemset := []int32{src[0], src[len(src)/2]}
		actual := 0
		for _, tx := range txs {
			if containsAll(tx, itemset) {
				actual++
			}
		}
		orig, _ := b.CountItemSet(itemset)
		fold, _ := folded.CountItemSet(itemset)
		if fold < orig {
			t.Errorf("folded estimate %d < original %d for %v", fold, orig, itemset)
		}
		if fold < actual {
			t.Errorf("folded estimate %d < actual %d for %v", fold, actual, itemset)
		}
	}
	// Exact 1-itemset counts survive the fold.
	for _, it := range b.Items() {
		if c := b.ExactCount(it); folded.ExactCount(it) != c {
			t.Errorf("folded ExactCount(%d) = %d, want %d", it, folded.ExactCount(it), c)
		}
	}
}

func TestFoldBadWidth(t *testing.T) {
	b, _ := runningExample(nil)
	for _, keep := range []int{0, -1, 9, 100} {
		if _, err := foldPart(b, keep); err == nil {
			t.Errorf("Fold(%d) succeeded, want error", keep)
		}
	}
	if f, err := foldPart(b, 8); err != nil || f.M() != 8 {
		t.Errorf("Fold(m) should be allowed: %v", err)
	}
}

func TestAccounting(t *testing.T) {
	var stats iostat.Stats
	b, _ := runningExample(&stats)
	b.CountItemSet([]int32{0, 1})
	snap := stats.Snapshot()
	if snap.CountCalls != 1 {
		t.Errorf("CountCalls = %d, want 1", snap.CountCalls)
	}
	if snap.SliceAnds != 2 { // items 0 and 1 → two slices
		t.Errorf("SliceAnds = %d, want 2", snap.SliceAnds)
	}
	// In-memory ANDs are not I/O; page reads are charged per pass.
	if snap.SlicePageReads != 0 {
		t.Errorf("SlicePageReads = %d, want 0 before any charged pass", snap.SlicePageReads)
	}
	// The whole 8×5-bit index fits one page; slices are contiguous.
	viewOf(t, b).ChargeFullRead()
	if got := stats.SlicePageReads(); got != 1 {
		t.Errorf("SlicePageReads after full read = %d, want 1", got)
	}
	b.ChargeSliceReads(3)
	if got := stats.SlicePageReads(); got != 2 {
		t.Errorf("SlicePageReads after 3 slice reads = %d, want 2", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := sighash.NewMD5(256, 4)
	b := New(h, nil)
	var txs [][]int32
	for i := 0; i < 500; i++ {
		tx := randomItems(rng, 10, 400)
		txs = append(txs, tx)
		b.Insert(tx)
	}
	path := filepath.Join(t.TempDir(), "index.bbs")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != b.Len() || loaded.M() != b.M() {
		t.Fatalf("loaded Len=%d M=%d, want Len=%d M=%d", loaded.Len(), loaded.M(), b.Len(), b.M())
	}
	for trial := 0; trial < 30; trial++ {
		src := txs[rng.Intn(len(txs))]
		itemset := []int32{src[0]}
		if len(src) > 2 {
			itemset = append(itemset, src[2])
		}
		ea, va := b.CountItemSet(itemset)
		eb, vb := loaded.CountItemSet(itemset)
		if ea != eb || !va.Equal(vb) {
			t.Fatalf("loaded index disagrees on %v: %d vs %d", itemset, ea, eb)
		}
	}
	for _, it := range b.Items() {
		if loaded.ExactCount(it) != b.ExactCount(it) {
			t.Fatalf("item count mismatch for %d", it)
		}
	}
	// Loaded index remains dynamic.
	loaded.Insert([]int32{1, 2, 3})
	if loaded.Len() != b.Len()+1 {
		t.Error("insert after load failed")
	}
}

func TestLoadRejectsMismatchedHasher(t *testing.T) {
	b, _ := runningExample(nil)
	path := filepath.Join(t.TempDir(), "index.bbs")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, sighash.NewMod(16), nil); err == nil {
		t.Error("Load with wrong m succeeded")
	}
	if _, err := Load(path, sighash.NewMD5(8, 4), nil); err == nil {
		t.Error("Load with wrong k succeeded")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := osWriteFile(path, []byte("garbage file")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, sighash.NewMod(8), nil); err == nil {
		t.Error("Load accepted garbage")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing"), sighash.NewMod(8), nil); err == nil {
		t.Error("Load accepted missing file")
	}
}

// Property (Lemma 4): the estimate never undercounts the actual support.
func TestQuickEstimateDominatesActual(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	h := sighash.NewMD5(128, 4)
	b := New(h, nil)
	var txs [][]int32
	for i := 0; i < 200; i++ {
		tx := randomItems(rng, 8, 100)
		txs = append(txs, tx)
		b.Insert(tx)
	}
	f := func(rawA, rawB uint8) bool {
		itemset := []int32{int32(rawA % 100), int32(rawB % 100)}
		if itemset[0] == itemset[1] {
			itemset = itemset[:1]
		}
		actual := 0
		for _, tx := range txs {
			if containsAll(tx, itemset) {
				actual++
			}
		}
		est, v := b.CountItemSet(itemset)
		if est < actual {
			return false
		}
		// Lemma 3: every transaction containing the itemset has its bit set.
		for pos, tx := range txs {
			if containsAll(tx, itemset) && !v.Get(pos) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: with m == number of distinct items and a perfect (injective)
// hash, CountItemSet is exact (the paper's m = |I| extreme).
func TestPerfectHashIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const alphabet = 64
	b := New(sighash.NewMod(alphabet), nil) // injective for items < 64
	var txs [][]int32
	for i := 0; i < 300; i++ {
		tx := randomItems(rng, 8, alphabet)
		txs = append(txs, tx)
		b.Insert(tx)
	}
	for trial := 0; trial < 100; trial++ {
		itemset := randomItems(rng, 3, alphabet)
		actual := 0
		for _, tx := range txs {
			if containsAll(tx, itemset) {
				actual++
			}
		}
		est, _ := b.CountItemSet(itemset)
		if est != actual {
			t.Fatalf("perfect hash not exact: itemset %v est %d actual %d", itemset, est, actual)
		}
	}
}

func containsAll(tx []int32, itemset []int32) bool {
	for _, want := range itemset {
		found := false
		for _, it := range tx {
			if it == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// randomItems returns a sorted, deduplicated random itemset.
func randomItems(rng *rand.Rand, maxLen, alphabet int) []int32 {
	n := 1 + rng.Intn(maxLen)
	seen := map[int32]bool{}
	var out []int32
	for len(out) < n {
		it := int32(rng.Intn(alphabet))
		if !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	h := sighash.NewMD5(1600, 4)
	idx := New(h, nil)
	txs := make([][]int32, 1000)
	for i := range txs {
		txs[i] = randomItems(rng, 10, 10000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Insert(txs[i%1000])
	}
}

func BenchmarkCountItemSet(b *testing.B) {
	rng := rand.New(rand.NewSource(71))
	h := sighash.NewMD5(1600, 4)
	idx := New(h, nil)
	for i := 0; i < 10000; i++ {
		idx.Insert(randomItems(rng, 10, 10000))
	}
	itemset := []int32{5, 17}
	dst := idx.NewResult()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.CountInto(dst, itemset)
	}
}
