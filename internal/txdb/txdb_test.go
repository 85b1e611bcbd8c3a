package txdb

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"bbsmine/internal/iostat"
)

func TestNewTransactionNormalizes(t *testing.T) {
	tx := NewTransaction(7, []Item{5, 3, 5, 1, 3})
	want := []Item{1, 3, 5}
	if !reflect.DeepEqual(tx.Items, want) {
		t.Errorf("Items = %v, want %v", tx.Items, want)
	}
	if tx.TID != 7 {
		t.Errorf("TID = %d", tx.TID)
	}
	if err := tx.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewTransactionDoesNotMutateInput(t *testing.T) {
	in := []Item{9, 2, 9}
	NewTransaction(1, in)
	if !reflect.DeepEqual(in, []Item{9, 2, 9}) {
		t.Errorf("input mutated: %v", in)
	}
}

func TestContains(t *testing.T) {
	tx := NewTransaction(1, []Item{1, 3, 5, 7, 11})
	cases := []struct {
		set  []Item
		want bool
	}{
		{nil, true},
		{[]Item{1}, true},
		{[]Item{11}, true},
		{[]Item{3, 7}, true},
		{[]Item{1, 3, 5, 7, 11}, true},
		{[]Item{2}, false},
		{[]Item{1, 2}, false},
		{[]Item{11, 12}, false},
		{[]Item{0}, false},
	}
	for _, c := range cases {
		if got := tx.Contains(c.set); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}

func TestValidateRejectsBadData(t *testing.T) {
	bad := []Transaction{
		{TID: -1, Items: []Item{1}},
		{TID: 1, Items: []Item{-2}},
		{TID: 1, Items: []Item{3, 3}},
		{TID: 1, Items: []Item{5, 2}},
	}
	for _, tx := range bad {
		if err := tx.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", tx)
		}
	}
}

func TestEncodedSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		tx := randomTx(rng, int64(trial), 20, 100000)
		enc := appendRecord(nil, tx)
		if got := tx.EncodedSize(); got != len(enc) {
			t.Fatalf("EncodedSize = %d, encoded length = %d (tx %+v)", got, len(enc), tx)
		}
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	var stats iostat.Stats
	s := NewMemStore(&stats)
	txs := makeTxs(50)
	for _, tx := range txs {
		if err := s.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	checkStoreContents(t, s, txs)
}

func TestMemStoreRejectsInvalid(t *testing.T) {
	s := NewMemStore(nil)
	if err := s.Append(Transaction{TID: -1}); err == nil {
		t.Error("Append of invalid transaction succeeded")
	}
}

func TestMemStoreAccounting(t *testing.T) {
	var stats iostat.Stats
	s := NewMemStore(&stats)
	for _, tx := range makeTxs(100) {
		if err := s.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	s.Scan(func(int, Transaction) bool { return true })
	if stats.DBScans() != 1 {
		t.Errorf("DBScans = %d, want 1", stats.DBScans())
	}
	if stats.DBSeqPages() < 1 {
		t.Errorf("DBSeqPages = %d, want >= 1", stats.DBSeqPages())
	}
	// First random fetch misses the cache; repeating it hits.
	before := stats.DBRandPages()
	if _, err := s.Get(10); err != nil {
		t.Fatal(err)
	}
	if stats.DBRandPages() <= before {
		t.Error("first Get did not charge any cache misses")
	}
	after := stats.DBRandPages()
	if _, err := s.Get(10); err != nil {
		t.Fatal(err)
	}
	if stats.DBRandPages() != after {
		t.Error("second Get of the same record charged misses despite unlimited cache")
	}
}

func TestCacheLimitForcesMisses(t *testing.T) {
	var stats iostat.Stats
	s := NewMemStore(&stats)
	for _, tx := range makeTxs(200) {
		if err := s.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	s.SetCacheLimit(1) // far smaller than the data: every access thrashes
	s.Get(5)
	first := stats.DBRandPages()
	if first == 0 {
		t.Fatal("no misses under a tiny cache")
	}
	s.Get(5)
	if stats.DBRandPages() != 2*first {
		t.Errorf("repeated Get under thrashing cache: %d misses, want %d", stats.DBRandPages(), 2*first)
	}
	// Removing the limit restores first-touch-only charging.
	s.SetCacheLimit(0)
	s.Get(5)
	base := stats.DBRandPages()
	s.Get(5)
	if stats.DBRandPages() != base {
		t.Error("unlimited cache still charging repeated access")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.bbs")
	var stats iostat.Stats
	s, err := CreateFileStore(path, &stats)
	if err != nil {
		t.Fatal(err)
	}
	txs := makeTxs(200)
	for _, tx := range txs {
		if err := s.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	checkStoreContents(t, s, txs)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: index must be rebuilt and contents identical.
	s2, err := OpenFileStore(path, &stats)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkStoreContents(t, s2, txs)

	// Dynamic append after reopen.
	extra := NewTransaction(9999, []Item{2, 4, 6})
	if err := s2.Append(extra); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(len(txs))
	if err != nil {
		t.Fatal(err)
	}
	if got.TID != 9999 || !reflect.DeepEqual(got.Items, extra.Items) {
		t.Errorf("appended tx mismatch: %+v", got)
	}
}

func TestFileStoreReopenAfterAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.bbs")
	s, err := CreateFileStore(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	txs := makeTxs(10)
	for _, tx := range txs {
		if err := s.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2, err := OpenFileStore(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	extra := NewTransaction(777, []Item{1})
	if err := s2.Append(extra); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenFileStore(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 11 {
		t.Fatalf("Len = %d after reopen, want 11", s3.Len())
	}
	got, err := s3.Get(10)
	if err != nil {
		t.Fatal(err)
	}
	if got.TID != 777 {
		t.Errorf("TID = %d, want 777", got.TID)
	}
}

func TestOpenFileStoreRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := writeFile(path, []byte("this is not a txdb file at all")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path, nil); err == nil {
		t.Error("OpenFileStore accepted a garbage file")
	}
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Error("OpenFileStore accepted a missing file")
	}
}

func TestOpenFileStoreRejectsTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.bbs")
	s, err := CreateFileStore(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range makeTxs(5) {
		s.Append(tx)
	}
	s.Close()
	// Truncate mid-record.
	data, err := readFileBytes(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, data[:len(data)-2]); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path, nil); err == nil {
		t.Error("OpenFileStore accepted a truncated file")
	}
}

func TestFileStoreGetOutOfRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.bbs")
	s, err := CreateFileStore(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Append(NewTransaction(1, []Item{1}))
	for _, pos := range []int{-1, 1, 100} {
		if _, err := s.Get(pos); err == nil {
			t.Errorf("Get(%d) succeeded, want error", pos)
		}
	}
}

func TestFileStoreScanEarlyStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.bbs")
	s, err := CreateFileStore(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tx := range makeTxs(20) {
		s.Append(tx)
	}
	n := 0
	s.Scan(func(pos int, tx Transaction) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("visited %d records, want 5", n)
	}
}

func TestEmptyTransactionRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.bbs")
	s, err := CreateFileStore(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Transaction{TID: 5}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.TID != 5 || len(got.Items) != 0 {
		t.Errorf("round trip of empty transaction: %+v", got)
	}
	s.Close()
	s2, err := OpenFileStore(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Errorf("Len = %d", s2.Len())
	}
}

// Property: encode/decode round-trips arbitrary normalized transactions.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(tid uint32, raw []int32) bool {
		items := make([]Item, 0, len(raw))
		for _, r := range raw {
			if r < 0 {
				r = -r
			}
			items = append(items, r)
		}
		tx := NewTransaction(int64(tid), items)
		enc := appendRecord(nil, tx)
		dec, err := decodeRecord(enc)
		if err != nil {
			return false
		}
		return dec.TID == tx.TID && reflect.DeepEqual(dec.Items, tx.Items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: MemStore and FileStore agree on contents and Contains results.
func TestQuickStoresAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	txs := make([]Transaction, 100)
	for i := range txs {
		txs[i] = randomTx(rng, int64(i), 15, 1000)
	}
	mem, err := NewMemStoreFrom(nil, txs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.bbs")
	file, err := WriteAll(path, nil, txs)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for pos := 0; pos < len(txs); pos++ {
		a, _ := mem.Get(pos)
		b, _ := file.Get(pos)
		if a.TID != b.TID || !reflect.DeepEqual(a.Items, b.Items) {
			t.Fatalf("stores disagree at %d: %+v vs %+v", pos, a, b)
		}
	}
}

func checkStoreContents(t *testing.T, s Store, want []Transaction) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	seen := 0
	err := s.Scan(func(pos int, tx Transaction) bool {
		if tx.TID != want[pos].TID || !reflect.DeepEqual(tx.Items, want[pos].Items) {
			t.Fatalf("Scan at %d: %+v, want %+v", pos, tx, want[pos])
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(want) {
		t.Fatalf("Scan visited %d, want %d", seen, len(want))
	}
	for _, pos := range []int{0, len(want) / 2, len(want) - 1} {
		tx, err := s.Get(pos)
		if err != nil {
			t.Fatal(err)
		}
		if tx.TID != want[pos].TID || !reflect.DeepEqual(tx.Items, want[pos].Items) {
			t.Fatalf("Get(%d): %+v, want %+v", pos, tx, want[pos])
		}
	}
}

func makeTxs(n int) []Transaction {
	rng := rand.New(rand.NewSource(7))
	txs := make([]Transaction, n)
	for i := range txs {
		txs[i] = randomTx(rng, int64(100+i), 12, 500)
	}
	return txs
}

func randomTx(rng *rand.Rand, tid int64, maxItems, alphabet int) Transaction {
	n := 1 + rng.Intn(maxItems)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item(rng.Intn(alphabet))
	}
	return NewTransaction(tid, items)
}

func writeFile(path string, data []byte) error {
	return osWriteFile(path, data)
}

func BenchmarkFileStoreScan(b *testing.B) {
	path := filepath.Join(b.TempDir(), "db.bbs")
	s, err := WriteAll(path, nil, makeTxs(5000))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Scan(func(int, Transaction) bool { return true })
	}
}

func BenchmarkFileStoreGet(b *testing.B) {
	path := filepath.Join(b.TempDir(), "db.bbs")
	s, err := WriteAll(path, nil, makeTxs(5000))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(i % 5000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewTransactionSorted normalizes transactions that arrive sorted
// and duplicate-free, the common shape on the Append path.
func BenchmarkNewTransactionSorted(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	txs := make([][]Item, 1000)
	for i := range txs {
		txs[i] = randomTx(rng, int64(i), 20, 1000).Items
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewTransaction(int64(i), txs[i%len(txs)])
	}
}
