package txdb

import (
	"math/rand"
	"sync"
	"testing"

	"bbsmine/internal/iostat"
)

// A view captured before later appends must keep its length and contents.
func TestLogViewIsImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewAppendLog(nil)
	for i := 0; i < 100; i++ {
		if err := l.Append(randomTx(rng, int64(i), 8, 500)); err != nil {
			t.Fatal(err)
		}
	}
	v := l.View()
	wantLen, wantSize := v.Len(), v.size
	first, err := v.Get(0)
	if err != nil {
		t.Fatal(err)
	}

	for i := 100; i < 1000; i++ {
		if err := l.Append(randomTx(rng, int64(i), 8, 500)); err != nil {
			t.Fatal(err)
		}
	}
	if v.Len() != wantLen || v.size != wantSize {
		t.Fatalf("view grew: len %d size %d, want %d %d", v.Len(), v.size, wantLen, wantSize)
	}
	if _, err := v.Get(wantLen); err == nil {
		t.Fatal("view handed out a record appended after its capture")
	}
	again, err := v.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if again.TID != first.TID || len(again.Items) != len(first.Items) {
		t.Fatal("record changed under the view")
	}
	if l.Len() != 1000 {
		t.Fatalf("log len = %d, want 1000", l.Len())
	}
}

// Concurrent view readers racing the single writer must be race-clean; run
// under -race. The writer takes the views — View, like Append, is the single
// writer's call, as the serving commit loop's publish makes it — and each
// reader sweeps the views it is handed with Get and Scan while the writer
// keeps appending.
func TestLogViewConcurrentWithWriter(t *testing.T) {
	l := NewAppendLog(nil)
	wrng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		if err := l.Append(randomTx(wrng, int64(i), 8, 500)); err != nil {
			t.Fatal(err)
		}
	}
	views := make(chan *LogView, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range views {
				n := v.Len()
				for pos := 0; pos < n; pos += 7 {
					if _, err := v.Get(pos); err != nil {
						t.Errorf("Get(%d) on a %d-long view: %v", pos, n, err)
						return
					}
				}
				seen := 0
				if err := v.Scan(func(pos int, tx Transaction) bool {
					seen++
					return true
				}); err != nil {
					t.Errorf("Scan: %v", err)
					return
				}
				if seen != n {
					t.Errorf("Scan visited %d of %d records", seen, n)
					return
				}
			}
		}()
	}
	for i := 50; i < 2000; i++ {
		if err := l.Append(randomTx(wrng, int64(i), 8, 500)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			views <- l.View()
		}
	}
	close(views)
	wg.Wait()
}

// A view is read-only; its cache is private per view.
func TestLogViewRejectsAppend(t *testing.T) {
	l := NewAppendLog(nil)
	v := l.View()
	if err := v.Append(Transaction{}); err == nil {
		t.Fatal("Append on a view succeeded")
	}
}

// LoadAppendLog must reproduce the source store without charging a mining
// scan to the shared stats.
func TestLoadAppendLogFromFileStore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stats := &iostat.Stats{}
	var txs []Transaction
	for i := 0; i < 200; i++ {
		txs = append(txs, randomTx(rng, int64(i), 8, 500))
	}
	fs, err := WriteAll(t.TempDir()+"/log.txdb", stats, txs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := fs.Close(); cerr != nil {
			t.Errorf("close: %v", cerr)
		}
	}()

	before := stats.Snapshot()
	l, err := LoadAppendLog(fs, stats)
	if err != nil {
		t.Fatal(err)
	}
	if delta := stats.Snapshot().Sub(before); delta.DBScans != 0 || delta.DBSeqPages != 0 {
		t.Fatalf("loading charged a mining scan: %v", delta)
	}
	if l.Len() != len(txs) {
		t.Fatalf("loaded %d records, want %d", l.Len(), len(txs))
	}
	for pos, want := range txs {
		got, err := l.Get(pos)
		if err != nil {
			t.Fatal(err)
		}
		if got.TID != want.TID || !got.Contains(want.Items) || !want.Contains(got.Items) {
			t.Fatalf("record %d differs after load", pos)
		}
	}
}

// The LRU cap bounds residency and counts evictions — the regression test
// for the formerly unbounded resident map.
func TestPageCacheLRUBoundsResidency(t *testing.T) {
	stats := &iostat.Stats{}
	var c pageCache
	const capBytes = 8 * iostat.PageSize
	c.setLimit(capBytes, stats)

	// Touch 64 distinct pages: residency must never exceed 8.
	for p := int64(0); p < 64; p++ {
		if miss := c.misses(p*iostat.PageSize, (p+1)*iostat.PageSize, stats); miss != 1 {
			t.Fatalf("page %d: %d misses, want 1", p, miss)
		}
		if r := c.residentPages(); r > 8 {
			t.Fatalf("after page %d: %d resident pages, cap is 8", p, r)
		}
	}
	if ev := stats.PageCacheEvictions(); ev != 64-8 {
		t.Fatalf("evictions = %d, want %d", ev, 64-8)
	}
	if r := stats.PageCacheResident(); r != 8 {
		t.Fatalf("resident gauge = %d, want 8", r)
	}

	// The hottest page stays resident: repeated access is a hit, not a miss.
	hot := int64(63)
	for i := 0; i < 10; i++ {
		if miss := c.misses(hot*iostat.PageSize, (hot+1)*iostat.PageSize, stats); miss != 0 {
			t.Fatalf("hot page missed on re-access (iteration %d)", i)
		}
	}
	if h := stats.PageCacheHits(); h != 10 {
		t.Fatalf("hits = %d, want 10", h)
	}

	// LRU, not FIFO: the re-touched page survives a round of fresh pages.
	for p := int64(100); p < 107; p++ {
		c.misses(p*iostat.PageSize, (p+1)*iostat.PageSize, stats)
	}
	if miss := c.misses(hot*iostat.PageSize, (hot+1)*iostat.PageSize, stats); miss != 0 {
		t.Fatal("most-recently-used page was evicted before older ones")
	}

	// Dropping the limit resets the gauge.
	c.setLimit(0, stats)
	if r := stats.PageCacheResident(); r != 0 {
		t.Fatalf("resident gauge after reset = %d, want 0", r)
	}
}

// A zero-page cap (limit smaller than one page) keeps the old thrash
// semantics: nothing stays resident, every access faults.
func TestPageCacheZeroCapThrashes(t *testing.T) {
	stats := &iostat.Stats{}
	var c pageCache
	c.setLimit(1, stats)
	for i := 0; i < 3; i++ {
		if miss := c.misses(0, iostat.PageSize, stats); miss != 1 {
			t.Fatalf("iteration %d: %d misses, want 1", i, miss)
		}
	}
	if r := stats.PageCacheResident(); r != 0 {
		t.Fatalf("resident gauge = %d, want 0", r)
	}
}
