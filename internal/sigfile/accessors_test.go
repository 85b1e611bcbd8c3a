package sigfile

import (
	"testing"

	"bbsmine/internal/iostat"
	"bbsmine/internal/sighash"
)

func TestAccessors(t *testing.T) {
	var stats iostat.Stats
	h := sighash.NewMod(8)
	b := New(h, &stats)
	if b.Hasher() != h {
		t.Error("Hasher() does not return the construction hasher")
	}
	if b.Stats() != &stats {
		t.Error("Stats() does not return the construction sink")
	}
	if viewOf(t, b).MaxTransactionItems() != 0 {
		t.Error("MaxTransactionItems non-zero on empty index")
	}
	b.Insert([]int32{1, 2, 3})
	b.Insert([]int32{4})
	b.Insert([]int32{5, 5, 6, 1}) // unsorted path: 3 distinct
	if got := viewOf(t, b).MaxTransactionItems(); got != 3 {
		t.Errorf("MaxTransactionItems = %d, want 3", got)
	}
}

func TestAverageSignatureBits(t *testing.T) {
	b := New(sighash.NewMod(8), nil)
	if got := viewOf(t, b).AverageSignatureBits(); got != 0 {
		t.Errorf("empty index average = %f", got)
	}
	b.Insert([]int32{0, 1}) // positions 0,1
	b.Insert([]int32{2})    // position 2
	// Total set bits = 3 over 2 transactions.
	if got := viewOf(t, b).AverageSignatureBits(); got != 1.5 {
		t.Errorf("AverageSignatureBits = %f, want 1.5", got)
	}
}

func TestColdReadAndEvict(t *testing.T) {
	var stats iostat.Stats
	b := New(sighash.NewMod(8), &stats)
	for i := 0; i < 100; i++ {
		b.Insert([]int32{int32(i % 8)})
	}
	viewOf(t, b).ChargeColdRead()
	first := stats.SlicePageReads()
	if first == 0 {
		t.Fatal("cold read charged nothing")
	}
	viewOf(t, b).ChargeColdRead()
	if stats.SlicePageReads() != first {
		t.Error("warm read charged pages")
	}
	viewOf(t, b).EvictCache()
	viewOf(t, b).ChargeColdRead()
	if stats.SlicePageReads() != 2*first {
		t.Errorf("post-evict read charged %d, want %d", stats.SlicePageReads()-first, first)
	}
	// Growth charges only the delta (page-granular).
	for i := 0; i < 100000; i++ {
		b.Insert([]int32{int32(i % 8)})
	}
	viewOf(t, b).ChargeColdRead()
	grown := stats.SlicePageReads()
	if grown <= 2*first {
		t.Error("grown index charged nothing for the tail")
	}
}

func TestResultSlice(t *testing.T) {
	var stats iostat.Stats
	b := New(sighash.NewMod(8), &stats)
	b.Insert([]int32{3})
	s := b.ResultSlice(3)
	if !s.Get(0) {
		t.Error("slice 3 bit 0 not set after inserting item 3")
	}
	if stats.SlicePageReads() == 0 {
		t.Error("ResultSlice did not charge a read")
	}
}
