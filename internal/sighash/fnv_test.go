package sighash

import (
	"testing"
	"testing/quick"
)

func TestFNVBasics(t *testing.T) {
	h := NewFNV(1600, 4)
	if h.M() != 1600 || h.K() != 4 {
		t.Errorf("M=%d K=%d", h.M(), h.K())
	}
	for item := int32(0); item < 200; item++ {
		p := h.Positions(item)
		if len(p) != 4 {
			t.Fatalf("item %d: %d positions", item, len(p))
		}
		for _, pos := range p {
			if pos < 0 || pos >= 1600 {
				t.Fatalf("item %d: position %d out of range", item, pos)
			}
		}
		// Deterministic (cache hit path equals cold path).
		q := h.Positions(item)
		for i := range p {
			if p[i] != q[i] {
				t.Fatalf("item %d not deterministic", item)
			}
		}
	}
}

func TestFNVPanicsOnBadParams(t *testing.T) {
	for _, tc := range []struct{ m, k int }{{0, 4}, {8, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFNV(%d,%d) did not panic", tc.m, tc.k)
				}
			}()
			NewFNV(tc.m, tc.k)
		}()
	}
}

func TestFNVSpreadsItems(t *testing.T) {
	// The first positions of distinct items must not collapse onto a few
	// values: over 1000 items and 1600 slots expect wide coverage.
	h := NewFNV(1600, 4)
	distinct := map[int]bool{}
	for item := int32(0); item < 1000; item++ {
		distinct[h.Positions(item)[0]] = true
	}
	if len(distinct) < 400 {
		t.Errorf("only %d distinct first positions over 1000 items", len(distinct))
	}
}

func TestQuickFNVInRange(t *testing.T) {
	h := NewFNV(777, 5)
	f := func(item int32) bool {
		for _, p := range h.Positions(item) {
			if p < 0 || p >= 777 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFNVConcurrent(t *testing.T) {
	h := NewFNV(512, 4)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for item := int32(0); item < 300; item++ {
				h.Positions(item)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

func BenchmarkFNVPositionsCold(b *testing.B) {
	b.ReportAllocs()
	var buf []int
	for i := 0; i < b.N; i++ {
		buf = appendFNVPositions(buf[:0], int32(i), 1600, 4)
	}
}
