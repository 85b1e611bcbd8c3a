package sighash

import (
	"crypto/md5"
	"encoding/binary"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestMD5Deterministic(t *testing.T) {
	h := NewMD5(1600, 4)
	for item := int32(0); item < 100; item++ {
		a := h.Positions(item)
		b := h.Positions(item)
		if len(a) != 4 {
			t.Fatalf("item %d: %d positions, want 4", item, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("item %d: positions not deterministic", item)
			}
		}
	}
}

func TestMD5Range(t *testing.T) {
	for _, m := range []int{8, 400, 1600, 6400} {
		h := NewMD5(m, 4)
		for item := int32(0); item < 500; item++ {
			for _, p := range h.Positions(item) {
				if p < 0 || p >= m {
					t.Fatalf("m=%d item=%d: position %d out of range", m, item, p)
				}
			}
		}
	}
}

func TestMD5MatchesSpec(t *testing.T) {
	// The first four positions must come from the four disjoint 32-bit
	// groups of MD5(decimal name), reduced mod m.
	m := 1600
	h := NewMD5(m, 4)
	for _, item := range []int32{0, 7, 12345, 99999} {
		sum := md5.Sum([]byte(strconv.FormatInt(int64(item), 10)))
		want := make([]int, 4)
		for g := 0; g < 4; g++ {
			want[g] = int(binary.BigEndian.Uint32(sum[g*4:g*4+4]) % uint32(m))
		}
		got := h.Positions(item)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("item %d group %d: got %d, want %d", item, i, got[i], want[i])
			}
		}
	}
}

func TestMD5MoreThanFourHashes(t *testing.T) {
	// k > 4 pulls extra groups from MD5(name+name): verify the fifth value.
	m := 1600
	h := NewMD5(m, 6)
	item := int32(42)
	got := h.Positions(item)
	if len(got) != 6 {
		t.Fatalf("got %d positions, want 6", len(got))
	}
	sum2 := md5.Sum([]byte("4242"))
	want5 := int(binary.BigEndian.Uint32(sum2[0:4]) % uint32(m))
	want6 := int(binary.BigEndian.Uint32(sum2[4:8]) % uint32(m))
	if got[4] != want5 || got[5] != want6 {
		t.Fatalf("positions 5,6 = %d,%d; want %d,%d", got[4], got[5], want5, want6)
	}
}

func TestMD5CacheConcurrent(t *testing.T) {
	h := NewMD5(1600, 4)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for item := int32(0); item < 200; item++ {
				h.Positions(item)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	// Spot-check correctness after the race.
	sum := md5.Sum([]byte("5"))
	want := int(binary.BigEndian.Uint32(sum[0:4]) % 1600)
	if h.Positions(5)[0] != want {
		t.Fatal("cache corrupted by concurrent access")
	}
}

func TestNewMD5Panics(t *testing.T) {
	for _, tc := range []struct{ m, k int }{{0, 4}, {-1, 4}, {8, 0}, {8, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMD5(%d,%d) did not panic", tc.m, tc.k)
				}
			}()
			NewMD5(tc.m, tc.k)
		}()
	}
}

func TestModMatchesRunningExample(t *testing.T) {
	// Paper Example 1: h(x) = x mod 8.
	h := NewMod(8)
	cases := map[int32]int{0: 0, 1: 1, 7: 7, 8: 0, 14: 6, 15: 7}
	for item, want := range cases {
		got := h.Positions(item)
		if len(got) != 1 || got[0] != want {
			t.Errorf("Mod(8).Positions(%d) = %v, want [%d]", item, got, want)
		}
	}
	if h.M() != 8 || h.K() != 1 {
		t.Errorf("M=%d K=%d", h.M(), h.K())
	}
}

func TestModNegativeItem(t *testing.T) {
	h := NewMod(8)
	if p := h.Positions(-3)[0]; p < 0 || p >= 8 {
		t.Errorf("negative item mapped out of range: %d", p)
	}
}

func TestSignatureBitsRunningExample(t *testing.T) {
	// Transaction 100 of Table 1: items {0..5, 14, 15} → vector 11111111.
	h := NewMod(8)
	bits := SignatureBits(h, []int32{0, 1, 2, 3, 4, 5, 14, 15})
	if len(bits) != 8 {
		t.Fatalf("SignatureBits = %v, want all 8 positions", bits)
	}
	// Transaction 300: items {1, 5, 14, 15} → positions {1, 5, 6, 7}.
	bits = SignatureBits(h, []int32{1, 5, 14, 15})
	want := []int{1, 5, 6, 7}
	if len(bits) != len(want) {
		t.Fatalf("SignatureBits = %v, want %v", bits, want)
	}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("SignatureBits = %v, want %v", bits, want)
		}
	}
}

func TestSignatureBitsDedupAndSorted(t *testing.T) {
	h := NewMod(4) // heavy collisions
	bits := SignatureBits(h, []int32{0, 4, 8, 1, 5, 3})
	if !sort.IntsAreSorted(bits) {
		t.Errorf("positions not sorted: %v", bits)
	}
	seen := map[int]bool{}
	for _, p := range bits {
		if seen[p] {
			t.Errorf("duplicate position %d in %v", p, bits)
		}
		seen[p] = true
	}
}

func TestSignatureBitsEmpty(t *testing.T) {
	h := NewMD5(100, 4)
	if got := SignatureBits(h, nil); len(got) != 0 {
		t.Errorf("SignatureBits(nil) = %v, want empty", got)
	}
}

// Property: the signature of a superset covers the signature of a subset
// (the monotonicity behind Lemma 3).
func TestQuickSignatureMonotone(t *testing.T) {
	h := NewMD5(512, 4)
	f := func(base []int32, extra []int32) bool {
		sub := SignatureBits(h, base)
		super := SignatureBits(h, append(append([]int32{}, base...), extra...))
		set := make(map[int]bool, len(super))
		for _, p := range super {
			set[p] = true
		}
		for _, p := range sub {
			if !set[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: positions are always within [0, m).
func TestQuickPositionsInRange(t *testing.T) {
	h := NewMD5(777, 5)
	f := func(item int32) bool {
		for _, p := range h.Positions(item) {
			if p < 0 || p >= 777 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMD5PositionsCold(b *testing.B) {
	b.ReportAllocs()
	var buf []int
	for i := 0; i < b.N; i++ {
		buf = appendMD5Positions(buf[:0], int32(i), 1600, 4)
	}
}

func BenchmarkMD5PositionsCached(b *testing.B) {
	h := NewMD5(1600, 4)
	for i := int32(0); i < 1000; i++ {
		h.Positions(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Positions(int32(i % 1000))
	}
}

// AppendSignatureBits must agree with SignatureBits and reuse the supplied
// buffer instead of allocating once it has grown.
func TestAppendSignatureBits(t *testing.T) {
	h := NewMD5(256, 4)
	rng := rand.New(rand.NewSource(91))
	var buf []int
	for trial := 0; trial < 200; trial++ {
		items := make([]int32, rng.Intn(12))
		for i := range items {
			items[i] = int32(rng.Intn(40)) // small alphabet forces collisions
		}
		want := SignatureBits(h, items)
		buf = AppendSignatureBits(buf[:0], h, items)
		if len(buf) != len(want) {
			t.Fatalf("items %v: got %v, want %v", items, buf, want)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("items %v: got %v, want %v", items, buf, want)
			}
		}
	}

	items := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	buf = AppendSignatureBits(buf[:0], h, items)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendSignatureBits(buf[:0], h, items)
	})
	if allocs != 0 {
		t.Errorf("AppendSignatureBits allocated %.1f times per run with a warm buffer", allocs)
	}
}

// A non-empty prefix must be preserved: AppendSignatureBits only appends.
func TestAppendSignatureBitsKeepsPrefix(t *testing.T) {
	h := NewMod(8)
	buf := []int{-1, -2}
	buf = AppendSignatureBits(buf, h, []int32{1, 5, 14, 15})
	want := []int{-1, -2, 1, 5, 6, 7}
	if len(buf) != len(want) {
		t.Fatalf("got %v, want %v", buf, want)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("got %v, want %v", buf, want)
		}
	}
}
