package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewLenAndZero(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, v.Len())
		}
		if v.Count() != 0 {
			t.Errorf("New(%d).Count() = %d, want 0", n, v.Count())
		}
		if !v.IsZero() {
			t.Errorf("New(%d) not zero", n)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i)
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if got := v.Count(); got != len(idx) {
		t.Errorf("Count = %d, want %d", got, len(idx))
	}
	for _, i := range idx {
		v.Clear(i)
		if v.Get(i) {
			t.Errorf("bit %d still set after Clear", i)
		}
	}
	if !v.IsZero() {
		t.Error("vector not zero after clearing all set bits")
	}
}

func TestBoundsPanics(t *testing.T) {
	v := New(10)
	for _, i := range []int{-1, 10, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestSetAllRespectsLength(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100} {
		v := New(n)
		v.SetAll()
		if got := v.Count(); got != n {
			t.Errorf("SetAll on len %d: Count = %d", n, got)
		}
	}
}

func TestReset(t *testing.T) {
	v := New(100)
	v.SetAll()
	v.Reset()
	if !v.IsZero() || v.Len() != 100 {
		t.Errorf("Reset: IsZero=%v Len=%d", v.IsZero(), v.Len())
	}
}

func TestGrowPreservesBits(t *testing.T) {
	v := New(10)
	v.Set(3)
	v.Set(9)
	v.Grow(200)
	if v.Len() != 200 {
		t.Fatalf("Len = %d after Grow(200)", v.Len())
	}
	if !v.Get(3) || !v.Get(9) {
		t.Error("Grow lost bits")
	}
	if v.Count() != 2 {
		t.Errorf("Count = %d after Grow, want 2", v.Count())
	}
	// Growing to a smaller size is a no-op.
	v.Grow(5)
	if v.Len() != 200 {
		t.Errorf("Grow shrunk the vector to %d", v.Len())
	}
}

func TestGrowTailIsZero(t *testing.T) {
	// SetAll then Grow: the new region must be zero even though the old
	// last word was saturated up to the logical length.
	v := New(70)
	v.SetAll()
	v.Grow(140)
	if got := v.Count(); got != 70 {
		t.Errorf("Count = %d after SetAll(70)+Grow(140), want 70", got)
	}
	for i := 70; i < 140; i++ {
		if v.Get(i) {
			t.Fatalf("bit %d unexpectedly set in grown region", i)
		}
	}
}

// TestResizeShrinksAndRegrowsZero pins Resize both ways: shrinking keeps
// the low bits, and growing back — by Resize or by Grow, also after a
// CopyFrom shrink — reads 0 where the longer vector had bits set.
func TestResizeShrinksAndRegrowsZero(t *testing.T) {
	v := New(200)
	v.SetAll()
	v.Resize(70)
	if v.Len() != 70 || v.Count() != 70 {
		t.Fatalf("after Resize(70): Len %d, Count %d, want 70/70", v.Len(), v.Count())
	}
	v.Resize(200)
	if v.Len() != 200 || v.Count() != 70 {
		t.Fatalf("after Resize back to 200: Len %d, Count %d, want 200/70", v.Len(), v.Count())
	}

	w := New(300)
	w.SetAll()
	w.CopyFrom(New(10))
	w.Grow(300)
	if got := w.Count(); got != 0 {
		t.Fatalf("CopyFrom shrink then Grow: Count = %d, want 0", got)
	}
}

func TestAppend(t *testing.T) {
	var v Vector
	pattern := []bool{true, false, true, true, false}
	for i := 0; i < 30; i++ {
		for _, b := range pattern {
			v.Append(b)
		}
	}
	if v.Len() != 150 {
		t.Fatalf("Len = %d, want 150", v.Len())
	}
	for i := 0; i < v.Len(); i++ {
		if v.Get(i) != pattern[i%len(pattern)] {
			t.Fatalf("bit %d = %v, want %v", i, v.Get(i), pattern[i%len(pattern)])
		}
	}
}

func TestAndOrXorAndNot(t *testing.T) {
	a := FromBits([]bool{true, true, false, false, true})
	b := FromBits([]bool{true, false, true, false, true})

	and := a.Clone()
	and.And(b)
	if got := and.String(); got != "10001" {
		t.Errorf("And = %s, want 10001", got)
	}
	or := a.Clone()
	or.Or(b)
	if got := or.String(); got != "11101" {
		t.Errorf("Or = %s, want 11101", got)
	}
	xor := a.Clone()
	xor.Xor(b)
	if got := xor.String(); got != "01100" {
		t.Errorf("Xor = %s, want 01100", got)
	}
	andnot := a.Clone()
	andnot.AndNot(b)
	if got := andnot.String(); got != "01000" {
		t.Errorf("AndNot = %s, want 01000", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths did not panic")
		}
	}()
	a.And(b)
}

func TestAndCountMatchesAndPlusCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		a, b := randomVec(rng, n), randomVec(rng, n)
		ref := a.Clone()
		ref.And(b)
		got := a.AndCount(b)
		if got != ref.Count() {
			t.Fatalf("AndCount = %d, want %d", got, ref.Count())
		}
		if !a.Equal(ref) {
			t.Fatalf("AndCount result vector differs from And")
		}
	}
}

func TestCountUpTo(t *testing.T) {
	v := New(300)
	for i := 0; i < 300; i += 3 {
		v.Set(i)
	}
	total := v.Count()
	if got := v.CountUpTo(total + 10); got != total {
		t.Errorf("CountUpTo(total+10) = %d, want %d", got, total)
	}
	if got := v.CountUpTo(5); got != 5 {
		t.Errorf("CountUpTo(5) = %d, want 5", got)
	}
	if got := v.CountUpTo(0); got != 0 {
		t.Errorf("CountUpTo(0) = %d, want 0", got)
	}
}

func TestCopyFromAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := randomVec(rng, 200)
	var dst Vector
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatal("CopyFrom: not equal")
	}
	// Mutating the copy must not affect the source.
	dst.Set(0)
	dst.Clear(1)
	c := src.Clone()
	if !c.Equal(src) {
		t.Fatal("Clone: not equal")
	}
}

func TestEqual(t *testing.T) {
	a := FromBits([]bool{true, false, true})
	b := FromBits([]bool{true, false, true})
	c := FromBits([]bool{true, true, true})
	d := New(4)
	if !a.Equal(b) {
		t.Error("identical vectors not Equal")
	}
	if a.Equal(c) {
		t.Error("different contents reported Equal")
	}
	if a.Equal(d) {
		t.Error("different lengths reported Equal")
	}
}

func TestNextSet(t *testing.T) {
	v := New(200)
	want := []int{0, 5, 63, 64, 130, 199}
	for _, i := range want {
		v.Set(i)
	}
	var got []int
	for i, ok := v.NextSet(0); ok; i, ok = v.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("NextSet iteration found %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextSet iteration found %v, want %v", got, want)
		}
	}
	if _, ok := v.NextSet(200); ok {
		t.Error("NextSet past end returned ok")
	}
	if i, ok := v.NextSet(-5); !ok || i != 0 {
		t.Error("NextSet with negative start should clamp to 0")
	}
}

func TestForEachSetEarlyStop(t *testing.T) {
	v := New(100)
	for i := 0; i < 100; i++ {
		v.Set(i)
	}
	n := 0
	v.ForEachSet(func(i int) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop visited %d bits, want 7", n)
	}
}

func TestOnesMatchesForEachSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := randomVec(rng, 500)
	ones := v.Ones()
	j := 0
	v.ForEachSet(func(i int) bool {
		if ones[j] != i {
			t.Fatalf("Ones[%d] = %d, ForEachSet yields %d", j, ones[j], i)
		}
		j++
		return true
	})
	if j != len(ones) {
		t.Fatalf("Ones has %d entries, ForEachSet yielded %d", len(ones), j)
	}
}

func TestString(t *testing.T) {
	v := FromBits([]bool{true, true, false, true})
	if got := v.String(); got != "1101" {
		t.Errorf("String = %q, want 1101", got)
	}
	if got := New(0).String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
}

func TestSetWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 64, 65, 200} {
		v := randomVec(rng, n)
		var u Vector
		if err := u.SetWords(v.Words(), v.Len()); err != nil {
			t.Fatalf("SetWords(len=%d): %v", n, err)
		}
		if !u.Equal(v) {
			t.Fatalf("round trip failed for len %d", n)
		}
	}
	var u Vector
	if err := u.SetWords([]uint64{1, 2}, 64); err == nil {
		t.Error("SetWords with mismatched word count should error")
	}
	if err := u.SetWords(nil, -1); err == nil {
		t.Error("SetWords with negative length should error")
	}
}

func TestSetWordsClearsTail(t *testing.T) {
	var u Vector
	// 70 bits need 2 words; poison bits beyond 70.
	if err := u.SetWords([]uint64{^uint64(0), ^uint64(0)}, 70); err != nil {
		t.Fatal(err)
	}
	if got := u.Count(); got != 70 {
		t.Errorf("Count = %d, want 70 (tail not trimmed)", got)
	}
}

// Property: for random vectors, And never increases popcount and the result
// is a subset of both operands (the Lemma 1/2 pruning property BBS relies on).
func TestQuickAndIsIntersection(t *testing.T) {
	f := func(aw, bw []uint64) bool {
		n := len(aw)
		if len(bw) < n {
			n = len(bw)
		}
		nbits := n * 64
		a, b := New(nbits), New(nbits)
		for i := 0; i < n; i++ {
			a.words[i] = aw[i]
			b.words[i] = bw[i]
		}
		r := a.Clone()
		r.And(b)
		if r.Count() > a.Count() || r.Count() > b.Count() {
			return false
		}
		ok := true
		r.ForEachSet(func(i int) bool {
			if !a.Get(i) || !b.Get(i) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Count equals the number of indices visited by ForEachSet.
func TestQuickCountMatchesIteration(t *testing.T) {
	f := func(words []uint64) bool {
		v := New(len(words) * 64)
		copy(v.words, words)
		n := 0
		v.ForEachSet(func(int) bool { n++; return true })
		return n == v.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Xor twice restores the original (involution).
func TestQuickXorInvolution(t *testing.T) {
	f := func(aw, bw []uint64) bool {
		n := len(aw)
		if len(bw) < n {
			n = len(bw)
		}
		a, b := New(n*64), New(n*64)
		for i := 0; i < n; i++ {
			a.words[i] = aw[i]
			b.words[i] = bw[i]
		}
		orig := a.Clone()
		a.Xor(b)
		a.Xor(b)
		return a.Equal(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randomVec(rng *rand.Rand, n int) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

func BenchmarkAndCount(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := randomVec(rng, 100000)
	y := randomVec(rng, 100000)
	tmp := New(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmp.CopyFrom(x)
		tmp.AndCount(y)
	}
}

func BenchmarkForEachSet(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	v := randomVec(rng, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		v.ForEachSet(func(int) bool { n++; return true })
	}
}
