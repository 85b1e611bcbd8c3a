package bitvec

import (
	"math/rand"
	"testing"
)

// checkSummary asserts the sparse-mode invariant: when a summary is live,
// its bits mirror exactly which backing words are nonzero, and nz counts
// them.
func checkSummary(t *testing.T, v *Vector) {
	t.Helper()
	if !v.Summarized() {
		return
	}
	nz := 0
	for i, w := range v.words {
		got := v.summary[i>>wordShift]&(1<<uint(i&wordMask)) != 0
		if want := w != 0; got != want {
			t.Fatalf("summary bit %d = %v, word is %#x", i, got, w)
		}
		if w != 0 {
			nz++
		}
	}
	if v.nz != nz {
		t.Fatalf("nz = %d, want %d", v.nz, nz)
	}
}

// randomVector returns an n-bit vector with roughly density·n bits set.
func randomVector(rng *rand.Rand, n int, density float64) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v.Set(i)
		}
	}
	return v
}

// The sparse kernel must agree with the dense kernel bit for bit and count
// for count, across densities from nearly-empty to full.
func TestAndCountSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(4096)
		da := []float64{0.001, 0.01, 0.1, 0.5, 0.95}[rng.Intn(5)]
		db := []float64{0.001, 0.01, 0.1, 0.5, 0.95}[rng.Intn(5)]

		a := randomVector(rng, n, da)
		other := randomVector(rng, n, db)
		dense := a.Clone()
		sparse := a.Clone()
		sparse.Summarize()
		checkSummary(t, sparse)

		cd := dense.AndCount(other)
		cs := sparse.AndCount(other)
		if cd != cs {
			t.Fatalf("n=%d trial %d: dense count %d, sparse count %d", n, trial, cd, cs)
		}
		if !dense.Equal(sparse) {
			t.Fatalf("n=%d trial %d: dense and sparse results differ", n, trial)
		}
		checkSummary(t, sparse)
	}
}

// Chained ANDs — the mining access pattern, where the same residual is
// intersected with slice after slice — must keep the summary exact and the
// contents equal to the dense path at every step.
func TestAndCountSparseChained(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 2048
	dense := randomVector(rng, n, 0.9)
	sparse := dense.Clone()
	sparse.Summarize()
	for step := 0; step < 32; step++ {
		slice := randomVector(rng, n, 0.3)
		cd := dense.AndCount(slice)
		cs := sparse.AndCount(slice)
		if cd != cs || !dense.Equal(sparse) {
			t.Fatalf("step %d: counts %d/%d, equal=%v", step, cd, cs, dense.Equal(sparse))
		}
		checkSummary(t, sparse)
	}
	if !sparse.IsZero() && sparse.nz == 0 {
		t.Fatal("nz reached 0 with bits still set")
	}
}

// Set and Clear must maintain the summary through 0→1 and 1→0 word
// transitions, including re-setting set bits and re-clearing cleared ones.
func TestSetClearMaintainSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	v := randomVector(rng, 1024, 0.05)
	v.Summarize()
	for trial := 0; trial < 2000; trial++ {
		i := rng.Intn(1024)
		if rng.Intn(2) == 0 {
			v.Set(i)
		} else {
			v.Clear(i)
		}
		checkSummary(t, v)
	}
}

// CopyFrom and Clone must carry sparse mode with them, and copying from a
// dense vector must drop a stale summary.
func TestCopyFromPropagatesSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	sparse := randomVector(rng, 2048, 0.01)
	sparse.Summarize()

	var dst Vector
	dst.CopyFrom(sparse)
	if !dst.Summarized() {
		t.Fatal("CopyFrom from a summarized vector lost the summary")
	}
	checkSummary(t, &dst)

	c := sparse.Clone()
	if !c.Summarized() {
		t.Fatal("Clone lost the summary")
	}
	checkSummary(t, c)

	dense := randomVector(rng, 2048, 0.5)
	dst.CopyFrom(dense)
	if dst.Summarized() {
		t.Fatal("CopyFrom from a dense vector kept a stale summary")
	}
}

// The wholesale mutators must leave sparse mode rather than serve a stale
// summary.
func TestMutatorsDropSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	fresh := func() *Vector {
		v := randomVector(rng, 1024, 0.02)
		v.Summarize()
		return v
	}
	other := randomVector(rng, 1024, 0.5)
	cases := []struct {
		name string
		op   func(v *Vector)
	}{
		{"SetAll", func(v *Vector) { v.SetAll() }},
		{"Reset", func(v *Vector) { v.Reset() }},
		{"Or", func(v *Vector) { v.Or(other) }},
		{"Xor", func(v *Vector) { v.Xor(other) }},
		{"AndNot", func(v *Vector) { v.AndNot(other) }},
		{"And", func(v *Vector) { v.And(other) }},
		{"Grow", func(v *Vector) { v.Grow(2048) }},
		{"Append", func(v *Vector) { v.Append(true) }},
	}
	for _, c := range cases {
		v := fresh()
		c.op(v)
		if v.Summarized() {
			t.Errorf("%s left a stale summary", c.name)
		}
	}
}

// MaybeSummarize must respect the density threshold and the size floor.
func TestMaybeSummarize(t *testing.T) {
	sparse := New(4096)
	sparse.Set(7)
	sparse.MaybeSummarize(1)
	if !sparse.Summarized() {
		t.Error("sparse vector not promoted")
	}

	dense := New(4096)
	dense.SetAll()
	dense.MaybeSummarize(dense.Count())
	if dense.Summarized() {
		t.Error("dense vector promoted")
	}

	tiny := New(64) // 1 word, below summaryMinWords
	tiny.Set(1)
	tiny.MaybeSummarize(1)
	if tiny.Summarized() {
		t.Error("tiny vector promoted")
	}
}

// benchSparsePair builds an n-bit residual with k set bits plus a 30%-dense
// slice to AND it with — the deep-DFS shape the sparse kernel exists for.
func benchSparsePair(n, k int) (residual, slice *Vector) {
	rng := rand.New(rand.NewSource(47))
	residual = New(n)
	for i := 0; i < k; i++ {
		residual.Set(rng.Intn(n))
	}
	slice = randomVector(rng, n, 0.3)
	return residual, slice
}

// BenchmarkAndSliceSparse pins the sparse kernel against the dense sweep on
// a 64k-bit residual with 64 surviving bits (>99% zero words). The residual
// is restored via CopyFrom each iteration, as the miner does.
func BenchmarkAndSliceSparse(b *testing.B) {
	const n, k = 65536, 64
	residual, slice := benchSparsePair(n, k)

	b.Run("dense", func(b *testing.B) {
		var v Vector
		for i := 0; i < b.N; i++ {
			v.CopyFrom(residual)
			v.AndCount(slice)
		}
	})
	b.Run("summary", func(b *testing.B) {
		sr := residual.Clone()
		sr.Summarize()
		var v Vector
		for i := 0; i < b.N; i++ {
			v.CopyFrom(sr)
			v.AndCount(slice)
		}
	})
}

// The identity the mining enumeration rests on: with P a node's residual,
// R_i = P ∧ slices(i) and R_j = P ∧ slices(j), AND-ing R_j into R_i gives
// exactly what AND-ing slices(j) into R_i gives — bits and count — because
// R_i ⊆ P. It must hold whatever mode either residual is in and whatever
// encoding the slices are stored under.
func TestSiblingResidualIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	chain := func(dst *Vector, slices []*Slice) int {
		c := dst.Count()
		for _, s := range slices {
			c = s.AndCountInto(dst)
		}
		return c
	}
	for trial := 0; trial < 300; trial++ {
		n := 64 + rng.Intn(4096)
		parent := randomVector(rng, n, []float64{0.02, 0.3, 1}[rng.Intn(3)])
		item := func() []*Slice {
			out := make([]*Slice, 1+rng.Intn(4))
			for k := range out {
				v := randomVector(rng, n, []float64{0.01, 0.2, 0.7}[rng.Intn(3)])
				out[k] = DenseSliceOf(v).Recompress(n, rng.Intn(2) == 0)
			}
			return out
		}
		si, sj := item(), item()
		ri, rj := parent.Clone(), parent.Clone()
		chain(ri, si)
		chain(rj, sj)

		want := ri.Clone()
		wantCount := chain(want, sj)

		for mode := 0; mode < 4; mode++ {
			a, b := ri.Clone(), rj.Clone()
			if mode&1 != 0 {
				a.Summarize()
			}
			if mode&2 != 0 {
				b.Summarize()
			}
			got := New(0)
			got.CopyFrom(a)
			if c := got.AndCount(b); c != wantCount {
				t.Fatalf("trial %d mode %d: residual AND counts %d, slice chain %d", trial, mode, c, wantCount)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d mode %d: residual AND and slice chain leave different bits", trial, mode)
			}
			checkSummary(t, got)
			if !b.Equal(rj) {
				t.Fatalf("trial %d mode %d: the sibling operand was written", trial, mode)
			}
		}
	}
}
