package sigfile

import (
	"math/rand"
	"testing"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/sighash"
)

// naiveCountInto is the seed's CountInto: live mask, then the itemset's
// slices in ascending position order, no popcount ordering. The rarest-first
// path must match it bit for bit.
func naiveCountInto(b *BBS, dst *bitvec.Vector, items []int32) int {
	dst.Grow(b.n)
	est := b.n
	if b.live != nil {
		dst.CopyFrom(b.live)
		est = b.Live()
	} else {
		dst.SetAll()
	}
	for _, p := range sighash.SignatureBits(b.hasher, items) {
		est = dst.AndCountZX(b.slices[p].Materialize())
		if est == 0 {
			break
		}
	}
	return est
}

// checkSliceOnes asserts the incremental per-slice popcounts against a
// recount of every slice.
func checkSliceOnes(t *testing.T, b *BBS) {
	t.Helper()
	for p, s := range b.slices {
		if got, want := b.sliceOnes[p], s.Materialize().Count(); got != want {
			t.Fatalf("sliceOnes[%d] = %d, recount says %d", p, got, want)
		}
		if got := s.Ones(); got != b.sliceOnes[p] {
			t.Fatalf("slice %d Ones() = %d, sliceOnes says %d", p, got, b.sliceOnes[p])
		}
	}
}

// randomIndex builds a BBS over random transactions and returns the
// transactions for later deletions.
func randomIndex(rng *rand.Rand, m, k, txns int) (*BBS, [][]int32) {
	idx := New(sighash.NewMD5(m, k), nil)
	txs := make([][]int32, txns)
	for i := range txs {
		txs[i] = randomItems(rng, 8, 500)
		idx.Insert(txs[i])
	}
	return idx, txs
}

// The maintained popcounts must survive inserts (including same-slice hash
// collisions), folds, and a save/load round trip.
func TestSliceOnesMaintained(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	idx, _ := randomIndex(rng, 64, 4, 300) // narrow m forces collisions
	checkSliceOnes(t, idx)

	folded, err := foldPart(idx, 16)
	if err != nil {
		t.Fatal(err)
	}
	checkSliceOnes(t, folded)

	path := t.TempDir() + "/idx.bbs"
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, idx.Hasher(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSliceOnes(t, loaded)
}

// OrderRarestFirst must sort by ascending popcount with position breaking
// ties, and must be a permutation of its input.
func TestOrderRarestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	idx, _ := randomIndex(rng, 128, 4, 200)
	for trial := 0; trial < 100; trial++ {
		pos := rng.Perm(128)[:1+rng.Intn(20)]
		before := append([]int(nil), pos...)
		idx.OrderRarestFirst(pos)
		if len(pos) != len(before) {
			t.Fatalf("length changed: %d -> %d", len(before), len(pos))
		}
		seen := map[int]bool{}
		for _, p := range before {
			seen[p] = true
		}
		for i, p := range pos {
			if !seen[p] {
				t.Fatalf("position %d not a permutation of the input", p)
			}
			if i == 0 {
				continue
			}
			a, b := pos[i-1], pos[i]
			if idx.sliceOnes[a] > idx.sliceOnes[b] ||
				(idx.sliceOnes[a] == idx.sliceOnes[b] && a > b) {
				t.Fatalf("pos[%d]=%d (ones %d) before pos[%d]=%d (ones %d)",
					i-1, a, idx.sliceOnes[a], i, b, idx.sliceOnes[b])
			}
		}
	}
}

// Rarest-first CountInto must return the same estimate and the same result
// vector as the naive ascending order, on fresh indexes, after deletions
// (live mask in play), and on folded MemBBS replicas.
func TestCountIntoRarestFirstMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	idx, txs := randomIndex(rng, 256, 4, 400)

	compare := func(t *testing.T, b *BBS) {
		t.Helper()
		got, want := bitvec.New(0), bitvec.New(0)
		var posBuf []int
		for trial := 0; trial < 200; trial++ {
			items := randomItems(rng, 5, 500)
			eg := b.CountIntoBuf(got, items, &posBuf)
			ew := naiveCountInto(b, want, items)
			if eg != ew {
				t.Fatalf("itemset %v: rarest-first est %d, naive est %d", items, eg, ew)
			}
			if !got.Equal(want) {
				t.Fatalf("itemset %v: result vectors differ", items)
			}
		}
	}

	t.Run("fresh", func(t *testing.T) { compare(t, idx) })

	for i := 0; i < 120; i++ { // tombstone ~30% of the rows
		pos := rng.Intn(len(txs))
		if idx.IsLive(pos) {
			if err := idx.Delete(pos, txs[pos]); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("post-delete", func(t *testing.T) { compare(t, idx) })

	folded, err := foldPart(idx, 48)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("folded", func(t *testing.T) { compare(t, folded) })
}

// CountInto (the allocating wrapper) must agree with CountIntoBuf.
func TestCountIntoWrapsBuf(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	idx, _ := randomIndex(rng, 128, 4, 150)
	a, b := bitvec.New(0), bitvec.New(0)
	var posBuf []int
	for trial := 0; trial < 50; trial++ {
		items := randomItems(rng, 4, 500)
		if ea, eb := idx.CountInto(a, items), idx.CountIntoBuf(b, items, &posBuf); ea != eb || !a.Equal(b) {
			t.Fatalf("itemset %v: CountInto %d vs CountIntoBuf %d", items, ea, eb)
		}
	}
}

// A result vector longer than the index — reused from a bigger one, say —
// comes back exactly the index's length, and the estimate is its popcount:
// no stale tail row survives, for the empty itemset (every live row) too,
// with and without deletions.
func TestCountPositionsSizesLongDst(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	idx, txs := randomIndex(rng, 128, 4, 150)
	var posBuf []int
	for _, deleted := range []bool{false, true} {
		if deleted {
			for _, pos := range []int{3, 40, 149} {
				if err := idx.Delete(pos, txs[pos]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, items := range [][]int32{nil, {}, randomItems(rng, 1, 500), randomItems(rng, 3, 500)} {
			dst := bitvec.New(idx.Len() + 130)
			dst.SetAll()
			posBuf = sighash.AppendSignatureBits(posBuf[:0], idx.hasher, items)
			est := idx.CountPositions(dst, posBuf)
			if dst.Len() != idx.Len() || est != dst.Count() {
				t.Fatalf("deleted=%v, itemset %v: dst has %d bits and %d set, estimate %d; the index has %d rows",
					deleted, items, dst.Len(), dst.Count(), est, idx.Len())
			}
		}
	}
}
