package sigfile

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/obs"
	"bbsmine/internal/pager"
	"bbsmine/internal/sighash"
)

// viewOf binds b alone, the way an unsharded mine does.
func viewOf(t testing.TB, b *BBS) *View {
	t.Helper()
	v, err := NewView([]*BBS{b})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// foldPart folds b the way a mine does — through a view of one part — and
// returns the folded part.
func foldPart(b *BBS, keep int) (*BBS, error) {
	v, err := NewView([]*BBS{b})
	if err != nil {
		return nil, err
	}
	fv, err := v.Fold(keep)
	if err != nil {
		return nil, err
	}
	return fv.parts[0], nil
}

// reencode replaces every slice of b with the same bits under enc, whatever
// the size rule would have picked — the view must read any mix.
func reencode(t *testing.T, b *BBS, enc bitvec.Encoding) {
	t.Helper()
	for p, s := range b.slices {
		v := s.Materialize()
		v.Grow(b.n)
		r := bitvec.DenseSliceOf(v)
		if enc == bitvec.EncSparse {
			var pos []uint32
			v.ForEachSet(func(i int) bool {
				pos = append(pos, uint32(i))
				return true
			})
			var err error
			if r, err = bitvec.SliceFromPositions(pos, b.n); err != nil {
				t.Fatalf("slice %d as %v: %v", p, enc, err)
			}
		}
		b.slices[p] = r
	}
}

// TestViewMatchesSingleIndex is the view's differential: parts of 0, 1, 63,
// 64, 65 and 130 rows — an empty part, word-boundary straddles, lengths
// nowhere near one row of each other — under every slice storage, with
// tombstones, must agree with one index built over the concatenated rows and
// with a brute-force scan: statistics, live mask, estimates, result vectors,
// folds.
func TestViewMatchesSingleIndex(t *testing.T) {
	lens := []int{0, 1, 63, 64, 65, 130}
	dead := map[int][]int{2: {0, 62}, 3: {63}, 5: {64, 65, 129}} // part -> local rows
	h := sighash.NewFNV(96, 3)
	encs := []bitvec.Encoding{bitvec.EncDense, bitvec.EncSparse}

	storages := []string{"dense", "sparse", "mixed", "cold"}
	for _, storage := range storages {
		t.Run(storage, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			var rows [][]int32
			var live []bool
			ref := New(h, nil)
			parts := make([]*BBS, len(lens))
			for s, n := range lens {
				parts[s] = New(h, nil)
				for i := 0; i < n; i++ {
					items := randomItems(rng, 6, 40)
					if s == 4 && i == 7 {
						items = []int32{1, 2, 3, 4, 5, 6, 7, 8, 9} // the widest row sits mid-view
					}
					parts[s].Insert(items)
					ref.Insert(items)
					rows, live = append(rows, items), append(live, true)
				}
			}
			off := 0
			for s, n := range lens {
				for _, local := range dead[s] {
					if err := parts[s].Delete(local, rows[off+local]); err != nil {
						t.Fatal(err)
					}
					if err := ref.Delete(off+local, rows[off+local]); err != nil {
						t.Fatal(err)
					}
					live[off+local] = false
				}
				off += n
			}
			for s, p := range parts {
				switch storage {
				case "sparse":
					reencode(t, p, bitvec.EncSparse)
				case "mixed":
					reencode(t, p, encs[s%len(encs)])
				case "cold":
					reencode(t, p, encs[s%len(encs)])
					pg := pager.New(2 * pager.PageSize)
					if err := p.Tier(pg, filepath.Join(t.TempDir(), fmt.Sprintf("part-%d.cold", s)), 0, nil); err != nil {
						t.Fatal(err)
					}
					defer func() { _ = p.Untier() }()
					if _, cold := p.TierCensus(); cold == 0 && p.Len() > 0 {
						t.Fatalf("part %d stayed resident under a zero hot budget", s)
					}
				}
			}

			v, err := NewView(parts)
			if err != nil {
				t.Fatal(err)
			}
			contains := func(pos int, items []int32) bool { return live[pos] && containsAll(rows[pos], items) }
			brute := func(items []int32) int {
				n := 0
				for pos := range rows {
					if contains(pos, items) {
						n++
					}
				}
				return n
			}

			if v.Len() != ref.Len() || v.Live() != ref.Live() || v.Live() != len(rows)-6 {
				t.Fatalf("len/live = %d/%d, single index %d/%d", v.Len(), v.Live(), ref.Len(), ref.Live())
			}
			if v.MaxTransactionItems() != viewOf(t, ref).MaxTransactionItems() || v.MaxTransactionItems() != 9 {
				t.Errorf("MaxTransactionItems = %d, single index %d", v.MaxTransactionItems(), viewOf(t, ref).MaxTransactionItems())
			}
			if v.SliceBytes() != ref.SliceBytes() || v.TotalBytes() != ref.TotalBytes() || v.AverageSignatureBits() != viewOf(t, ref).AverageSignatureBits() {
				t.Errorf("bytes/density = %d/%d/%v, single index %d/%d/%v", v.SliceBytes(), v.TotalBytes(), v.AverageSignatureBits(),
					ref.SliceBytes(), ref.TotalBytes(), viewOf(t, ref).AverageSignatureBits())
			}
			for p := 0; p < v.M(); p++ {
				if v.sliceOnes[p] != ref.sliceOnes[p] {
					t.Fatalf("slice %d: summed popcount %d, single index %d", p, v.sliceOnes[p], ref.sliceOnes[p])
				}
			}
			if !reflect.DeepEqual(v.Items(), ref.Items()) {
				t.Fatalf("item universe %v, single index %v", v.Items(), ref.Items())
			}
			for _, it := range v.Items() {
				if got := v.ExactCount(it); got != ref.ExactCount(it) || got != brute([]int32{it}) {
					t.Fatalf("item %d: exact count %d, single index %d, scan %d", it, got, ref.ExactCount(it), brute([]int32{it}))
				}
			}
			if !v.NewResult().Equal(ref.NewResult()) {
				t.Fatal("live mask differs from the single index's")
			}
			for pos := range rows {
				if v.IsLive(pos) != live[pos] {
					t.Fatalf("IsLive(%d) = %v", pos, v.IsLive(pos))
				}
			}
			if v.IsLive(-1) || v.IsLive(len(rows)) {
				t.Error("out-of-range rows reported live")
			}

			// Chains: estimates and block-order result vectors, one-shot and
			// through reused scratch, observed.
			// The observed reference is the same chain over a view of the single
			// index: one part, so one kernel per position.
			reg, refReg, one := obs.New(), obs.New(), viewOf(t, ref)
			v.SetObserver(reg)
			one.SetObserver(refReg)
			oneAccs, oneDst := one.NewAccs(), bitvec.New(one.Len())
			var oneBuf []int
			accs, dst, refDst := v.NewAccs(), bitvec.New(v.Len()), bitvec.New(0)
			var posBuf, refBuf []int
			for trial := 0; trial < 80; trial++ {
				items := randomItems(rng, 1+rng.Intn(3), 40)
				est := v.CountIntoBuf(dst, accs, items, &posBuf)
				if want := ref.CountIntoBuf(refDst, items, &refBuf); est != want || !dst.Equal(refDst) {
					t.Fatalf("%v: estimate %d, single index %d; vectors equal: %v", items, est, want, dst.Equal(refDst))
				}
				if est < brute(items) {
					t.Fatalf("%v: estimate %d undercounts the scan's %d", items, est, brute(items))
				}
				for pos := range rows {
					if contains(pos, items) && !dst.Get(pos) {
						t.Fatalf("%v: row %d contains the itemset but its bit is clear", items, pos)
					}
				}
				if e1 := one.CountIntoBuf(oneDst, oneAccs, items, &oneBuf); e1 != est || !oneDst.Equal(dst) {
					t.Fatalf("%v: a view of the single index estimates %d, the parts %d", items, e1, est)
				}
			}
			v.SetObserver(nil)
			// Position-major with the summed exit stops where the single index
			// stops; the per-AND tallies count one kernel per part instead.
			k, rk := reg.Metrics().Kernel, refReg.Metrics().Kernel
			if k.Evals != rk.Evals || k.EarlyExits != rk.EarlyExits || k.Evals == 0 {
				t.Errorf("evals/early exits = %d/%d, single index %d/%d", k.Evals, k.EarlyExits, rk.Evals, rk.EarlyExits)
			}
			if got, want := k.AndsDense+k.AndsSparse, int64(len(parts))*(rk.AndsDense+rk.AndsSparse); got != want {
				t.Errorf("%d kernel ANDs tallied, want %d (one per part per position)", got, want)
			}
			if !reflect.DeepEqual(reg.SliceTouches(), refReg.SliceTouches()) {
				t.Error("slice touches differ from the single index's")
			}

			// Split and Join are inverses over the block layout.
			x := bitvec.New(v.Len())
			for pos := 0; pos < v.Len(); pos++ {
				if rng.Intn(3) == 0 {
					x.Set(pos)
				}
			}
			v.Split(accs, x)
			v.Join(dst, accs)
			if !dst.Equal(x) {
				t.Fatal("Join(Split(x)) != x")
			}

			// OR is per row, so folding the parts is folding the single index.
			fv, err := v.Fold(24)
			if err != nil {
				t.Fatal(err)
			}
			fref, err := foldPart(ref, 24)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 30; trial++ {
				items := randomItems(rng, 1+rng.Intn(3), 40)
				est, vec := fv.CountItemSet(items)
				if want, wvec := fref.CountItemSet(items); est != want || !vec.Equal(wvec) {
					t.Fatalf("fold %v: estimate %d, single index %d", items, est, want)
				}
			}
			for p := 0; p < fv.M(); p++ {
				if fv.sliceOnes[p] != fref.sliceOnes[p] {
					t.Fatalf("folded slice %d: summed popcount %d, single index %d", p, fv.sliceOnes[p], fref.sliceOnes[p])
				}
			}
		})
	}
}

// TestViewChargesLikeSingleIndex: one logical AND per position and byte
// sizes from the global row count, so the paper's cost model sees the index
// it would see unsharded.
func TestViewChargesLikeSingleIndex(t *testing.T) {
	h := sighash.NewFNV(64, 2)
	rng := rand.New(rand.NewSource(9))
	ref := New(h, nil)
	parts := []*BBS{New(h, nil), New(h, nil), New(h, nil)}
	for s, n := range []int{70, 3, 41} {
		for i := 0; i < n; i++ {
			items := randomItems(rng, 5, 30)
			parts[s].Insert(items)
			ref.Insert(items)
		}
	}
	v, err := NewView(parts)
	if err != nil {
		t.Fatal(err)
	}
	items := []int32{3, 11}
	v.CountItemSet(items)
	v.ChargeFullRead()
	v.ChargeSliceReads(5)
	ref.CountItemSet(items)
	viewOf(t, ref).ChargeFullRead()
	ref.ChargeSliceReads(5)
	if got, want := v.Stats().Snapshot(), ref.Stats().Snapshot(); got != want {
		t.Errorf("view charged %+v, single index %+v", got, want)
	}
}

func TestNewViewValidation(t *testing.T) {
	if _, err := NewView(nil); err == nil {
		t.Error("view of zero parts accepted")
	}
	a := New(sighash.NewFNV(64, 2), nil)
	if _, err := NewView([]*BBS{a, New(sighash.NewFNV(128, 2), nil)}); err == nil {
		t.Error("view over mismatched m accepted")
	}
	if _, err := NewView([]*BBS{a, New(sighash.NewFNV(64, 3), nil)}); err == nil {
		t.Error("view over mismatched k accepted")
	}
}
