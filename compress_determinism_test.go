package bbsmine

import (
	"reflect"
	"testing"
)

// compressPair builds one dense and one compressed database with the same
// transactions, tombstones, and shard count. The compressed side mixes both
// slice encodings: M=128 over a 25-item alphabet leaves plenty of rare
// (sparse) columns next to the hot (dense) ones.
func compressPair(t *testing.T, seed int64, n, shards int, deletes []int) (*Database, *Database) {
	t.Helper()
	dense := NewInMemory(Options{M: 128, K: 3, Shards: shards})
	txs := fillRandom(t, dense, seed, n, 7, 25)
	comp := NewInMemory(Options{M: 128, K: 3, Shards: shards, Compress: true})
	for _, tx := range txs {
		if err := comp.Append(tx.TID, tx.Items); err != nil {
			t.Fatal(err)
		}
	}
	for _, pos := range deletes {
		if err := dense.Delete(pos); err != nil {
			t.Fatal(err)
		}
		if err := comp.Delete(pos); err != nil {
			t.Fatal(err)
		}
	}
	if !comp.Compressed() {
		t.Fatal("compressed database reports Compressed() == false")
	}
	return dense, comp
}

// TestCompressedMiningByteIdentical pins the compressed-kernel invariant:
// mining over adaptively compressed slices returns a Result deeply equal to
// the dense baseline — same patterns, same supports, same order — for every
// scheme, with and without the adaptive memory budget, across worker and
// shard counts. The kernels AND directly on the compressed forms, so any
// drift here means a kernel produced different bits than the dense sweep.
func TestCompressedMiningByteIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		dense, comp := compressPair(t, 61, 200, shards, []int{3, 77, 150})
		for _, scheme := range []Scheme{SFS, SFP, DFS, DFP} {
			for _, budget := range []int64{0, 4 << 10} {
				for _, workers := range []int{1, 4} {
					rd, err := dense.Mine(MineOptions{MinSupportCount: 5, Scheme: scheme, MemoryBudget: budget, Workers: workers})
					if err != nil {
						t.Fatalf("shards=%d %v budget=%d workers=%d dense: %v", shards, scheme, budget, workers, err)
					}
					rc, err := comp.Mine(MineOptions{MinSupportCount: 5, Scheme: scheme, MemoryBudget: budget, Workers: workers})
					if err != nil {
						t.Fatalf("shards=%d %v budget=%d workers=%d compressed: %v", shards, scheme, budget, workers, err)
					}
					if !reflect.DeepEqual(rd, rc) {
						t.Errorf("shards=%d %v budget=%d workers=%d: compressed result differs from dense (%d vs %d patterns)",
							shards, scheme, budget, workers, len(rc.Patterns), len(rd.Patterns))
					}
				}
			}
		}
	}
}

// TestCompressedConstrainedMiningMatches covers the constrained path over
// compressed slices: the TID-predicate constraint vector ANDs against mixed
// encodings on both the fan-out and merged-view sides.
func TestCompressedConstrainedMiningMatches(t *testing.T) {
	for _, shards := range []int{1, 4} {
		dense, comp := compressPair(t, 62, 160, shards, nil)
		pred := func(tid int64) bool { return tid%3 != 0 }
		cd, err := dense.NewConstraint(pred)
		if err != nil {
			t.Fatal(err)
		}
		cc, err := comp.NewConstraint(pred)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []Scheme{SFS, SFP} {
			rd, err := dense.MineConstrained(MineOptions{MinSupportCount: 4, Scheme: scheme, Workers: 4}, cd)
			if err != nil {
				t.Fatalf("shards=%d %v dense: %v", shards, scheme, err)
			}
			rc, err := comp.MineConstrained(MineOptions{MinSupportCount: 4, Scheme: scheme, Workers: 4}, cc)
			if err != nil {
				t.Fatalf("shards=%d %v compressed: %v", shards, scheme, err)
			}
			if !reflect.DeepEqual(rd, rc) {
				t.Errorf("shards=%d %v: constrained compressed result differs from dense", shards, scheme)
			}
		}
	}
}

// TestCompressedCountsMatch checks ad-hoc Count/CountWhere parity, and that
// flipping compression on a live database re-encodes without changing any
// answer (the SetCompression round trip).
func TestCompressedCountsMatch(t *testing.T) {
	dense, comp := compressPair(t, 63, 120, 4, []int{10})
	queries := [][]int32{{1}, {2, 5}, {7, 11, 13}, {24}}
	pred := func(tid int64) bool { return tid%7 != 0 }
	check := func(label string) {
		t.Helper()
		for _, q := range queries {
			ed, xd, err := dense.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			ec, xc, err := comp.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			if ed != ec || xd != xc {
				t.Errorf("%s Count(%v): compressed est/exact = %d/%d, dense %d/%d", label, q, ec, xc, ed, xd)
			}
			ed, xd, err = dense.CountWhere(q, pred)
			if err != nil {
				t.Fatal(err)
			}
			ec, xc, err = comp.CountWhere(q, pred)
			if err != nil {
				t.Fatal(err)
			}
			if ed != ec || xd != xc {
				t.Errorf("%s CountWhere(%v): compressed est/exact = %d/%d, dense %d/%d", label, q, ec, xc, ed, xd)
			}
		}
	}
	check("compressed")
	comp.SetCompression(false)
	check("decompressed")
	comp.SetCompression(true)
	check("recompressed")
}
