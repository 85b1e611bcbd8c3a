package bbsmine

import (
	"reflect"
	"testing"
)

// tieredBudget is deliberately tiny against the ~29 KiB of slice payload a
// 4000-row M=128 test index carries (58 non-empty slices of 500 bytes): the
// hot half holds 16 of them, the other 42 go cold — six packed pages
// unsharded, two per shard at Shards: 4 — and the frame pool left after the
// hot-tier reservation holds two pages, so AND chains fault and the CLOCK
// sweep must evict. The machinery is fully exercised, not idle. The
// fixtures are sized in thousands of rows for that reason: at a few hundred
// the whole packed cold tier fits one page and nothing is ever evicted.
const tieredBudget = 16 << 10

// tieredTau scales a support threshold tuned for a 400-row fixture to the
// row counts above, keeping the pattern lattice the same shape.
const tieredTau = 10

// tieredPair builds one resident and one tiered database over the same
// transactions, tombstones, shard count and compression setting. The tiered
// side is ranked by a real profiling mine — an observed DFP pass tallies
// per-slice AND participation — so the hot tier is the obs-driven split the
// production path uses, not the smallest-first fallback.
func tieredPair(t *testing.T, seed int64, n, shards int, compress bool, deletes []int) (*Database, *Database) {
	t.Helper()
	resident := NewInMemory(Options{M: 128, K: 3, Shards: shards, Compress: compress})
	txs := fillRandom(t, resident, seed, n, 7, 25)
	tiered := NewInMemory(Options{M: 128, K: 3, Shards: shards, Compress: compress})
	for _, tx := range txs {
		if err := tiered.Append(tx.TID, tx.Items); err != nil {
			t.Fatal(err)
		}
	}
	for _, pos := range deletes {
		if err := resident.Delete(pos); err != nil {
			t.Fatal(err)
		}
		if err := tiered.Delete(pos); err != nil {
			t.Fatal(err)
		}
	}

	profile := NewObserver()
	if _, err := tiered.Mine(MineOptions{MinSupportCount: 5 * tieredTau, Scheme: DFP, Observe: profile}); err != nil {
		t.Fatalf("profiling mine: %v", err)
	}
	if err := tiered.Tier(tieredBudget, t.TempDir(), profile.SliceTouches()); err != nil {
		t.Fatal(err)
	}
	if !tiered.Tiered() {
		t.Fatal("tiered database reports Tiered() == false")
	}
	if ts := tiered.TierStats(); ts.SlicesCold == 0 {
		t.Fatalf("no cold slices under a %d-byte budget: %+v", tieredBudget, ts)
	}
	return resident, tiered
}

// TestTieredMiningByteIdentical pins the tentpole invariant: mining over
// tiered storage — hot slices pinned, cold slices faulting page-at-a-time
// through a bounded buffer pool — returns a Result deeply equal to the
// resident baseline for every scheme, across worker and shard counts, with
// and without compression underneath. Tiering moves bytes, never bits: the
// cold headers keep the popcounts, so the rarest-first order, early exits
// and estimates are computed from the same values, and any drift here means
// a cold kernel produced different bits than its resident twin.
func TestTieredMiningByteIdentical(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			resident, tiered := tieredPair(t, 71, 4000, shards, compress, []int{3, 77, 150})
			for _, scheme := range []Scheme{SFS, SFP, DFS, DFP} {
				for _, workers := range []int{1, 4} {
					rr, err := resident.Mine(MineOptions{MinSupportCount: 5 * tieredTau, Scheme: scheme, Workers: workers})
					if err != nil {
						t.Fatalf("compress=%v shards=%d %v workers=%d resident: %v", compress, shards, scheme, workers, err)
					}
					rt, err := tiered.Mine(MineOptions{MinSupportCount: 5 * tieredTau, Scheme: scheme, Workers: workers})
					if err != nil {
						t.Fatalf("compress=%v shards=%d %v workers=%d tiered: %v", compress, shards, scheme, workers, err)
					}
					if !reflect.DeepEqual(rr, rt) {
						t.Errorf("compress=%v shards=%d %v workers=%d: tiered result differs from resident (%d vs %d patterns)",
							compress, shards, scheme, workers, len(rt.Patterns), len(rr.Patterns))
					}
				}
			}
			ts := tiered.TierStats()
			if ts.Faults == 0 {
				t.Errorf("compress=%v shards=%d: no pager faults after mining; the cold path never ran", compress, shards)
			}
			if ts.Evictions == 0 {
				t.Errorf("compress=%v shards=%d: no evictions under a %d-byte budget; the pool was never under pressure (faults=%d)",
					compress, shards, tieredBudget, ts.Faults)
			}
		}
	}
}

// TestTieredConstrainedMiningMatches covers the constrained path over cold
// slices: the TID-predicate constraint vector ANDs against faulted payloads
// on both the fan-out and merged-view sides.
func TestTieredConstrainedMiningMatches(t *testing.T) {
	for _, shards := range []int{1, 4} {
		resident, tiered := tieredPair(t, 72, 3200, shards, false, nil)
		pred := func(tid int64) bool { return tid%3 != 0 }
		cr, err := resident.NewConstraint(pred)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := tiered.NewConstraint(pred)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []Scheme{SFS, SFP} {
			rr, err := resident.MineConstrained(MineOptions{MinSupportCount: 4 * tieredTau, Scheme: scheme, Workers: 4}, cr)
			if err != nil {
				t.Fatalf("shards=%d %v resident: %v", shards, scheme, err)
			}
			rt, err := tiered.MineConstrained(MineOptions{MinSupportCount: 4 * tieredTau, Scheme: scheme, Workers: 4}, ct)
			if err != nil {
				t.Fatalf("shards=%d %v tiered: %v", shards, scheme, err)
			}
			if !reflect.DeepEqual(rr, rt) {
				t.Errorf("shards=%d %v: constrained tiered result differs from resident", shards, scheme)
			}
		}
	}
}

// TestTieredCountsMatch checks ad-hoc Count/CountWhere parity over cold
// slices, and that Untier thaws everything back without changing an answer
// (the Tier round trip).
func TestTieredCountsMatch(t *testing.T) {
	resident, tiered := tieredPair(t, 73, 2800, 4, true, []int{10})
	queries := [][]int32{{1}, {2, 5}, {7, 11, 13}, {24}}
	pred := func(tid int64) bool { return tid%7 != 0 }
	check := func(label string) {
		t.Helper()
		for _, q := range queries {
			er, xr, err := resident.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			et, xt, err := tiered.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			if er != et || xr != xt {
				t.Errorf("%s Count(%v): tiered est/exact = %d/%d, resident %d/%d", label, q, et, xt, er, xr)
			}
			er, xr, err = resident.CountWhere(q, pred)
			if err != nil {
				t.Fatal(err)
			}
			et, xt, err = tiered.CountWhere(q, pred)
			if err != nil {
				t.Fatal(err)
			}
			if er != et || xr != xt {
				t.Errorf("%s CountWhere(%v): tiered est/exact = %d/%d, resident %d/%d", label, q, et, xt, er, xr)
			}
		}
	}
	check("tiered")
	if err := tiered.Untier(); err != nil {
		t.Fatal(err)
	}
	if tiered.Tiered() {
		t.Fatal("Untier left the database tiered")
	}
	check("untiered")
}

// TestTieredWritesThaw pins the write discipline: appends and deletes on a
// tiered database thaw the slices they touch (mutation happens resident)
// and every post-write answer still matches a resident database seeing the
// same final state.
func TestTieredWritesThaw(t *testing.T) {
	resident, tiered := tieredPair(t, 74, 3000, 1, false, nil)
	extra := fillRandom(t, resident, 75, 400, 7, 25)
	for _, tx := range extra {
		if err := tiered.Append(tx.TID, tx.Items); err != nil {
			t.Fatal(err)
		}
	}
	for _, pos := range []int{5, 123} {
		if err := resident.Delete(pos); err != nil {
			t.Fatal(err)
		}
		if err := tiered.Delete(pos); err != nil {
			t.Fatal(err)
		}
	}
	for _, scheme := range []Scheme{SFS, DFP} {
		rr, err := resident.Mine(MineOptions{MinSupportCount: 5 * tieredTau, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := tiered.Mine(MineOptions{MinSupportCount: 5 * tieredTau, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rr, rt) {
			t.Errorf("%v: post-write tiered result differs from resident", scheme)
		}
	}
}
