package bbsmine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bbsmine/internal/sighash"
)

// countRow is the brute-force model of one stored transaction.
type countRow struct {
	tid   int64
	items []int32
	live  bool
}

// bruteCount answers Count and CountConstrained by scanning the model: the
// estimate is the live (and, with a predicate, admitted) rows whose
// signature covers every position of the itemset's, the exact count those
// that contain the itemset. A repeated item counts once.
func bruteCount(h sighash.Hasher, rows []countRow, items []int32, pred func(tid int64) bool) (est, exact int) {
	set := slices.Clone(items)
	slices.Sort(set)
	set = slices.Compact(set)
	want := sighash.SignatureBits(h, set)
	sig := make([]bool, h.M())
	for _, r := range rows {
		if !r.live || (pred != nil && !pred(r.tid)) {
			continue
		}
		clear(sig)
		for _, it := range r.items {
			for _, p := range h.Positions(it) {
				sig[p] = true
			}
		}
		covered := true
		for _, p := range want {
			covered = covered && sig[p]
		}
		if !covered {
			continue
		}
		est++
		contains := true
		for _, it := range set {
			contains = contains && slices.Contains(r.items, it)
		}
		if contains {
			exact++
		}
	}
	return est, exact
}

// randomQueries draws itemsets of 0–4 items: mostly from the alphabet,
// some never indexed (at and above it), some with an item repeated, and
// some a stored row's prefix so that the probes have matches to find.
func randomQueries(rng *rand.Rand, rows []countRow, alphabet, n int) [][]int32 {
	qs := [][]int32{nil, {}}
	for len(qs) < n {
		var q []int32
		if r := rows[rng.Intn(len(rows))]; rng.Intn(3) == 0 {
			q = slices.Clone(r.items[:1+rng.Intn(min(3, len(r.items)))])
		} else {
			for k := rng.Intn(5); k > 0; k-- {
				q = append(q, int32(rng.Intn(alphabet+4)))
			}
		}
		if len(q) > 0 && rng.Intn(4) == 0 {
			q = append(q, q[rng.Intn(len(q))])
		}
		rng.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
		qs = append(qs, q)
	}
	return qs
}

// TestCountMatchesBruteForce checks Count and CountConstrained against a
// scan of the stored rows over random itemsets — empty, repeated and
// never-seen items included — for 1, 2 and 4 shards, resident, compressed
// and tiered, as built and after deletes, after appends and (one shard)
// after a Compact. The same database answers every phase, so its reused
// count scratch sees the shards grow and, at the Compact, shrink.
func TestCountMatchesBruteForce(t *testing.T) {
	const m, k, alphabet = 128, 3, 30
	h := sighash.NewMD5(m, k)
	for _, shards := range []int{1, 2, 4} {
		for _, storage := range []string{"resident", "compressed", "tiered"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, storage), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(40 + shards)))
				db, err := Open(t.TempDir(), Options{M: m, K: k, Shards: shards, Compress: storage == "compressed"})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				var rows []countRow
				appendRows := func(n int) {
					for i := 0; i < n; i++ {
						items := make([]int32, 1+rng.Intn(7))
						for j := range items {
							items[j] = int32(rng.Intn(alphabet))
						}
						tid := int64(len(rows) + 1)
						if err := db.Append(tid, items); err != nil {
							t.Fatal(err)
						}
						_, stored, err := db.Get(len(rows))
						if err != nil {
							t.Fatal(err)
						}
						rows = append(rows, countRow{tid: tid, items: stored, live: true})
					}
				}
				tier := func() {
					if storage != "tiered" {
						return
					}
					if err := db.Tier(8<<10, "", nil); err != nil {
						t.Fatal(err)
					}
					if ts := db.TierStats(); ts.SlicesCold == 0 {
						t.Fatalf("no cold slices: %+v", ts)
					}
				}
				check := func(phase string) {
					t.Helper()
					admit := make(map[int64]bool)
					for _, r := range rows {
						admit[r.tid] = rng.Intn(3) == 0
					}
					pred := func(tid int64) bool { return admit[tid] }
					c, err := db.NewConstraint(pred)
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range randomQueries(rng, rows, alphabet, 60) {
						est, exact, err := db.Count(q)
						if err != nil {
							t.Fatalf("%s: Count(%v): %v", phase, q, err)
						}
						if we, wx := bruteCount(h, rows, q, nil); est != we || exact != wx {
							t.Fatalf("%s: Count(%v) = %d/%d, brute force %d/%d", phase, q, est, exact, we, wx)
						}
						est, exact, err = db.CountConstrained(q, c)
						if err != nil {
							t.Fatalf("%s: CountConstrained(%v): %v", phase, q, err)
						}
						if we, wx := bruteCount(h, rows, q, pred); est != we || exact != wx {
							t.Fatalf("%s: CountConstrained(%v) = %d/%d, brute force %d/%d", phase, q, est, exact, we, wx)
						}
					}
				}

				appendRows(1200)
				tier()
				check("built")
				for i := 0; i < 40; i++ {
					pos := rng.Intn(len(rows))
					if !rows[pos].live {
						continue
					}
					if err := db.Delete(pos); err != nil {
						t.Fatal(err)
					}
					rows[pos].live = false
				}
				check("deleted")
				appendRows(37)
				check("appended")
				if shards > 1 {
					return
				}
				if err := db.Untier(); err != nil {
					t.Fatal(err)
				}
				if err := db.Compact(); err != nil {
					t.Fatal(err)
				}
				rows = slices.DeleteFunc(rows, func(r countRow) bool { return !r.live })
				if db.Len() != len(rows) {
					t.Fatalf("after Compact: %d rows, model has %d", db.Len(), len(rows))
				}
				tier()
				check("compacted")
			})
		}
	}
}

// TestCountRepeatedItems checks that an itemset with a repeated item gets
// the answer of its deduplicated form, plain and constrained, sharded or
// not: an itemset is a set, and the probe must not look for an item twice.
func TestCountRepeatedItems(t *testing.T) {
	for _, shards := range []int{1, 2} {
		db := NewInMemory(Options{M: 128, K: 3, Shards: shards})
		for tid := int64(0); tid < 20; tid++ {
			if err := db.Append(tid, []int32{1, 5, 9}); err != nil {
				t.Fatal(err)
			}
		}
		c, err := db.NewConstraint(func(tid int64) bool { return tid%2 == 0 })
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range [][2][]int32{
			{{5, 5}, {5}},
			{{9, 1, 9, 1}, {1, 9}},
			{{5, 7, 5}, {5, 7}},
		} {
			repeated, set := q[0], q[1]
			est, exact, err := db.Count(repeated)
			if err != nil {
				t.Fatal(err)
			}
			wantEst, wantExact, err := db.Count(set)
			if err != nil {
				t.Fatal(err)
			}
			if est != wantEst || exact != wantExact {
				t.Errorf("shards=%d: Count(%v) = %d/%d, Count(%v) = %d/%d", shards, repeated, est, exact, set, wantEst, wantExact)
			}
			est, exact, err = db.CountConstrained(repeated, c)
			if err != nil {
				t.Fatal(err)
			}
			wantEst, wantExact, err = db.CountConstrained(set, c)
			if err != nil {
				t.Fatal(err)
			}
			if est != wantEst || exact != wantExact {
				t.Errorf("shards=%d: CountConstrained(%v) = %d/%d, CountConstrained(%v) = %d/%d", shards, repeated, est, exact, set, wantEst, wantExact)
			}
		}
		if est, exact, err := db.Count([]int32{5, 5}); err != nil || est != 20 || exact != 20 {
			t.Errorf("shards=%d: Count([5 5]) = %d/%d (%v), want 20/20", shards, est, exact, err)
		}
	}
}

// TestCountAllocsZero pins the ad-hoc count's steady state: once a query
// has been answered, answering it again — plain or constrained — allocates
// nothing, sharded or not.
func TestCountAllocsZero(t *testing.T) {
	for _, shards := range []int{1, 2} {
		db := NewInMemory(Options{M: 256, K: 4, Shards: shards})
		fillRandom(t, db, 9, 2000, 8, 60)
		c, err := db.NewConstraint(func(tid int64) bool { return tid%7 == 0 })
		if err != nil {
			t.Fatal(err)
		}
		q := []int32{3, 11}
		if _, exact, err := db.Count(q); err != nil || exact == 0 {
			t.Fatalf("Count(%v): exact %d, %v; want matches to probe", q, exact, err)
		}
		if _, _, err := db.CountConstrained(q, c); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(50, func() { _, _, _ = db.Count(q) }); a != 0 {
			t.Errorf("shards=%d: warm Count allocates %v times per call", shards, a)
		}
		if a := testing.AllocsPerRun(50, func() { _, _, _ = db.CountConstrained(q, c) }); a != 0 {
			t.Errorf("shards=%d: warm CountConstrained allocates %v times per call", shards, a)
		}
	}
}

// TestCountChargesOneShard pins the accounting of an unsharded count to the
// figure drivers' core.Miner path over the same rows: the same slice-read
// pages, ANDs, count calls and probes, plain and constrained. (With N
// shards a constrained count charges per shard, as a plain one does.)
func TestCountChargesOneShard(t *testing.T) {
	build := func() *Database {
		db := NewInMemory(Options{M: 256, K: 4})
		fillRandom(t, db, 9, 3000, 8, 60)
		if err := db.Delete(70); err != nil {
			t.Fatal(err)
		}
		return db
	}
	facade, bound := build(), build()
	pred := func(tid int64) bool { return tid%7 == 0 }
	c, err := facade.NewConstraint(pred)
	if err != nil {
		t.Fatal(err)
	}
	m, err := bound.miner()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := bound.NewConstraint(pred)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]int32{{3, 11}, {1}, {5, 9, 40}, {59, 58}, nil, {70}} {
		for _, constrained := range []bool{false, true} {
			facade.ResetStats()
			bound.ResetStats()
			var e1, x1, e2, x2 int
			var err1, err2 error
			if constrained {
				e1, x1, err1 = facade.CountConstrained(q, c)
				e2, x2, err2 = m.CountConstrained(q, mc.vec)
			} else {
				e1, x1, err1 = facade.Count(q)
				e2, x2, err2 = m.Count(q)
			}
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if e1 != e2 || x1 != x2 {
				t.Errorf("constrained %t, %v: Database %d/%d, Miner %d/%d", constrained, q, e1, x1, e2, x2)
			}
			if s1, s2 := facade.Stats(), bound.Stats(); s1 != s2 {
				t.Errorf("constrained %t, %v: Database charged %+v, Miner %+v", constrained, q, s1, s2)
			}
		}
	}
}
