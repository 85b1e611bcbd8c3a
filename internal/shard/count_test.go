package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/quest"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// countingHasher counts Positions calls, so a test can pin how many times
// a count hashes its items.
type countingHasher struct {
	sighash.Hasher
	calls int
}

func (h *countingHasher) Positions(it int32) []int {
	h.calls++
	return h.Hasher.Positions(it)
}

// distinctItems returns how many distinct items q holds.
func distinctItems(q []int32) int {
	set := slices.Clone(q)
	slices.Sort(set)
	return len(slices.Compact(set))
}

// tidConstraint splits a "TID divisible by mod" constraint by shard: block
// s marks shard s's local positions, as CountConstrained takes it.
func tidConstraint(tb testing.TB, db *DB, mod int64) []*bitvec.Vector {
	tb.Helper()
	cons := make([]*bitvec.Vector, db.Shards())
	for s := range cons {
		cons[s] = bitvec.New(db.Index().Part(s).Len())
		if err := db.Store(s).Scan(func(pos int, tx txdb.Transaction) bool {
			if tx.TID%mod == 0 {
				cons[s].Set(pos)
			}
			return true
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return cons
}

// TestCountHashesOnce pins the count preamble: however many shards answer,
// a call hashes each distinct item of the itemset once, plain or
// constrained.
func TestCountHashesOnce(t *testing.T) {
	for _, shards := range []int{1, 3} {
		h := &countingHasher{Hasher: sighash.NewMD5(128, 3)}
		db, err := NewMem(h, shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range genTxs(11, 90, 6, 20) {
			if err := db.Append(tx); err != nil {
				t.Fatal(err)
			}
		}
		cons := tidConstraint(t, db, 3)
		for _, q := range [][]int32{{4}, {7, 2, 7}, {3, 9, 14, 3, 9}, nil} {
			distinct := distinctItems(q)
			h.calls = 0
			if _, _, err := db.Count(q); err != nil {
				t.Fatal(err)
			}
			if h.calls != distinct {
				t.Errorf("shards=%d: Count(%v) hashed %d items, want %d", shards, q, h.calls, distinct)
			}
			h.calls = 0
			if _, _, err := db.CountConstrained(q, cons); err != nil {
				t.Fatal(err)
			}
			if h.calls != distinct {
				t.Errorf("shards=%d: CountConstrained(%v) hashed %d items, want %d", shards, q, h.calls, distinct)
			}
		}
	}
}

// TestCountConstrainedRejectsMismatch checks the constraint's shape is
// validated before any work: one block per shard, each the shard's length.
func TestCountConstrainedRejectsMismatch(t *testing.T) {
	db, err := NewMem(sighash.NewMD5(64, 2), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range genTxs(5, 9, 4, 10) {
		if err := db.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	for _, cons := range [][]*bitvec.Vector{
		{bitvec.New(9)},
		{bitvec.New(5), bitvec.New(5)},
	} {
		if _, _, err := db.CountConstrained([]int32{1}, cons); err == nil {
			t.Errorf("constraint of %d blocks accepted", len(cons))
		}
	}
}

// fig6DB indexes the paper's default workload, T10.I10.D10K over 10000
// items with m = 1600 and k = 4, over the given number of shards, and draws
// a query pool shaped like the benchmark's: four in five a transaction's
// 2–4 item prefix (the probe has matches to verify), one in five a pair of
// items from two unrelated transactions (the chain collapses early).
func fig6DB(b *testing.B, shards int) (*DB, [][]int32) {
	b.Helper()
	g, err := quest.NewGenerator(quest.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	txs := g.Generate()
	db, err := NewMem(sighash.NewMD5(1600, 4), shards, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, tx := range txs {
		if err := db.Append(tx); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	pick := func(atLeast int) []int32 {
		for {
			if tx := txs[rng.Intn(len(txs))]; len(tx.Items) >= atLeast {
				return tx.Items
			}
		}
	}
	pool := make([][]int32, 0, 500)
	for i := 0; len(pool) < cap(pool); i++ {
		if i%5 < 4 {
			k := 2 + (i/5)%3
			pool = append(pool, slices.Clone(pick(k)[:k]))
			continue
		}
		x, y := pick(1), pick(1)
		pool = append(pool, []int32{x[rng.Intn(len(x))], y[rng.Intn(len(y))]})
	}
	return db, pool
}

// BenchmarkCount times one ad-hoc Count over the fig6 index, cycling the
// query pool; BenchmarkCountConstrained adds a "TID divisible by 7"
// constraint. Both report allocations: a warm count allocates nothing.
func BenchmarkCount(b *testing.B) { benchmarkCount(b, false) }

func BenchmarkCountConstrained(b *testing.B) { benchmarkCount(b, true) }

func benchmarkCount(b *testing.B, constrained bool) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db, pool := fig6DB(b, shards)
			var cons []*bitvec.Vector
			if constrained {
				cons = tidConstraint(b, db, 7)
			}
			count := func(q []int32) {
				var err error
				if constrained {
					_, _, err = db.CountConstrained(q, cons)
				} else {
					_, _, err = db.Count(q)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, q := range pool {
				count(q)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				count(pool[i%len(pool)])
			}
		})
	}
}
