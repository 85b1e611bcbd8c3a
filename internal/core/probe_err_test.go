package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"bbsmine/internal/txdb"
)

var errFetch = errors.New("injected fetch failure")

// failingStore is a Store whose k-th Get (1-based, counted across every
// goroutine) fails; k = 0 never fails and just counts.
type failingStore struct {
	txdb.Store
	k    int64
	gets atomic.Int64
}

func (s *failingStore) Get(pos int) (txdb.Transaction, error) {
	if s.gets.Add(1) == s.k {
		return txdb.Transaction{}, errFetch
	}
	return s.Store.Get(pos)
}

// probeDB is a random database whose item 0 sits in at least every other
// transaction: item 0 is the first level-1 seed, and its residual is dense
// enough (≥ probeFanOutMin bits) that an SFP run with Workers > 1 probes it
// on the fan-out path, while Workers 1 probes it sequentially.
func probeDB() []txdb.Transaction {
	txs := randomDB(7, 1000, 8, 40)
	for i := 0; i < len(txs); i += 2 {
		txs[i] = txdb.NewTransaction(txs[i].TID, append([]int32{0}, txs[i].Items...))
	}
	return txs
}

// TestProbeFetchErrorFailsTheMine: a probe whose fetch fails must fail the
// mine rather than count the transaction as a non-match (which would lower
// the exact support and could prune a frequent subtree while still
// answering). The k-th fetch fails, early, midway or last, on the sequential
// and fan-out probe paths and in the adaptive mode's reverify pass; every
// run must end with an error wrapping the store's, no Result, and every
// pooled vector returned.
func TestProbeFetchErrorFailsTheMine(t *testing.T) {
	txs := probeDB()
	base, _ := buildMiner(t, txs, 128, 3)
	tau := 20
	for _, scheme := range []Scheme{SFP, DFP} {
		for _, workers := range []int{1, 4} {
			for _, budget := range []int64{0, 4 << 10} {
				cfg := Config{MinSupport: tau, Scheme: scheme, Workers: workers, MemoryBudget: budget}
				clean := &failingStore{Store: base.store}
				if _, err := (&Miner{idx: base.idx, store: clean, stats: base.stats}).Mine(cfg); err != nil {
					t.Fatalf("%s/workers=%d/budget=%d: clean mine: %v", scheme, workers, budget, err)
				}
				n := clean.gets.Load()
				if n == 0 {
					t.Fatalf("%s/workers=%d/budget=%d: the mine probed nothing; the test means nothing", scheme, workers, budget)
				}
				for _, k := range []int64{1, n / 2, n} {
					t.Run(fmt.Sprintf("%s/workers=%d/budget=%d/k=%d", scheme, workers, budget, k), func(t *testing.T) {
						miner := &Miner{idx: base.idx, store: &failingStore{Store: base.store, k: k}, stats: base.stats}
						res, err := miner.Mine(cfg)
						if !errors.Is(err, errFetch) || res != nil {
							t.Fatalf("Mine = (%v, %v), want no Result and an error wrapping %v", res != nil, err, errFetch)
						}
						if budget > 0 {
							return // the adaptive run's pool is internal to mineAdaptive
						}
						miner = &Miner{idx: base.idx, store: &failingStore{Store: base.store, k: k}, stats: base.stats}
						r := newRun(miner, miner.idx, cfg)
						r.filter()
						if !errors.Is(r.err, errFetch) {
							t.Fatalf("filter latched %v, want an error wrapping %v", r.err, errFetch)
						}
						if n := r.vecs.Outstanding(); n != 0 {
							t.Errorf("%d pooled vectors never came back", n)
						}
					})
				}
			}
		}
	}
}
