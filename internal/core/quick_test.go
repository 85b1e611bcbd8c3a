package core

import (
	"math/rand"
	"testing"

	"bbsmine/internal/mining"
	"bbsmine/internal/txdb"
)

// Randomized end-to-end property: for arbitrary small databases, arbitrary
// thresholds, arbitrary index geometry and every scheme, the mined itemset
// sets equal brute force, exact supports match, and estimated supports
// dominate. This is the single strongest correctness check in the suite.
func TestQuickAllSchemesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	schemes := []Scheme{SFS, SFP, DFS, DFP}
	for trial := 0; trial < 25; trial++ {
		n := 20 + rng.Intn(100)
		alphabet := 5 + rng.Intn(25)
		maxLen := 2 + rng.Intn(6)
		txs := make([]txdb.Transaction, n)
		for i := range txs {
			items := make([]int32, 1+rng.Intn(maxLen))
			for j := range items {
				items[j] = int32(rng.Intn(alphabet))
			}
			txs[i] = txdb.NewTransaction(int64(i+1), items)
		}
		tau := 2 + rng.Intn(5)
		m := []int{32, 64, 128, 256}[rng.Intn(4)]
		k := 1 + rng.Intn(4)
		scheme := schemes[rng.Intn(len(schemes))]

		want := mining.ToMap(mining.BruteForce(txs, tau))
		miner, _ := buildMiner(t, txs, m, k)
		res, err := miner.Mine(Config{MinSupport: tau, Scheme: scheme})
		if err != nil {
			t.Fatalf("trial %d (%s m=%d k=%d tau=%d): %v", trial, scheme, m, k, tau, err)
		}
		if len(res.Patterns) != len(want) {
			t.Fatalf("trial %d (%s m=%d k=%d tau=%d): %d patterns, want %d",
				trial, scheme, m, k, tau, len(res.Patterns), len(want))
		}
		for _, p := range res.Patterns {
			actual, ok := want[mining.Key(p.Items)]
			if !ok {
				t.Fatalf("trial %d: spurious pattern %v", trial, p.Items)
			}
			if p.Exact && p.Support != actual {
				t.Fatalf("trial %d: %v exact support %d, want %d", trial, p.Items, p.Support, actual)
			}
			if !p.Exact && p.Support < actual {
				t.Fatalf("trial %d: %v estimate %d under actual %d", trial, p.Items, p.Support, actual)
			}
		}
	}
}

// Randomized property for the adaptive path: arbitrary budgets never change
// the mined itemset set.
func TestQuickAdaptiveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 10; trial++ {
		n := 40 + rng.Intn(80)
		txs := make([]txdb.Transaction, n)
		for i := range txs {
			items := make([]int32, 1+rng.Intn(5))
			for j := range items {
				items[j] = int32(rng.Intn(15))
			}
			txs[i] = txdb.NewTransaction(int64(i+1), items)
		}
		tau := 3 + rng.Intn(3)
		want := mining.ToMap(mining.BruteForce(txs, tau))

		miner, _ := buildMiner(t, txs, 128, 3)
		budget := int64(1 + rng.Intn(int(miner.Index().TotalBytes())))
		scheme := []Scheme{SFS, SFP, DFS, DFP}[rng.Intn(4)]
		res, err := miner.Mine(Config{MinSupport: tau, Scheme: scheme, MemoryBudget: budget})
		if err != nil {
			t.Fatalf("trial %d (%s budget=%d): %v", trial, scheme, budget, err)
		}
		if len(res.Patterns) != len(want) {
			t.Fatalf("trial %d (%s budget=%d): %d patterns, want %d",
				trial, scheme, budget, len(res.Patterns), len(want))
		}
		for _, p := range res.Patterns {
			if _, ok := want[mining.Key(p.Items)]; !ok {
				t.Fatalf("trial %d: spurious pattern %v", trial, p.Items)
			}
		}
	}
}

// Randomized property for deletion: mining after arbitrary deletes equals
// brute force over the survivors, for every scheme.
func TestQuickDeletesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 10; trial++ {
		n := 40 + rng.Intn(60)
		txs := make([]txdb.Transaction, n)
		for i := range txs {
			items := make([]int32, 1+rng.Intn(5))
			for j := range items {
				items[j] = int32(rng.Intn(12))
			}
			txs[i] = txdb.NewTransaction(int64(i+1), items)
		}
		miner, _ := buildMiner(t, txs, 128, 3)
		var live []txdb.Transaction
		for pos, tx := range txs {
			if rng.Intn(3) == 0 {
				if err := miner.Index().Part(0).Delete(pos, tx.Items); err != nil {
					t.Fatal(err)
				}
			} else {
				live = append(live, tx)
			}
		}
		tau := 2 + rng.Intn(4)
		want := mining.ToMap(mining.BruteForce(live, tau))
		scheme := []Scheme{SFS, SFP, DFS, DFP}[rng.Intn(4)]
		res, err := miner.Mine(Config{MinSupport: tau, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Patterns) != len(want) {
			t.Fatalf("trial %d (%s): %d patterns after deletes, want %d",
				trial, scheme, len(res.Patterns), len(want))
		}
		for _, p := range res.Patterns {
			actual, ok := want[mining.Key(p.Items)]
			if !ok {
				t.Fatalf("trial %d: spurious %v", trial, p.Items)
			}
			if p.Exact && p.Support != actual {
				t.Fatalf("trial %d: %v support %d, want %d", trial, p.Items, p.Support, actual)
			}
		}
	}
}
