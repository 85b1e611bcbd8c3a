package bbsmine

// Benchmarks: one per figure of the paper's evaluation (Section 4), plus
// the ablations called out in DESIGN.md §5. Each figure benchmark runs a
// scaled-down instance of the corresponding experiment so `go test -bench`
// finishes in minutes; the bbsbench command regenerates the figures at full
// paper scale.
//
// Benchmarks report wall time only. The synthetic I/O charge that the
// figures add (see internal/iostat) is reported by bbsbench, not here —
// testing.B measures what actually runs.

import (
	"fmt"
	"testing"

	"bbsmine/internal/apriori"
	"bbsmine/internal/core"
	"bbsmine/internal/fptree"
	"bbsmine/internal/iostat"
	"bbsmine/internal/mining"
	"bbsmine/internal/quest"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
	"bbsmine/internal/weblog"
)

// benchDataset generates (and memoizes per parameters) a Quest workload.
var benchCache = map[string][]txdb.Transaction{}

func benchDataset(b *testing.B, d, v, t int) []txdb.Transaction {
	b.Helper()
	key := fmt.Sprintf("%d/%d/%d", d, v, t)
	if txs, ok := benchCache[key]; ok {
		return txs
	}
	cfg := quest.DefaultConfig()
	cfg.D, cfg.N, cfg.T = d, v, t
	g, err := quest.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	txs := g.Generate()
	benchCache[key] = txs
	return txs
}

// benchMiner builds a BBS miner over the transactions.
func benchMiner(b *testing.B, txs []txdb.Transaction, m, k int) *core.Miner {
	b.Helper()
	var stats iostat.Stats
	store, err := txdb.NewMemStoreFrom(&stats, txs)
	if err != nil {
		b.Fatal(err)
	}
	idx := sigfile.New(sighash.NewMD5(m, k), &stats)
	for _, tx := range txs {
		idx.Insert(tx.Items)
	}
	miner, err := core.NewMiner(idx, store, &stats)
	if err != nil {
		b.Fatal(err)
	}
	return miner
}

const (
	benchD   = 2000
	benchV   = 2000
	benchM   = 800
	benchK   = 4
	benchTau = 0.003
)

func benchTauCount(n int) int { return mining.MinSupportCount(benchTau, n) }

// BenchmarkFig5 — effect of the signature width m on the four BBS schemes.
func BenchmarkFig5(b *testing.B) {
	txs := benchDataset(b, benchD, benchV, 10)
	tau := benchTauCount(len(txs))
	for _, m := range []int{400, 1600, 6400} {
		for _, scheme := range []core.Scheme{core.SFS, core.DFS, core.SFP, core.DFP} {
			b.Run(fmt.Sprintf("m=%d/%s", m, scheme), func(b *testing.B) {
				miner := benchMiner(b, txs, m, benchK)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := miner.Mine(core.Config{MinSupport: tau, Scheme: scheme}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6 — all six schemes on the default settings.
func BenchmarkFig6(b *testing.B) {
	txs := benchDataset(b, benchD, benchV, 10)
	tau := benchTauCount(len(txs))

	for _, scheme := range []core.Scheme{core.SFS, core.DFS, core.SFP, core.DFP} {
		b.Run(scheme.String(), func(b *testing.B) {
			miner := benchMiner(b, txs, benchM, benchK)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := miner.Mine(core.Config{MinSupport: tau, Scheme: scheme}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("APS", func(b *testing.B) {
		store, _ := txdb.NewMemStoreFrom(nil, txs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := apriori.Mine(store, apriori.Config{MinSupport: tau}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FPS", func(b *testing.B) {
		store, _ := txdb.NewMemStoreFrom(nil, txs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fptree.Mine(store, fptree.Config{MinSupport: tau}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWorkersSweep — the parallel engine at 1/2/4/8 workers, every BBS
// scheme, on the default workload. The Result is identical at every worker
// count (the engine is deterministic); the benchmark measures pure wall
// scaling, so speedups only appear on hosts with GOMAXPROCS > 1.
func BenchmarkWorkersSweep(b *testing.B) {
	txs := benchDataset(b, benchD, benchV, 10)
	tau := benchTauCount(len(txs))

	for _, scheme := range []core.Scheme{core.SFS, core.DFS, core.SFP, core.DFP} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", scheme, workers), func(b *testing.B) {
				miner := benchMiner(b, txs, benchM, benchK)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := miner.Mine(core.Config{MinSupport: tau, Scheme: scheme, Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig7 — effect of the minimum support threshold on DFP and APS.
func BenchmarkFig7(b *testing.B) {
	txs := benchDataset(b, benchD, benchV, 10)
	for _, frac := range []float64{0.002, 0.003, 0.006, 0.012} {
		tau := mining.MinSupportCount(frac, len(txs))
		if tau < 2 {
			tau = 2
		}
		b.Run(fmt.Sprintf("tau=%.1f%%/DFP", frac*100), func(b *testing.B) {
			miner := benchMiner(b, txs, benchM, benchK)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := miner.Mine(core.Config{MinSupport: tau, Scheme: core.DFP}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("tau=%.1f%%/APS", frac*100), func(b *testing.B) {
			store, _ := txdb.NewMemStoreFrom(nil, txs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := apriori.Mine(store, apriori.Config{MinSupport: tau}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8 — scalability in the number of transactions.
func BenchmarkFig8(b *testing.B) {
	for _, d := range []int{1000, 2000, 4000} {
		txs := benchDataset(b, d, benchV, 10)
		tau := benchTauCount(len(txs))
		b.Run(fmt.Sprintf("D=%d/DFP", d), func(b *testing.B) {
			miner := benchMiner(b, txs, benchM, benchK)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := miner.Mine(core.Config{MinSupport: tau, Scheme: core.DFP}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9 — effect of the number of distinct items.
func BenchmarkFig9(b *testing.B) {
	for _, v := range []int{1000, 2000, 8000} {
		txs := benchDataset(b, benchD, v, 10)
		tau := benchTauCount(len(txs))
		b.Run(fmt.Sprintf("V=%d/DFP", v), func(b *testing.B) {
			miner := benchMiner(b, txs, benchM, benchK)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := miner.Mine(core.Config{MinSupport: tau, Scheme: core.DFP}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10 — effect of the average transaction size.
func BenchmarkFig10(b *testing.B) {
	for _, t := range []int{10, 20, 30} {
		txs := benchDataset(b, benchD, benchV, t)
		tau := benchTauCount(len(txs))
		b.Run(fmt.Sprintf("T=%d/DFP", t), func(b *testing.B) {
			miner := benchMiner(b, txs, benchM, benchK)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := miner.Mine(core.Config{MinSupport: tau, Scheme: core.DFP}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11 — effect of the memory budget (adaptive filtering and
// baseline degradation).
func BenchmarkFig11(b *testing.B) {
	txs := benchDataset(b, benchD, benchV, 10)
	tau := benchTauCount(len(txs))
	miner := benchMiner(b, txs, benchM, benchK)
	full := miner.Index().TotalBytes()
	for _, frac := range []int64{8, 4, 2} {
		budget := full / frac
		b.Run(fmt.Sprintf("budget=1|%d/DFP", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := miner.Mine(core.Config{MinSupport: tau, Scheme: core.DFP, MemoryBudget: budget}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("budget=1|%d/APS", frac), func(b *testing.B) {
			store, _ := txdb.NewMemStoreFrom(nil, txs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := apriori.Mine(store, apriori.Config{MinSupport: tau, MemoryBudget: budget}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("budget=1|%d/FPS", frac), func(b *testing.B) {
			store, _ := txdb.NewMemStoreFrom(nil, txs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fptree.Mine(store, fptree.Config{MinSupport: tau, MemoryBudget: budget}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12 — dynamic database: one day's increment, DFP append+mine
// vs FPS rebuild vs APS rescan.
func BenchmarkFig12(b *testing.B) {
	cfg := weblog.DefaultConfig()
	cfg.Files = 500
	cfg.BaseTransactions = 2000
	cfg.IncrementTransactions = 400
	cfg.Days = 1
	w, err := weblog.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	full := append(append([]txdb.Transaction(nil), w.Base...), w.Increments[0]...)
	tau := mining.MinSupportCount(0.01, len(full))

	b.Run("DFP-incremental", func(b *testing.B) {
		// The base is already indexed; each iteration appends the increment
		// to a fresh copy and mines. Append cost is part of the story.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			miner := benchMiner(b, w.Base, benchM, benchK)
			b.StartTimer()
			for _, tx := range w.Increments[0] {
				if err := miner.Store().Append(tx); err != nil {
					b.Fatal(err)
				}
				miner.Index().Part(0).Insert(tx.Items)
			}
			m2, err := core.NewMiner(miner.Index().Part(0), miner.Store(), miner.Stats())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m2.Mine(core.Config{MinSupport: tau, Scheme: core.DFP}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FPS-rebuild", func(b *testing.B) {
		store, _ := txdb.NewMemStoreFrom(nil, full)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fptree.Mine(store, fptree.Config{MinSupport: tau}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("APS-rescan", func(b *testing.B) {
		store, _ := txdb.NewMemStoreFrom(nil, full)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := apriori.Mine(store, apriori.Config{MinSupport: tau}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig13 — ad-hoc queries: DFP index probe vs APS full scan.
func BenchmarkFig13(b *testing.B) {
	txs := benchDataset(b, benchD, benchV, 10)
	pattern := []txdb.Item{txs[0].Items[0], txs[0].Items[1]}

	b.Run("Q1/DFP", func(b *testing.B) {
		miner := benchMiner(b, txs, benchM, benchK)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := miner.Count(pattern); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Q1/APS", func(b *testing.B) {
		store, _ := txdb.NewMemStoreFrom(nil, txs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := apriori.CountOccurrences(store, pattern, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("Q2/DFP", func(b *testing.B) {
		miner := benchMiner(b, txs, benchM, benchK)
		constraint, err := core.BuildConstraint(miner.Store(), func(_ int, tx txdb.Transaction) bool {
			return tx.TID%7 == 0
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := miner.CountConstrained(pattern, constraint); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Q2/APS", func(b *testing.B) {
		store, _ := txdb.NewMemStoreFrom(nil, txs)
		pred := func(_ int, tx txdb.Transaction) bool { return tx.TID%7 == 0 }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := apriori.CountOccurrences(store, pattern, pred); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationK — hash functions per item.
func BenchmarkAblationK(b *testing.B) {
	txs := benchDataset(b, benchD, benchV, 10)
	tau := benchTauCount(len(txs))
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			miner := benchMiner(b, txs, benchM, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := miner.Mine(core.Config{MinSupport: tau, Scheme: core.DFP}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHash — MD5 (the paper's choice) vs iterated FNV-1a for
// deriving signature positions, over a full DFP mine. Mining time lands at
// parity (positions are memoized); the difference is accuracy — MD5's
// position independence yields several-fold lower FDR at small m (measured
// in EXPERIMENTS.md), validating the paper's choice.
func BenchmarkAblationHash(b *testing.B) {
	txs := benchDataset(b, benchD, benchV, 10)
	tau := benchTauCount(len(txs))
	hashers := map[string]sighash.Hasher{
		"md5": sighash.NewMD5(benchM, benchK),
		"fnv": sighash.NewFNV(benchM, benchK),
	}
	for name, h := range hashers {
		b.Run(name, func(b *testing.B) {
			var stats iostat.Stats
			store, _ := txdb.NewMemStoreFrom(&stats, txs)
			idx := sigfile.New(h, &stats)
			for _, tx := range txs {
				idx.Insert(tx.Items)
			}
			miner, err := core.NewMiner(idx, store, &stats)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := miner.Mine(core.Config{MinSupport: tau, Scheme: core.DFP}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLayout — bit-sliced vs row-major signature files on the
// core CountItemSet operation.
func BenchmarkAblationLayout(b *testing.B) {
	txs := benchDataset(b, benchD, benchV, 10)
	h := sighash.NewMD5(benchM, benchK)
	sliced := sigfile.New(h, nil)
	rows := sigfile.NewRowMajor(h)
	for _, tx := range txs {
		sliced.Insert(tx.Items)
		rows.Insert(tx.Items)
	}
	itemset := []int32{txs[0].Items[0], txs[0].Items[1]}

	b.Run("bit-sliced", func(b *testing.B) {
		dst := sliced.NewResult()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sliced.CountInto(dst, itemset)
		}
	})
	b.Run("row-major", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows.CountItemSet(itemset)
		}
	})
}

// BenchmarkAppend — the dynamic-database primitive: indexing one incoming
// transaction (store append + BBS insert).
func BenchmarkAppend(b *testing.B) {
	txs := benchDataset(b, benchD, benchV, 10)
	db := NewInMemory(Options{M: benchM, K: benchK})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := txs[i%len(txs)]
		if err := db.Append(int64(i+1), tx.Items); err != nil {
			b.Fatal(err)
		}
	}
}
