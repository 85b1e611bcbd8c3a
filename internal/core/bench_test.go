package core

import (
	"fmt"
	"testing"

	"bbsmine/internal/mining"
	"bbsmine/internal/sighash"
)

// sweptRun returns a run whose level-1 sweep is done and whose root
// extensions are still alive, which is the state every evaluation below
// level 1 starts from (filter releases the residuals before it returns).
func sweptRun(b *testing.B, m *Miner, tau int) (*run, []ext) {
	b.Helper()
	r := newRun(m, m.idx, Config{MinSupport: tau, Scheme: DFS, Workers: 1})
	seeds := r.sweep()
	if len(seeds) < 2 {
		b.Fatal("fewer than two level-1 survivors; raise density or lower tau")
	}
	return r, seeds
}

// BenchmarkEvalSibling times the per-node extension evaluation — the mining
// inner loop: copy the parent's residual, AND one sibling's into it, count.
func BenchmarkEvalSibling(b *testing.B) {
	txs := questDB(b, 2000, 500)
	m, _ := buildMiner(b, txs, 800, 4)
	r, seeds := sweptRun(b, m, mining.MinSupportCount(0.01, len(txs)))
	parent := seeds[0].vec
	parent.MaybeSummarize(seeds[0].est)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.evalSibling(parent, seeds[1+i%(len(seeds)-1)].vec)
	}
}

// BenchmarkEvalChain times the slice-chain evaluator over the level-1
// alphabet: positions from the hasher, ordered rarest first, AND-ed into a
// copy of the root with the early exit.
func BenchmarkEvalChain(b *testing.B) {
	txs := questDB(b, 2000, 500)
	m, _ := buildMiner(b, txs, 800, 4)
	r, _ := sweptRun(b, m, mining.MinSupportCount(0.01, len(txs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.evalChain(r.items[i%len(r.items)])
	}
}

// BenchmarkMineDFP times a full mining pass, the end-to-end number the
// kernel work rolls up into.
func BenchmarkMineDFP(b *testing.B) {
	txs := questDB(b, 2000, 500)
	tau := mining.MinSupportCount(0.01, len(txs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, _ := buildMiner(b, txs, 800, 4)
		b.StartTimer()
		if _, err := m.Mine(Config{MinSupport: tau, Scheme: DFP}); err != nil {
			b.Fatal(err)
		}
	}
}

// fig6Miner indexes the paper's default workload as bbsperf does:
// T10.I10.D10K over 10000 items, m = 1600 slices, k = 4 — into one index,
// or the same rows split over parts.
func fig6Miner(b *testing.B, parts int, compress bool) *Miner {
	txs := questDB(b, 10000, 10000)
	lens := make([]int, parts)
	for s := range lens {
		lens[s] = len(txs) / parts
	}
	m := buildPartsMiner(b, txs, sighash.NewMD5(1600, 4), lens)
	for s := 0; s < parts && compress; s++ {
		m.idx.Part(s).SetCompression(true)
	}
	return m
}

// benchmarkMineFig6 mines the fig6 index at τ = 0.3% = 30.
func benchmarkMineFig6(b *testing.B, parts int, compress bool) {
	m := fig6Miner(b, parts, compress)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Mine(Config{MinSupport: 30, Scheme: DFP, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineFig6Dense and BenchmarkMineFig6Compressed mine the same data
// from dense and from compressed slices. Below level 1 a mine works on
// resident residuals only, so the two should differ by the level-1 sweep's
// cost and nothing else. BenchmarkMineFig6Sharded2 mines it from two parts:
// the sweep ANDs two half-length slices per position, and nothing below it
// knows.
func BenchmarkMineFig6Dense(b *testing.B)      { benchmarkMineFig6(b, 1, false) }
func BenchmarkMineFig6Compressed(b *testing.B) { benchmarkMineFig6(b, 1, true) }
func BenchmarkMineFig6Sharded2(b *testing.B)   { benchmarkMineFig6(b, 2, false) }

// BenchmarkSweep times the level-1 sweep alone at fig6, the one place a mine
// reads the index: DFP sweeps only the items whose exact count reaches τ,
// SFS sweeps every item, from dense and from compressed slices.
func BenchmarkSweep(b *testing.B) {
	for _, compress := range []bool{false, true} {
		m := fig6Miner(b, 1, compress)
		for _, scheme := range []Scheme{DFP, SFS} {
			b.Run(fmt.Sprintf("%s/compressed=%v", scheme, compress), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := newRun(m, m.idx, Config{MinSupport: 30, Scheme: scheme, Workers: 1})
					for _, e := range r.sweep() {
						r.vecs.Put(e.vec)
					}
					r.vecs.Put(r.buf)
				}
			})
		}
	}
}
