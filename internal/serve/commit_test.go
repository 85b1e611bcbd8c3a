package serve

import (
	"context"
	"fmt"
	"testing"

	"bbsmine/internal/exp"
	"bbsmine/internal/iostat"
	"bbsmine/internal/shard"
	"bbsmine/internal/txdb"
)

const (
	commitRows    = 10  // rows per benchmarked /txns write
	commitReseed  = 100 // commits between rebuilds, so the index stays near D rows
	commitShards  = 2
	commitSeedRow = 10000
)

// newCommitEngine seeds a file-backed sharded database with txs through the
// shard layer — the path bbsd opens a database by — and wires an engine
// over its parts. The returned func closes both and is safe to call once.
func newCommitEngine(tb testing.TB, txs []txdb.Transaction) (*Engine, func()) {
	tb.Helper()
	stats := &iostat.Stats{}
	sdb, err := shard.Open(tb.TempDir(), 1600, 4, commitShards, stats)
	if err != nil {
		tb.Fatalf("shard.Open: %v", err)
	}
	for _, tx := range txs {
		if err := sdb.Append(tx); err != nil {
			tb.Fatalf("seeding: %v", err)
		}
	}
	parts := make([]ShardOptions, sdb.Shards())
	for s := range parts {
		file := sdb.File(s)
		log, err := txdb.LoadAppendLog(file, stats)
		if err != nil {
			tb.Fatalf("loading shard %d's log: %v", s, err)
		}
		parts[s] = ShardOptions{Index: sdb.Index().Part(s), Log: log, File: file, IndexPath: sdb.IndexPath(s)}
	}
	e, err := New(Options{Shards: parts, Workers: 1})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return e, func() {
		if err := e.Close(); err != nil {
			tb.Errorf("engine Close: %v", err)
		}
		if err := sdb.Close(); err != nil {
			tb.Errorf("shard Close: %v", err)
		}
	}
}

// BenchmarkCommit times one 10-row Apply on a 2-shard, file-backed engine
// over the fig6 dataset at D = 10 K and D = 100 K rows: routing, the
// data-file and log appends, the index inserts and the snapshot each shard
// publishes. Every commit lands on freshly published snapshots, so it pays
// the copy-on-write cost a served write pays; comparing the two sizes shows
// whether that cost grows with the database. The dataset is generated once
// per size, and the engine is rebuilt (untimed) from it every commitReseed
// commits, so the index stays within 10 % of D rows however long it runs.
func BenchmarkCommit(b *testing.B) {
	for _, d := range []int{commitSeedRow, 10 * commitSeedRow} {
		var txs []txdb.Transaction
		var reqs []TxnsRequest
		b.Run(fmt.Sprintf("D=%dK", d/1000), func(b *testing.B) {
			if txs == nil {
				txs, reqs = commitWorkload(b, d)
			}
			benchmarkCommit(b, txs, reqs)
		})
	}
}

// commitWorkload generates the fig6 dataset at D = d and cuts it into
// commitRows-row write requests.
func commitWorkload(b *testing.B, d int) ([]txdb.Transaction, []TxnsRequest) {
	p := exp.Defaults(1)
	p.D = d
	txs, err := p.Dataset()
	if err != nil {
		b.Fatalf("dataset: %v", err)
	}
	reqs := make([]TxnsRequest, len(txs)/commitRows)
	for i := range reqs {
		for _, tx := range txs[i*commitRows : (i+1)*commitRows] {
			reqs[i].Insert = append(reqs[i].Insert, tx.Items)
		}
	}
	return txs, reqs
}

func benchmarkCommit(b *testing.B, txs []txdb.Transaction, reqs []TxnsRequest) {
	ctx := context.Background()
	var e *Engine
	closeEngine := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%commitReseed == 0 {
			b.StopTimer()
			closeEngine()
			e, closeEngine = newCommitEngine(b, txs)
			b.StartTimer()
		}
		if _, err := e.Apply(ctx, reqs[i%len(reqs)]); err != nil {
			b.Fatalf("Apply: %v", err)
		}
	}
	b.StopTimer()
	closeEngine()
}
