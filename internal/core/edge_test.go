package core

import (
	"path/filepath"
	"testing"

	"bbsmine/internal/iostat"
	"bbsmine/internal/mining"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

func TestMineEmptyDatabase(t *testing.T) {
	idx := sigfile.New(sighash.NewMD5(64, 2), nil)
	store := txdb.NewMemStore(nil)
	m, err := NewMiner(idx, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{SFS, SFP, DFS, DFP} {
		res, err := m.Mine(Config{MinSupport: 1, Scheme: scheme})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(res.Patterns) != 0 {
			t.Errorf("%v mined %d patterns from empty database", scheme, len(res.Patterns))
		}
	}
}

func TestMineThresholdAboveDatabaseSize(t *testing.T) {
	miner, _ := buildMiner(t, randomDB(61, 10, 4, 8), 64, 2)
	res, err := miner.Mine(Config{MinSupport: 100, Scheme: DFP})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("mined %d patterns with τ > |D|", len(res.Patterns))
	}
}

func TestMineIdenticalTransactions(t *testing.T) {
	txs := make([]txdb.Transaction, 20)
	for i := range txs {
		txs[i] = txdb.NewTransaction(int64(i+1), []int32{1, 2, 3})
	}
	miner, _ := buildMiner(t, txs, 64, 2)
	res, err := miner.Mine(Config{MinSupport: 20, Scheme: DFP})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 7 { // 2^3 - 1 subsets, all with support 20
		t.Errorf("mined %d patterns, want 7", len(res.Patterns))
	}
	for _, p := range res.Patterns {
		if p.Support != 20 {
			t.Errorf("pattern %v support %d, want 20", p.Items, p.Support)
		}
	}
}

func TestMineSingleTransaction(t *testing.T) {
	txs := []txdb.Transaction{txdb.NewTransaction(1, []int32{4, 9})}
	miner, _ := buildMiner(t, txs, 64, 2)
	res, err := miner.Mine(Config{MinSupport: 1, Scheme: SFP})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 3 { // {4}, {9}, {4,9}
		t.Errorf("mined %d patterns, want 3: %v", len(res.Patterns), res.Patterns)
	}
}

func TestFileStoreBackedMiner(t *testing.T) {
	// The probe path against a real on-disk store.
	txs := questDB(t, 400, 150)
	path := filepath.Join(t.TempDir(), "db.txdb")
	var stats iostat.Stats
	store, err := txdb.WriteAll(path, &stats, txs)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	idx := sigfile.New(sighash.NewMD5(256, 4), &stats)
	for _, tx := range txs {
		idx.Insert(tx.Items)
	}
	miner, err := NewMiner(idx, store, &stats)
	if err != nil {
		t.Fatal(err)
	}
	tau := mining.MinSupportCount(0.02, len(txs))
	onDisk, err := miner.Mine(Config{MinSupport: tau, Scheme: DFP})
	if err != nil {
		t.Fatal(err)
	}
	memMiner, _ := buildMiner(t, txs, 256, 4)
	inMem, err := memMiner.Mine(Config{MinSupport: tau, Scheme: DFP})
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk.Patterns) != len(inMem.Patterns) {
		t.Fatalf("file-backed mined %d patterns, in-memory %d", len(onDisk.Patterns), len(inMem.Patterns))
	}
	for i := range inMem.Patterns {
		a, b := onDisk.Patterns[i], inMem.Patterns[i]
		if mining.Key(a.Items) != mining.Key(b.Items) || a.Support != b.Support {
			t.Fatalf("pattern %d differs: %v vs %v", i, a, b)
		}
	}
	if stats.Probes() == 0 {
		t.Error("no probes recorded against the file store")
	}
}

func TestColdReadChargedOncePerIndex(t *testing.T) {
	txs := questDB(t, 500, 200)
	miner, stats := buildMiner(t, txs, 512, 4)
	tau := mining.MinSupportCount(0.02, len(txs))

	if _, err := miner.Mine(Config{MinSupport: tau, Scheme: DFP}); err != nil {
		t.Fatal(err)
	}
	first := stats.SlicePageReads()
	if first == 0 {
		t.Fatal("first mine charged no slice pages")
	}
	if _, err := miner.Mine(Config{MinSupport: tau, Scheme: DFP}); err != nil {
		t.Fatal(err)
	}
	if stats.SlicePageReads() != first {
		t.Errorf("second mine on a warm index charged %d extra pages",
			stats.SlicePageReads()-first)
	}

	// Growing the index makes only the tail cold.
	for _, tx := range questDB(t, 100, 200) {
		if err := miner.Store().Append(txdb.NewTransaction(tx.TID+10000, tx.Items)); err != nil {
			t.Fatal(err)
		}
		miner.Index().Part(0).Insert(tx.Items)
	}
	m2, err := NewMiner(miner.Index().Part(0), miner.Store(), stats)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Mine(Config{MinSupport: tau, Scheme: DFP}); err != nil {
		t.Fatal(err)
	}
	grown := stats.SlicePageReads()
	if grown <= first {
		t.Error("grown index charged nothing for the new tail")
	}
	if grown-first >= first {
		t.Errorf("tail charge %d not smaller than full charge %d", grown-first, first)
	}
}

func TestBuildConstraintEmptyStore(t *testing.T) {
	v, err := BuildConstraint(txdb.NewMemStore(nil), func(int, txdb.Transaction) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 0 {
		t.Errorf("constraint over empty store has length %d", v.Len())
	}
}

func TestConstraintExcludingEverything(t *testing.T) {
	txs := randomDB(62, 50, 5, 10)
	miner, _ := buildMiner(t, txs, 128, 3)
	none, err := BuildConstraint(miner.Store(), func(int, txdb.Transaction) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	res, err := miner.Mine(Config{MinSupport: 1, Scheme: SFP, Constraint: none})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("empty constraint mined %d patterns", len(res.Patterns))
	}
}
