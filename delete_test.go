package bbsmine

import (
	"path/filepath"
	"testing"

	"bbsmine/internal/mining"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

func TestDeleteExcludesFromMiningAndCounts(t *testing.T) {
	db := NewInMemory(Options{M: 128, K: 3})
	txs := fillRandom(t, db, 21, 120, 6, 15)

	// Delete every third transaction.
	var live []txdb.Transaction
	for pos, tx := range txs {
		if pos%3 == 0 {
			if err := db.Delete(pos); err != nil {
				t.Fatal(err)
			}
		} else {
			live = append(live, tx)
		}
	}
	if db.Live() != len(live) {
		t.Fatalf("Live = %d, want %d", db.Live(), len(live))
	}

	want := mining.ToMap(mining.BruteForce(live, 3))
	for _, scheme := range []Scheme{SFS, SFP, DFS, DFP} {
		res, err := db.Mine(MineOptions{MinSupportCount: 3, Scheme: scheme})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(res.Patterns) != len(want) {
			t.Errorf("%v: %d patterns after deletes, want %d", scheme, len(res.Patterns), len(want))
		}
		for _, p := range res.Patterns {
			actual, ok := want[mining.Key(p.Items)]
			if !ok {
				t.Errorf("%v: pattern %v not frequent among live rows", scheme, p.Items)
				continue
			}
			if p.Exact && p.Support != actual {
				t.Errorf("%v: %v support %d, want %d", scheme, p.Items, p.Support, actual)
			}
		}
	}

	// Counts exclude deleted rows too.
	probe := live[0].Items[:1]
	_, exact, err := db.Count(probe)
	if err != nil {
		t.Fatal(err)
	}
	wantCount := 0
	for _, tx := range live {
		if tx.Contains(probe) {
			wantCount++
		}
	}
	if exact != wantCount {
		t.Errorf("Count(%v) = %d after deletes, want %d", probe, exact, wantCount)
	}
}

func TestDeleteValidationFacade(t *testing.T) {
	db := NewInMemory(Options{M: 64})
	fillRandom(t, db, 22, 10, 4, 8)
	if err := db.Delete(100); err == nil {
		t.Error("out-of-range delete accepted")
	}
	if err := db.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(3); err == nil {
		t.Error("double delete accepted")
	}
}

func TestCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir, Options{M: 128, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	txs := fillRandom(t, db, 23, 60, 6, 12)
	for pos := 0; pos < 60; pos += 2 {
		if err := db.Delete(pos); err != nil {
			t.Fatal(err)
		}
	}
	before, err := db.Mine(MineOptions{MinSupportCount: 3, Scheme: DFP})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 30 || db.Live() != 30 {
		t.Fatalf("after Compact: Len=%d Live=%d, want 30/30", db.Len(), db.Live())
	}
	after, err := db.Mine(MineOptions{MinSupportCount: 3, Scheme: DFP})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Patterns) != len(before.Patterns) {
		t.Errorf("Compact changed results: %d vs %d patterns", len(after.Patterns), len(before.Patterns))
	}
	// Survivors are the odd positions of the original fill.
	tid, _, err := db.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if tid != txs[1].TID {
		t.Errorf("first surviving TID = %d, want %d", tid, txs[1].TID)
	}

	// Compaction persists: reopen and verify.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{M: 128, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 30 || db2.Live() != 30 {
		t.Fatalf("after reopen: Len=%d Live=%d", db2.Len(), db2.Live())
	}
	reopened, err := db2.Mine(MineOptions{MinSupportCount: 3, Scheme: DFP})
	if err != nil {
		t.Fatal(err)
	}
	if len(reopened.Patterns) != len(after.Patterns) {
		t.Errorf("reopened compacted db mined %d patterns, want %d", len(reopened.Patterns), len(after.Patterns))
	}
}

func TestCompactNoopAndInMemory(t *testing.T) {
	db := NewInMemory(Options{})
	fillRandom(t, db, 24, 5, 3, 6)
	if err := db.Compact(); err == nil {
		t.Error("Compact on in-memory database succeeded")
	}

	dir := filepath.Join(t.TempDir(), "db")
	pdb, err := Open(dir, Options{M: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	fillRandom(t, pdb, 25, 5, 3, 6)
	if err := pdb.Compact(); err != nil { // nothing deleted: no-op
		t.Errorf("no-op Compact failed: %v", err)
	}
	if pdb.Len() != 5 {
		t.Errorf("no-op Compact changed Len to %d", pdb.Len())
	}
}

func TestDeletedDatabasePersistsTombstones(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir, Options{M: 64, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, db, 26, 20, 4, 8)
	if err := db.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(dir, Options{M: 64, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Live() != 19 {
		t.Errorf("Live = %d after reopen, want 19", db2.Live())
	}
}

// TestCompactTieredDatabase pins that compacting a tiered database leaves
// it tiered over the rebuilt index: Tiered() agrees with TierStats, the
// pool holds no reservation for the discarded index's hot tier — it holds
// what tiering the survivors from scratch reserves — and counts equal a
// brute-force scan of the survivors.
func TestCompactTieredDatabase(t *testing.T) {
	const m, k, budget = 128, 3, 8 << 10
	db, err := Open(t.TempDir(), Options{M: m, K: k})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	txs := fillRandom(t, db, 24, 1200, 7, 30)
	if err := db.Tier(budget, "", nil); err != nil {
		t.Fatal(err)
	}
	var rows []countRow
	for pos, tx := range txs {
		if pos%5 == 0 {
			if err := db.Delete(pos); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rows = append(rows, countRow{tid: tx.TID, items: tx.Items, live: true})
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.Len() != len(rows) {
		t.Fatalf("after Compact: %d rows, want %d", db.Len(), len(rows))
	}

	fresh, err := Open(t.TempDir(), Options{M: m, K: k})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, r := range rows {
		if err := fresh.Append(r.tid, r.items); err != nil {
			t.Fatal(err)
		}
	}
	if err := fresh.Tier(budget, "", nil); err != nil {
		t.Fatal(err)
	}
	got, want := db.TierStats(), fresh.TierStats()
	if !db.Tiered() || got.SlicesCold == 0 {
		t.Fatalf("after Compact: Tiered() = %v with %d cold slices", db.Tiered(), got.SlicesCold)
	}
	if got.ReservedBytes != want.ReservedBytes || got.SlicesCold != want.SlicesCold || got.ColdBytes != want.ColdBytes {
		t.Fatalf("after Compact: reserved %d B, %d cold slices, %d cold B; tiering the survivors afresh gives %d B, %d, %d B",
			got.ReservedBytes, got.SlicesCold, got.ColdBytes, want.ReservedBytes, want.SlicesCold, want.ColdBytes)
	}

	h := sighash.NewMD5(m, k)
	for _, q := range [][]int32{nil, {1}, {2, 5}, {7, 11, 13}, {3, 3}, {29}, {31}} {
		est, exact, err := db.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if we, wx := bruteCount(h, rows, q, nil); est != we || exact != wx {
			t.Errorf("Count(%v) = %d/%d, brute force %d/%d", q, est, exact, we, wx)
		}
	}
}
