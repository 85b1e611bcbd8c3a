package shard

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bbsmine/internal/iostat"
	"bbsmine/internal/obs"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// genTxs returns n random transactions over a small alphabet, TIDs 0..n-1.
func genTxs(seed int64, n, maxLen, alphabet int) []txdb.Transaction {
	rng := rand.New(rand.NewSource(seed))
	txs := make([]txdb.Transaction, n)
	for i := range txs {
		l := 1 + rng.Intn(maxLen)
		items := make([]int32, l)
		for j := range items {
			items[j] = int32(rng.Intn(alphabet))
		}
		txs[i] = txdb.NewTransaction(int64(i), items)
	}
	return txs
}

func TestIndexValidation(t *testing.T) {
	h := sighash.NewFNV(64, 2)
	if _, err := NewIndex(h, 0, nil); err == nil {
		t.Error("NewIndex accepted zero shards")
	}
	if _, err := FromParts(nil); err == nil {
		t.Error("FromParts accepted zero parts")
	}
	// Two parts holding 2 and 0 rows violate round-robin (want 1 and 1).
	a, b := sigfile.New(h, nil), sigfile.New(h, nil)
	a.Insert([]int32{1})
	a.Insert([]int32{2})
	if _, err := FromParts([]*sigfile.BBS{a, b}); err == nil {
		t.Error("FromParts accepted a non-round-robin layout")
	}
}

// TestCountMatchesView checks the fan-out count (per-shard AND + probe)
// agrees with counting over the block-order view a mine binds.
func TestCountMatchesView(t *testing.T) {
	var stats iostat.Stats
	db, err := NewMem(sighash.NewMD5(128, 3), 3, &stats)
	if err != nil {
		t.Fatal(err)
	}
	txs := genTxs(3, 60, 6, 25)
	for _, tx := range txs {
		if err := db.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(30); err != nil {
		t.Fatal(err)
	}
	idx, store, err := db.Merged()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]int32{{1}, {3, 7}, {2, 4, 9}, {11}} {
		est, exact, err := db.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		wantEst, cand := idx.CountItemSet(q)
		if est != wantEst {
			t.Fatalf("itemset %v: fan-out estimate %d, view estimate %d", q, est, wantEst)
		}
		wantExact := 0
		var probeErr error
		cand.ForEachSet(func(pos int) bool {
			tx, err := store.Get(pos)
			if err != nil {
				probeErr = err
				return false
			}
			if tx.Contains(q) {
				wantExact++
			}
			return true
		})
		if probeErr != nil {
			t.Fatal(probeErr)
		}
		if exact != wantExact {
			t.Fatalf("itemset %v: fan-out exact %d, view exact %d", q, exact, wantExact)
		}
	}
}

// TestOpenShardedRoundTrip persists a 3-shard database with tombstones and
// reopens it twice: once pinned to 3 shards, once with shards=0 (use whatever
// the manifest says).
func TestOpenShardedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const m, k, shards = 64, 2, 3
	db, err := Open(dir, m, k, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	txs := genTxs(5, 40, 5, 20)
	for _, tx := range txs {
		if err := db.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	deleted := []int{0, 13, 39}
	for _, pos := range deleted {
		if err := db.Delete(pos); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err != nil {
		t.Fatalf("manifest missing after sharded create: %v", err)
	}
	for _, req := range []int{shards, 0} {
		re, err := Open(dir, m, k, req, nil)
		if err != nil {
			t.Fatalf("reopen with shards=%d: %v", req, err)
		}
		if re.Shards() != shards {
			t.Fatalf("reopen with shards=%d: got %d shards, want %d", req, re.Shards(), shards)
		}
		if re.Len() != len(txs) || re.Index().Deleted() != len(deleted) {
			t.Fatalf("reopen: len/deleted = %d/%d, want %d/%d", re.Len(), re.Index().Deleted(), len(txs), len(deleted))
		}
		for pos, tx := range txs {
			got, err := re.Get(pos)
			if err != nil {
				t.Fatalf("Get(%d): %v", pos, err)
			}
			if got.TID != tx.TID {
				t.Fatalf("Get(%d).TID = %d, want %d", pos, got.TID, tx.TID)
			}
		}
		for _, pos := range deleted {
			if re.Index().IsLive(pos) {
				t.Fatalf("position %d live after reopen, want tombstoned", pos)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenMigratesFlatToSharded writes a flat single-shard database, reopens
// it 4-way, and checks rows and tombstones survive the migration and the flat
// files are gone once the manifest commits.
func TestOpenMigratesFlatToSharded(t *testing.T) {
	dir := t.TempDir()
	const m, k = 64, 2
	flat, err := Open(dir, m, k, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	txs := genTxs(9, 30, 5, 20)
	for _, tx := range txs {
		if err := flat.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	deleted := []int{4, 17}
	for _, pos := range deleted {
		if err := flat.Delete(pos); err != nil {
			t.Fatal(err)
		}
	}
	if err := flat.Save(); err != nil {
		t.Fatal(err)
	}
	if err := flat.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err == nil {
		t.Fatal("flat layout wrote a manifest")
	}

	db, err := Open(dir, m, k, 4, nil)
	if err != nil {
		t.Fatalf("migration: %v", err)
	}
	if db.Shards() != 4 || db.Len() != len(txs) || db.Index().Deleted() != len(deleted) {
		t.Fatalf("migrated db: shards/len/deleted = %d/%d/%d, want 4/%d/%d",
			db.Shards(), db.Len(), db.Index().Deleted(), len(txs), len(deleted))
	}
	for pos, tx := range txs {
		got, err := db.Get(pos)
		if err != nil {
			t.Fatalf("Get(%d): %v", pos, err)
		}
		if got.TID != tx.TID {
			t.Fatalf("Get(%d).TID = %d, want %d (global order must survive migration)", pos, got.TID, tx.TID)
		}
	}
	for _, pos := range deleted {
		if db.Index().IsLive(pos) {
			t.Fatalf("tombstone at %d lost in migration", pos)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The manifest is the commit point; the flat files must be gone.
	if _, err := os.Stat(filepath.Join(dir, dataFile)); !os.IsNotExist(err) {
		t.Fatal("flat data file survived migration")
	}
	if _, err := os.Stat(filepath.Join(dir, indexFile)); !os.IsNotExist(err) {
		t.Fatal("flat index file survived migration")
	}
	for s := 0; s < 4; s++ {
		if _, err := os.Stat(filepath.Join(shardDir(dir, s), dataFile)); err != nil {
			t.Fatalf("shard %d data missing: %v", s, err)
		}
	}
}

func TestOpenRejectsMismatches(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 64, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(txdb.NewTransaction(0, []int32{1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 64, 2, 3, nil); err == nil || !strings.Contains(err.Error(), "re-sharding") {
		t.Fatalf("re-shard request accepted or wrong error: %v", err)
	}
	if _, err := Open(dir, 128, 2, 2, nil); err == nil || !strings.Contains(err.Error(), "m=") {
		t.Fatalf("m mismatch accepted or wrong error: %v", err)
	}
	if _, err := Open(dir, 64, 3, 2, nil); err == nil {
		t.Fatalf("k mismatch accepted: %v", err)
	}
	if _, err := Open(t.TempDir(), 64, 2, -1, nil); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestOpenReindexesTail simulates a crash between data append and index save:
// the reopened database must re-derive the missing index rows from the stores.
func TestOpenReindexesTail(t *testing.T) {
	dir := t.TempDir()
	const m, k, shards = 64, 2, 2
	db, err := Open(dir, m, k, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	txs := genTxs(13, 20, 4, 15)
	for _, tx := range txs[:10] {
		if err := db.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	// Tail: durable in the data files (Append writes through), never indexed.
	for _, tx := range txs[10:] {
		if err := db.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, m, k, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(txs) {
		t.Fatalf("reopened len = %d, want %d (tail not reindexed)", re.Len(), len(txs))
	}
	// The reindexed tail must count like a never-crashed database.
	fresh, err := NewMem(sighash.NewMD5(m, k), shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		if err := fresh.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range [][]int32{{1}, {2, 5}, {3, 7, 9}} {
		gotEst, gotExact, err := re.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		wantEst, wantExact, err := fresh.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if gotEst != wantEst || gotExact != wantExact {
			t.Fatalf("itemset %v after recovery: est/exact = %d/%d, want %d/%d", q, gotEst, gotExact, wantEst, wantExact)
		}
	}
}

func TestCompactGating(t *testing.T) {
	mem, err := NewMem(sighash.NewMD5(64, 2), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Compact(); err == nil {
		t.Error("in-memory compact accepted")
	}

	db, err := Open(t.TempDir(), 64, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Compact(); err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Errorf("sharded compact accepted or wrong error: %v", err)
	}
}

// TestCompactSingleShard keeps the flat path honest: compaction drops the
// tombstoned rows and the survivors still count correctly.
func TestCompactSingleShard(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 64, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	txs := genTxs(21, 20, 4, 15)
	for _, tx := range txs {
		if err := db.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	for _, pos := range []int{1, 8, 19} {
		if err := db.Delete(pos); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 17 || db.Index().Deleted() != 0 {
		t.Fatalf("after compact: len/deleted = %d/%d, want 17/0", db.Len(), db.Index().Deleted())
	}
	for pos := 0; pos < db.Len(); pos++ {
		tx, err := db.Get(pos)
		if err != nil {
			t.Fatalf("Get(%d) after compact: %v", pos, err)
		}
		if tx.TID == 1 || tx.TID == 8 || tx.TID == 19 {
			t.Fatalf("deleted TID %d survived compaction", tx.TID)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCountFanOutTracesPerShard checks the scatter-gather count emits one
// shard-tagged shardcount event per shard with tracing on, and none with
// it off.
func TestCountFanOutTracesPerShard(t *testing.T) {
	const shards = 3
	db, err := NewMem(sighash.NewFNV(64, 2), shards, &iostat.Stats{})
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	for _, tx := range genTxs(7, 30, 5, 12) {
		if err := db.Append(tx); err != nil {
			t.Fatal(err)
		}
	}

	// No tracer: counting emits nothing and costs no event construction.
	reg := obs.New()
	db.Index().SetObserver(reg)
	est, _, err := db.Count([]int32{1, 2})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	reg.SetTracer(obs.NewTracer(&buf, 1))
	est2, _, err := db.Count([]int32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if est2 != est {
		t.Fatalf("tracing changed the estimate: %d vs %d", est2, est)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != shards {
		t.Fatalf("traced %d events, want %d (one per shard)", len(lines), shards)
	}
	sum, seen := 0, make(map[int]bool)
	for _, line := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("malformed shardcount line %q: %v", line, err)
		}
		if ev.Kind != "shardcount" {
			t.Fatalf("event kind = %q, want shardcount", ev.Kind)
		}
		if ev.Shard == nil || *ev.Shard < 0 || *ev.Shard >= shards || seen[*ev.Shard] {
			t.Fatalf("bad or repeated shard tag in %q", line)
		}
		seen[*ev.Shard] = true
		sum += ev.Est
	}
	if sum != est {
		t.Errorf("per-shard estimates sum to %d, want %d", sum, est)
	}
}
