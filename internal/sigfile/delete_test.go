package sigfile

import (
	"math/rand"
	"path/filepath"
	"testing"

	"bbsmine/internal/sighash"
)

func TestDeleteRemovesFromEstimates(t *testing.T) {
	b, txs := runningExample(nil)
	// Delete transaction 100 (position 0), the only one containing item 0
	// together with items 3 and 4.
	if err := b.Delete(0, txs[0].Items); err != nil {
		t.Fatal(err)
	}
	if b.Live() != 4 || b.Deleted() != 1 {
		t.Errorf("Live=%d Deleted=%d", b.Live(), b.Deleted())
	}
	est, v := b.CountItemSet([]int32{0, 1})
	if est != 1 { // was 2 in Example 2; position 0 is now masked
		t.Errorf("CountItemSet({0,1}) = %d after delete, want 1", est)
	}
	if v.Get(0) {
		t.Error("deleted position still set in result vector")
	}
	if got := b.ExactCount(4); got != 0 {
		t.Errorf("ExactCount(4) = %d after deleting its only transaction", got)
	}
	if got := b.ExactCount(1); got != 4 {
		t.Errorf("ExactCount(1) = %d, want 4", got)
	}
}

func TestDeleteValidation(t *testing.T) {
	b, txs := runningExample(nil)
	if err := b.Delete(-1, nil); err == nil {
		t.Error("negative position accepted")
	}
	if err := b.Delete(5, nil); err == nil {
		t.Error("out-of-range position accepted")
	}
	if err := b.Delete(2, txs[2].Items); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(2, txs[2].Items); err == nil {
		t.Error("double delete accepted")
	}
}

func TestIsLive(t *testing.T) {
	b, txs := runningExample(nil)
	for pos := 0; pos < 5; pos++ {
		if !b.IsLive(pos) {
			t.Errorf("position %d not live before any delete", pos)
		}
	}
	if b.IsLive(-1) || b.IsLive(5) {
		t.Error("out-of-range positions report live")
	}
	b.Delete(3, txs[3].Items)
	if b.IsLive(3) {
		t.Error("deleted position reports live")
	}
	if !b.IsLive(2) {
		t.Error("neighbor of deleted position reports dead")
	}
}

func TestInsertAfterDelete(t *testing.T) {
	b, txs := runningExample(nil)
	if err := b.Delete(1, txs[1].Items); err != nil {
		t.Fatal(err)
	}
	b.Insert([]int32{1, 2})
	if b.Len() != 6 || b.Live() != 5 {
		t.Errorf("Len=%d Live=%d after insert-after-delete", b.Len(), b.Live())
	}
	if !b.IsLive(5) {
		t.Error("newly inserted position not live")
	}
	est, _ := b.CountItemSet([]int32{1, 2})
	// Live transactions containing {1,2} by actual data: 100, 400, 500,
	// new one = 4 (200 deleted). Estimate must be at least that.
	if est < 4 {
		t.Errorf("estimate %d below actual live count 4", est)
	}
}

func TestDeletePersistsAcrossSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	h := sighash.NewMD5(128, 4)
	b := New(h, nil)
	var txs [][]int32
	for i := 0; i < 200; i++ {
		tx := randomItems(rng, 8, 100)
		txs = append(txs, tx)
		b.Insert(tx)
	}
	for _, pos := range []int{0, 50, 199} {
		if err := b.Delete(pos, txs[pos]); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "index.bbs")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Deleted() != 3 || loaded.Live() != 197 {
		t.Fatalf("loaded Deleted=%d Live=%d", loaded.Deleted(), loaded.Live())
	}
	for _, pos := range []int{0, 50, 199} {
		if loaded.IsLive(pos) {
			t.Errorf("position %d live after reload", pos)
		}
	}
	if !loaded.IsLive(1) {
		t.Error("live position dead after reload")
	}
	// Estimates agree with the original post-deletion index.
	for trial := 0; trial < 30; trial++ {
		itemset := []int32{txs[10][0]}
		ea, va := b.CountItemSet(itemset)
		eb, vb := loaded.CountItemSet(itemset)
		if ea != eb || !va.Equal(vb) {
			t.Fatalf("reloaded index disagrees: %d vs %d", ea, eb)
		}
	}
}

func TestFoldPreservesDeletions(t *testing.T) {
	b, txs := runningExample(nil)
	if err := b.Delete(4, txs[4].Items); err != nil {
		t.Fatal(err)
	}
	folded, err := foldPart(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if folded.Live() != 4 || folded.IsLive(4) {
		t.Errorf("fold lost deletions: Live=%d IsLive(4)=%v", folded.Live(), folded.IsLive(4))
	}
	est, v := folded.CountItemSet([]int32{1})
	if v.Get(4) {
		t.Error("deleted row set in folded result")
	}
	if est < 4 {
		t.Errorf("folded estimate %d below live actual 4", est)
	}
}
