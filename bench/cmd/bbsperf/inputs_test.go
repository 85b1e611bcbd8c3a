package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// planBytes serializes everything a seed generates, so two seeds' inputs can
// be compared byte for byte.
func planBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	txs, err := genDataset(tinySize.D)
	if err != nil {
		t.Fatal(err)
	}
	shapes := queryShapes(txs, tinySize.TauFrac)
	bodies, err := encodeShapes(shapes)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := genPlan(seed, bodies, 300)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(struct {
		Txs    any
		Pool   [][]int32
		Shapes []queryShape
		Plan   []planned
	}{txs, genCountPool(seed, txs, 200), shapes, plan})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := planBytes(t, 1), planBytes(t, 1), planBytes(t, 2)
	if !bytes.Equal(a, b) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 1 and 2 generated the same inputs")
	}
}

func TestPlanMix(t *testing.T) {
	txs, err := genDataset(tinySize.D)
	if err != nil {
		t.Fatal(err)
	}
	shapes := queryShapes(txs, tinySize.TauFrac)
	if len(shapes) != 15 {
		t.Fatalf("%d query shapes, want 15", len(shapes))
	}
	if s := shapes[shapeDFP]; s.Scheme != "DFP" || s.TauFrac != tinySize.TauFrac || s.Constraint >= 0 {
		t.Errorf("shape %d is %s, want the unconstrained DFP mine at tau", shapeDFP, s)
	}
	if s := shapes[shapeSFS]; s.Scheme != "SFS" || s.TauFrac != tinySize.TauFrac || s.Constraint >= 0 {
		t.Errorf("shape %d is %s, want the unconstrained SFS mine at tau", shapeSFS, s)
	}
	bodies, err := encodeShapes(shapes)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := genPlan(1, bodies, 4000)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	seen := make(map[int]bool)
	for _, p := range plan {
		if p.Shape < 0 {
			writes++
			if n := len(p.Insert); n < 4 || n > 15 {
				t.Fatalf("a write inserts %d transactions, want 4..15", n)
			}
			continue
		}
		seen[p.Shape] = true
	}
	if writes < 300 || writes > 500 {
		t.Errorf("%d of 4000 requests are writes, want about one in ten", writes)
	}
	if len(seen) != len(shapes) {
		t.Errorf("the plan reads %d of the %d shapes", len(seen), len(shapes))
	}
	for _, items := range genCountPool(1, txs, 500) {
		if len(items) < 2 || len(items) > 4 {
			t.Fatalf("count itemset %v has %d items, want 2..4", items, len(items))
		}
	}
}
