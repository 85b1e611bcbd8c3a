package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/mining"
	"bbsmine/internal/obs"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

func TestAdaptiveMatchesResident(t *testing.T) {
	txs := questDB(t, 1000, 300)
	tau := mining.MinSupportCount(0.01, len(txs))
	for _, scheme := range []Scheme{SFS, SFP, DFS, DFP} {
		resident, _ := buildMiner(t, txs, 512, 4)
		want, err := resident.Mine(Config{MinSupport: tau, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}

		constrained, _ := buildMiner(t, txs, 512, 4)
		// Budget fits only a fraction of the 512 slices → adaptive path.
		budget := constrained.Index().TotalBytes() / 4
		got, err := constrained.Mine(Config{MinSupport: tau, Scheme: scheme, MemoryBudget: budget})
		if err != nil {
			t.Fatal(err)
		}

		wantKeys, gotKeys := itemsOnly(want.Patterns), itemsOnly(got.Patterns)
		if len(wantKeys) != len(gotKeys) {
			t.Errorf("%s: adaptive found %d patterns, resident %d", scheme, len(gotKeys), len(wantKeys))
		}
		for k := range wantKeys {
			if !gotKeys[k] {
				t.Errorf("%s: adaptive missing a resident pattern", scheme)
			}
		}
		// The folded filter sees coarser estimates, so it can only produce
		// more candidates, never fewer.
		if got.Candidates < want.Candidates {
			t.Errorf("%s: adaptive produced %d candidates, resident %d — fold should coarsen",
				scheme, got.Candidates, want.Candidates)
		}
	}
}

func TestAdaptiveTinyBudget(t *testing.T) {
	// Even a budget fitting a single slice must terminate and be correct.
	txs := questDB(t, 400, 150)
	tau := mining.MinSupportCount(0.02, len(txs))

	resident, _ := buildMiner(t, txs, 256, 4)
	want, err := resident.Mine(Config{MinSupport: tau, Scheme: DFP})
	if err != nil {
		t.Fatal(err)
	}

	constrained, _ := buildMiner(t, txs, 256, 4)
	got, err := constrained.Mine(Config{MinSupport: tau, Scheme: DFP, MemoryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, gotKeys := itemsOnly(want.Patterns), itemsOnly(got.Patterns)
	if len(wantKeys) != len(gotKeys) {
		t.Errorf("single-slice adaptive found %d patterns, want %d", len(gotKeys), len(wantKeys))
	}
}

func TestAdaptiveExactSupports(t *testing.T) {
	// Under SFP the adaptive path still verifies everything by probing, so
	// all supports are exact and match brute force.
	txs := randomDB(13, 150, 8, 20)
	miner, _ := buildMiner(t, txs, 128, 3)
	budget := miner.Index().TotalBytes() / 3
	res, err := miner.Mine(Config{MinSupport: 4, Scheme: SFP, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	want := mining.ToMap(mining.BruteForce(txs, 4))
	if len(res.Patterns) != len(want) {
		t.Fatalf("found %d patterns, want %d", len(res.Patterns), len(want))
	}
	for _, p := range res.Patterns {
		if !p.Exact {
			t.Errorf("adaptive SFP produced non-exact pattern %v", p)
		}
		if p.Support != want[mining.Key(p.Items)] {
			t.Errorf("pattern %v support %d, want %d", p.Items, p.Support, want[mining.Key(p.Items)])
		}
	}
}

func TestAdaptiveChargesPreprocessing(t *testing.T) {
	txs := questDB(t, 500, 200)
	tau := mining.MinSupportCount(0.01, len(txs))

	resident, statsR := buildMiner(t, txs, 512, 4)
	if _, err := resident.Mine(Config{MinSupport: tau, Scheme: DFP}); err != nil {
		t.Fatal(err)
	}
	constrained, statsC := buildMiner(t, txs, 512, 4)
	if _, err := constrained.Mine(Config{MinSupport: tau, Scheme: DFP,
		MemoryBudget: constrained.Index().TotalBytes() / 8}); err != nil {
		t.Fatal(err)
	}
	// The fold pass reads every slice of the full index; adaptive runs must
	// never report less slice I/O than zero and should show the extra work.
	if statsC.SlicePageReads() == 0 || statsR.SlicePageReads() == 0 {
		t.Error("slice reads not accounted")
	}
}

func TestCountQueries(t *testing.T) {
	txs := []txdb.Transaction{
		txdb.NewTransaction(1, []int32{1, 2, 3}),
		txdb.NewTransaction(2, []int32{2, 3}),
		txdb.NewTransaction(3, []int32{1, 3}),
		txdb.NewTransaction(4, []int32{1, 2, 3}),
		txdb.NewTransaction(5, []int32{4, 5}),
	}
	miner, _ := buildMiner(t, txs, 64, 3)

	est, exact, err := miner.Count([]txdb.Item{3, 1}) // unsorted on purpose
	if err != nil {
		t.Fatal(err)
	}
	if exact != 3 {
		t.Errorf("exact count of {1,3} = %d, want 3", exact)
	}
	if est < exact {
		t.Errorf("estimate %d below exact %d", est, exact)
	}

	// Non-occurring itemset.
	_, exact, err = miner.Count([]txdb.Item{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if exact != 0 {
		t.Errorf("exact count of {1,5} = %d, want 0", exact)
	}

	// Constrained count: odd TIDs only (positions 0, 2, 4).
	constraint, err := BuildConstraint(miner.Store(), func(_ int, tx txdb.Transaction) bool {
		return tx.TID%2 == 1
	})
	if err != nil {
		t.Fatal(err)
	}
	_, exact, err = miner.CountConstrained([]txdb.Item{1, 3}, constraint)
	if err != nil {
		t.Fatal(err)
	}
	if exact != 2 { // TIDs 1 and 3
		t.Errorf("constrained exact = %d, want 2", exact)
	}

	// Length-mismatched constraint errors.
	if _, _, err := miner.CountConstrained([]txdb.Item{1}, bitvec.New(3)); err == nil {
		t.Error("mismatched constraint accepted")
	}
}

// countingHasher counts Positions calls, so a test can pin how many times
// a query hashes its items.
type countingHasher struct {
	sighash.Hasher
	calls int
}

func (h *countingHasher) Positions(it int32) []int {
	h.calls++
	return h.Hasher.Positions(it)
}

// distinctItems returns how many distinct items q holds.
func distinctItems(q []txdb.Item) int {
	set := slices.Clone(q)
	slices.Sort(set)
	return len(slices.Compact(set))
}

// TestCountHashesOnceAndDedupes pins the ad-hoc count's preamble over one
// part and over two: each distinct item is hashed once per call, and an
// itemset with a repeated item gets its deduplicated form's answer, plain
// and constrained.
func TestCountHashesOnceAndDedupes(t *testing.T) {
	txs := make([]txdb.Transaction, 20)
	for i := range txs {
		txs[i] = txdb.NewTransaction(int64(i), []int32{1, 5, 9})
	}
	for _, lens := range [][]int{{20}, {10, 10}} {
		h := &countingHasher{Hasher: sighash.NewMD5(64, 3)}
		miner := buildPartsMiner(t, txs, h, lens)
		constraint, err := BuildConstraint(miner.Store(), func(_ int, tx txdb.Transaction) bool {
			return tx.TID%2 == 0
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*bitvec.Vector{nil, constraint} {
			want := 20
			if c != nil {
				want = 10
			}
			for _, q := range [][]txdb.Item{{5}, {5, 5}, {9, 1, 9}} {
				h.calls = 0
				est, exact, err := miner.CountConstrained(q, c)
				if err != nil {
					t.Fatal(err)
				}
				if est != want || exact != want {
					t.Errorf("parts %v, constrained %t: Count(%v) = %d/%d, want %d/%d", lens, c != nil, q, est, exact, want, want)
				}
				if distinct := distinctItems(q); h.calls != distinct {
					t.Errorf("parts %v: Count(%v) hashed %d items, want %d", lens, q, h.calls, distinct)
				}
			}
		}
	}
}

func TestMineApproxSuperset(t *testing.T) {
	txs := questDB(t, 600, 200)
	tau := mining.MinSupportCount(0.01, len(txs))
	miner, _ := buildMiner(t, txs, 256, 4)

	exact, err := miner.Mine(Config{MinSupport: tau, Scheme: DFP})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := miner.MineApprox(tau, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(approx) < len(exact.Patterns) {
		t.Fatalf("approx mined %d patterns, exact %d — must be a superset", len(approx), len(exact.Patterns))
	}
	approxKeys := itemsOnly(approx)
	for _, p := range exact.Patterns {
		if !approxKeys[mining.Key(p.Items)] {
			t.Errorf("approx missing frequent pattern %v", p.Items)
		}
	}
	for _, p := range approx {
		if p.Exact {
			t.Errorf("approx pattern %v claims exactness", p.Items)
		}
		if p.Support < tau {
			t.Errorf("approx pattern %v support %d under τ", p.Items, p.Support)
		}
	}
	if _, err := miner.MineApprox(0, 0, 1); err == nil {
		t.Error("MineApprox accepted MinSupport 0")
	}
}

// reverifyEvents mines adaptively under a full-rate tracer and returns the
// phase-3 outcomes as traced, in order.
func reverifyEvents(t *testing.T, m *Miner, cfg Config) []obs.Event {
	t.Helper()
	var buf bytes.Buffer
	cfg.Observe = obs.New()
	cfg.Observe.SetTracer(obs.NewTracer(&buf, 1))
	mineWith(t, m, cfg)
	var out []obs.Event
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		if e.Kind == "reverify" {
			e.Seq = 0 // workers' probe events interleave differently
			out = append(out, e)
		}
	}
	return out
}

// TestAdaptiveReverifyTraceCarriesEstimates: phase 3 has one body for every
// worker count, so its trace — verdicts, candidate order, and the
// full-resolution estimate each verdict was reached on — is the same at
// Workers 1 and 4 (the parallel pass used to report est 0).
func TestAdaptiveReverifyTraceCarriesEstimates(t *testing.T) {
	txs := questDB(t, 600, 200)
	tau := mining.MinSupportCount(0.015, len(txs))
	miner, _ := buildMiner(t, txs, 1600, 4) // wide enough that the fold floor still folds 4:1
	for _, scheme := range []Scheme{SFS, DFP} {
		cfg := Config{MinSupport: tau, Scheme: scheme, MemoryBudget: 1} // the narrowest fold the floor allows
		cfg.Workers = 1
		seq := reverifyEvents(t, miner, cfg)
		cfg.Workers = 4
		par := reverifyEvents(t, miner, cfg)
		if len(seq) == 0 || !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s: %d reverify events at Workers 1, %d at Workers 4, equal: %v", scheme, len(seq), len(par), reflect.DeepEqual(seq, par))
		}
		pruned := 0
		for _, e := range par {
			want, _ := miner.Index().CountItemSet(e.Items)
			if e.Est != want {
				t.Fatalf("%s: %s %v traced est %d, the index estimates %d", scheme, e.Verdict, e.Items, e.Est, want)
			}
			if (e.Verdict == "pruned") != (e.Est < tau) {
				t.Errorf("%s: %v est %d traced as %s at τ = %d", scheme, e.Items, e.Est, e.Verdict, tau)
			}
			if e.Verdict == "pruned" {
				pruned++
			}
		}
		if pruned == 0 || pruned == len(par) {
			t.Errorf("%s: %d of %d candidates pruned; the fixture should see both fates", scheme, pruned, len(par))
		}
	}
}
