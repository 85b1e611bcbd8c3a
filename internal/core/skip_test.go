package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"testing"

	"bbsmine/internal/mining"
	"bbsmine/internal/obs"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// TestDualFilterSweepSkipUnderBloomCollisions pins the dual filter's level-1
// skip where it is observable: at m = 64, k = 2 many items whose exact count
// is below τ still have an estimate that reaches it, so before the skip they
// entered the alphabet and their supersets became candidates that a probe or
// the scan then dropped. Over resident, compressed, two-part and adaptive
// (folded) indexes, sequential and parallel, DFP and DFS must return the
// oracle's and SFP's itemsets with exact supports, no event of the mine may
// name an exact-infrequent item — no candidate certified, probed, deferred
// or reverified carries one — and the residual pool must get every vector
// back.
func TestDualFilterSweepSkipUnderBloomCollisions(t *testing.T) {
	txs := randomDB(11, 1200, 4, 200)
	for i := 0; i < len(txs); i += 6 { // a planted frequent triple gives the mine depth
		txs[i] = txdb.NewTransaction(txs[i].TID, append([]int32{1, 2, 3}, txs[i].Items...))
	}
	const tau = 15
	oracleMiner, _ := buildMiner(t, txs, 64, 2)
	oracle, err := aprioriMine(oracleMiner.store, tau)
	if err != nil {
		t.Fatal(err)
	}
	want := mining.ToMap(oracle)

	storages := []struct {
		name   string
		build  func(t *testing.T) *Miner
		budget func(m *Miner) int64
	}{
		{"resident", func(t *testing.T) *Miner { m, _ := buildMiner(t, txs, 64, 2); return m }, nil},
		{"compressed", func(t *testing.T) *Miner {
			m, _ := buildMiner(t, txs, 64, 2)
			m.idx.Part(0).SetCompression(true)
			if _, sparse := m.idx.Part(0).EncodingCounts(); sparse == 0 {
				t.Fatal("compression left every slice dense")
			}
			return m
		}, nil},
		{"parts=2", func(t *testing.T) *Miner {
			return buildPartsMiner(t, txs, sighash.NewMD5(64, 2), []int{600, 600})
		}, nil},
		{"adaptive", func(t *testing.T) *Miner { m, _ := buildMiner(t, txs, 64, 2); return m },
			func(m *Miner) int64 { return m.idx.TotalBytes() / 4 }},
	}
	for _, st := range storages {
		miner := st.build(t)
		var budget int64
		if st.budget != nil {
			budget = st.budget(miner)
		}
		colliding := 0
		for _, it := range miner.idx.Items() {
			if est, _, err := miner.Count([]txdb.Item{it}); err == nil && est >= tau && miner.idx.ExactCount(it) < tau {
				colliding++
			}
		}
		if colliding == 0 {
			t.Fatalf("%s: no item has est ≥ τ > exact; the fixture proves nothing", st.name)
		}
		sfp, err := miner.Mine(Config{MinSupport: tau, Scheme: SFP, MemoryBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		sfpKeys := itemsOnly(sfp.Patterns)
		for _, scheme := range []Scheme{DFP, DFS} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", st.name, scheme, workers), func(t *testing.T) {
					cfg := Config{MinSupport: tau, Scheme: scheme, Workers: workers, MemoryBudget: budget}
					var trace bytes.Buffer
					cfg.Observe = obs.New()
					cfg.Observe.SetTracer(obs.NewTracer(&trace, 1))
					res := mineWith(t, miner, cfg)
					if got := itemsOnly(res.Patterns); len(got) != len(want) || len(sfpKeys) != len(want) {
						t.Fatalf("%d patterns, SFP %d, oracle %d", len(got), len(sfpKeys), len(want))
					}
					for _, p := range res.Patterns {
						actual, ok := want[mining.Key(p.Items)]
						if !ok || !sfpKeys[mining.Key(p.Items)] {
							t.Fatalf("pattern %v is not the oracle's or SFP's", p.Items)
						}
						if p.Exact && p.Support != actual || !p.Exact && p.Support < actual {
							t.Errorf("%v: support %d (exact %v), oracle %d", p.Items, p.Support, p.Exact, actual)
						}
					}
					if skipped := cfg.Observe.Metrics().Funnel.Level1Skipped; skipped < int64(colliding) {
						t.Errorf("level1_skipped = %d, below the %d colliding items alone", skipped, colliding)
					}

					dec := json.NewDecoder(&trace)
					for {
						var ev obs.Event
						if err := dec.Decode(&ev); errors.Is(err, io.EOF) {
							break
						} else if err != nil {
							t.Fatal(err)
						}
						for _, it := range ev.Items {
							if miner.idx.ExactCount(it) < tau {
								t.Fatalf("%s event %v names item %d, whose exact count %d is below τ",
									ev.Kind, ev.Items, it, miner.idx.ExactCount(it))
							}
						}
					}

					// The same filter pass again, on a run the test can read: the
					// alphabet holds only exact-frequent items, and every pooled
					// vector (the reverify pass's included) comes back.
					idx, cfg := miner.idx, cfg
					cfg.Observe, cfg.MemoryBudget = nil, 0
					if budget > 0 {
						var err error
						if idx, err = miner.idx.Fold(miner.idx.M() / 2); err != nil {
							t.Fatal(err)
						}
					}
					r := newRun(miner, idx, cfg)
					r.disableProbing = budget > 0
					r.filter()
					if budget > 0 {
						r.reverify(r.uncertain)
					}
					if r.err != nil {
						t.Fatal(r.err)
					}
					if len(r.items) == 0 {
						t.Fatal("empty alphabet")
					}
					for gi, it := range r.items {
						if r.act1[gi] < tau || idx.ExactCount(it) < tau {
							t.Errorf("alphabet item %d has exact count %d (view %d), below τ", it, r.act1[gi], idx.ExactCount(it))
						}
					}
					if gets, _ := r.vecs.Counters(); r.vecs.Outstanding() != 0 || gets == 0 {
						t.Errorf("%d of %d pooled vectors never came back", r.vecs.Outstanding(), gets)
					}
				})
			}
		}
	}
}
