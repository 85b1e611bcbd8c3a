package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/mining"
	"bbsmine/internal/obs"
	"bbsmine/internal/pager"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// tierAll moves every slice of the miner's index that has a bit set to a
// cold file behind a pool of the given size (an empty slice has no payload
// to move, and no indexed item hashes to one), so each index AND of a mine
// is a page request the pool counts.
func tierAll(t testing.TB, m *Miner, poolBytes int64) *pager.Pager {
	t.Helper()
	pg := pager.New(poolBytes)
	if err := m.idx.Part(0).Tier(pg, filepath.Join(t.TempDir(), "slices.cold"), 0, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.idx.Part(0).Untier() })
	if _, cold := m.idx.Part(0).TierCensus(); cold == 0 || m.idx.Part(0).ResidentSliceBytes() != 0 {
		t.Fatalf("%d cold slices, %d payload bytes still resident under a zero hot budget", cold, m.idx.Part(0).ResidentSliceBytes())
	}
	return pg
}

// TestSiblingResidualMatchesSliceChain is the differential oracle for the
// enumeration's evaluator: a mine that evaluates every extension as one AND
// of two sibling residuals must return the Result and the funnel of the
// NoIncrementalAnd mine, which recomputes every intersection from the root
// over the index's slices — across schemes, constraints, slice storage,
// worker counts and the adaptive three-phase mode.
func TestSiblingResidualMatchesSliceChain(t *testing.T) {
	txs := questDB(t, 600, 200)
	tau := mining.MinSupportCount(0.015, len(txs))
	constraint := bitvec.New(len(txs))
	for i := 0; i < len(txs); i += 2 {
		constraint.Set(i)
	}

	storages := []struct {
		name  string
		apply func(t *testing.T, m *Miner)
	}{
		{"dense", func(*testing.T, *Miner) {}},
		{"compressed", func(t *testing.T, m *Miner) {
			m.idx.Part(0).SetCompression(true)
			if _, sparse := m.idx.Part(0).EncodingCounts(); sparse == 0 {
				t.Fatal("compression left every slice dense")
			}
		}},
		{"tiered", func(t *testing.T, m *Miner) { tierAll(t, m, 2*pager.PageSize) }},
	}
	type shape struct {
		scheme      Scheme
		constrained bool
	}
	shapes := []shape{{SFS, false}, {SFP, false}, {DFS, false}, {DFP, false}, {SFS, true}, {SFP, true}}

	for _, st := range storages {
		t.Run(st.name, func(t *testing.T) {
			miner, _ := buildMiner(t, txs, 400, 4)
			st.apply(t, miner)
			falseDrops := 0
			for _, sh := range shapes {
				for _, budget := range []int64{0, miner.idx.TotalBytes() / 4} {
					cfg := Config{MinSupport: tau, Scheme: sh.scheme, MemoryBudget: budget}
					name := fmt.Sprintf("%s/budget=%d", sh.scheme, budget)
					if sh.constrained {
						cfg.Constraint = constraint
						cfg.MinSupport = max(tau/2, 1)
						name += "/constrained"
					}
					mine := func(workers int, chain bool) (*Result, obs.FunnelMetrics) {
						c := cfg
						c.Workers, c.NoIncrementalAnd, c.Observe = workers, chain, obs.New()
						return mineWith(t, miner, c), c.Observe.Metrics().Funnel
					}
					// The oracle does not depend on the worker count (pinned by
					// the parallel-determinism suite), so one serves both.
					want, wantFunnel := mine(1, true)
					if len(want.Patterns) == 0 {
						t.Fatalf("%s: the oracle mined nothing; the cell proves nothing", name)
					}
					falseDrops += want.FalseDrops
					for _, workers := range []int{1, 4} {
						got, gotFunnel := mine(workers, false)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s/workers=%d: sibling-residual Result differs from the slice-chain one (%d vs %d patterns, cand %d vs %d)",
								name, workers, len(got.Patterns), len(want.Patterns), got.Candidates, want.Candidates)
						}
						if gotFunnel != wantFunnel {
							t.Errorf("%s/workers=%d: funnel differs\nsibling: %+v\nchain:   %+v", name, workers, gotFunnel, wantFunnel)
						}
					}
				}
			}
			// Failed probes are the extensions that stay behind as operands
			// without descending; the fixture must have some.
			if falseDrops == 0 {
				t.Error("no cell saw a false drop; the fixture is too easy")
			}
		})
	}
}

// TestMineTouchesIndexOnlyAtLevelOne pins what the sibling residuals buy: a
// mine reads the index during the level-1 sweep and never again. On an index
// whose every slice is cold, index ANDs — counted twice, from the kernel
// tallies and from the pool's page requests — are bounded by the sweep's
// worst case, the pool still faults (the sweep is real I/O), and the
// slice-chain mine of the same data faults many times more.
func TestMineTouchesIndexOnlyAtLevelOne(t *testing.T) {
	txs := questDB(t, 2000, 300)
	tau := mining.MinSupportCount(0.01, len(txs))
	miner, _ := buildMiner(t, txs, 400, 4) // 250-byte slices: one page request per cold AND
	pg := tierAll(t, miner, 4*pager.PageSize)

	bound := int64(0)
	for _, it := range miner.idx.Items() {
		bound += int64(len(sighash.SignatureBits(miner.idx.Hasher(), []txdb.Item{it})))
	}
	bound *= 2

	mine := func(cfg Config) (obs.KernelMetrics, pager.Stats) {
		cfg.MinSupport, cfg.Scheme, cfg.Workers, cfg.Observe = tau, DFP, 1, obs.New()
		before := pg.Stats()
		mineWith(t, miner, cfg)
		after := pg.Stats()
		return cfg.Observe.Metrics().Kernel, pager.Stats{
			Faults: after.Faults - before.Faults, Hits: after.Hits - before.Hits, Evictions: after.Evictions - before.Evictions}
	}
	k, io := mine(Config{})
	// Every evaluation below level 1 is one residual AND tallied as a
	// position-cache hit; what remains are the sweep's index ANDs.
	indexAnds := k.AndsDense + k.AndsSparse - k.PosCacheHits
	if k.PosCacheHits == 0 || indexAnds <= 0 || indexAnds > bound {
		t.Errorf("%d index ANDs for %d sibling evaluations, want 1..%d (twice the alphabet's slice positions)",
			indexAnds, k.PosCacheHits, bound)
	}
	if requests := io.Faults + io.Hits; requests != indexAnds {
		t.Errorf("the pool served %d page requests, the kernel tallies say %d index ANDs", requests, indexAnds)
	}
	if io.Faults == 0 || io.Evictions == 0 {
		t.Errorf("the sweep over a cold index must fault and evict: %+v", io)
	}
	_, chainIO := mine(Config{NoEarlyExit: true})
	if chainIO.Faults < 4*io.Faults {
		t.Errorf("slice-chain mine faulted %d times, sibling-residual mine %d; expected several times fewer",
			chainIO.Faults, io.Faults)
	}
}

// cancelAfter is a trace sink that cancels a context once it has seen n
// events, which lands the cancellation at a fixed point of the enumeration
// (the sweep emits none).
type cancelAfter struct {
	n      int64
	seen   atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfter) Write(p []byte) (int, error) {
	if c.seen.Add(1) == c.n {
		c.cancel()
	}
	return len(p), nil
}

// TestFilterReturnsEveryPooledVector is the leak accounting for the residual
// lifetime: every extension keeps a pooled vector until its earlier siblings
// are done, the parallel engine shares the root's across workers, and a
// cancelled run unwinds from the middle of all that — after any of it the
// pool must have everything back.
func TestFilterReturnsEveryPooledVector(t *testing.T) {
	txs := questDB(t, 800, 300)
	tau := mining.MinSupportCount(0.01, len(txs))
	for _, scheme := range []Scheme{SFS, DFP} {
		for _, workers := range []int{1, 4} {
			for _, cancelAt := range []int64{0, 1, 500} {
				t.Run(fmt.Sprintf("%s/workers=%d/cancelAt=%d", scheme, workers, cancelAt), func(t *testing.T) {
					miner, _ := buildMiner(t, txs, 400, 4)
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					reg := obs.New()
					reg.SetTracer(obs.NewTracer(&cancelAfter{n: cancelAt, cancel: cancel}, 1))
					r := newRun(miner, miner.idx, Config{Ctx: ctx, MinSupport: tau, Scheme: scheme, Workers: workers, Observe: reg})
					r.filter()
					if cancelAt == 0 {
						if r.err != nil || len(r.accepted)+len(r.uncertain) == 0 {
							t.Fatalf("uncancelled run: err %v, %d accepted, %d uncertain", r.err, len(r.accepted), len(r.uncertain))
						}
					} else if !errors.Is(r.err, context.Canceled) {
						t.Fatalf("run cancelled at event %d ended with err %v", cancelAt, r.err)
					}
					gets, _ := r.vecs.Counters()
					if n := r.vecs.Outstanding(); n != 0 || gets == 0 {
						t.Errorf("%d of %d pooled vectors never came back", n, gets)
					}
				})
			}
		}
	}
}
