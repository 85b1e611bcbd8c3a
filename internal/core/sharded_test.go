package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/iostat"
	"bbsmine/internal/mining"
	"bbsmine/internal/obs"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// buildPartsMiner indexes the transactions into len(lens) parts — part s
// takes the next lens[s] of them, so the view's block order is the
// transactions' own order — and binds a miner to the view.
func buildPartsMiner(t testing.TB, txs []txdb.Transaction, h sighash.Hasher, lens []int) *Miner {
	t.Helper()
	var stats iostat.Stats
	parts := make([]*sigfile.BBS, len(lens))
	stores := make([]txdb.Store, len(lens))
	next := 0
	for s, n := range lens {
		parts[s], stores[s] = sigfile.New(h, &stats), txdb.NewMemStore(&stats)
		for _, tx := range txs[next : next+n] {
			if err := stores[s].Append(tx); err != nil {
				t.Fatal(err)
			}
			parts[s].Insert(tx.Items)
		}
		next += n
	}
	if next != len(txs) {
		t.Fatalf("part lengths cover %d of %d transactions", next, len(txs))
	}
	view, err := sigfile.NewView(parts)
	if err != nil {
		t.Fatal(err)
	}
	miner, err := NewViewMiner(view, txdb.Concat(stores...), &stats)
	if err != nil {
		t.Fatal(err)
	}
	return miner
}

// TestPartsMineMatchesSingleIndex: a mine over parts read in place returns
// the Result and the funnel of a mine over one index holding the same rows
// in the same order — parts nowhere near each other's length (an empty one,
// a one-row one, word-boundary straddles), every scheme, constrained,
// adaptive, sequential and parallel.
func TestPartsMineMatchesSingleIndex(t *testing.T) {
	txs := questDB(t, 600, 200)
	tau := mining.MinSupportCount(0.015, len(txs))
	lens := []int{0, 1, 63, 64, 65, 130, 277}
	constraint := bitvec.New(len(txs))
	for i := 0; i < len(txs); i += 2 {
		constraint.Set(i)
	}
	single, _ := buildMiner(t, txs, 400, 4)
	parts := buildPartsMiner(t, txs, sighash.NewMD5(400, 4), lens)

	type shape struct {
		scheme      Scheme
		constrained bool
	}
	shapes := []shape{{SFS, false}, {SFP, false}, {DFS, false}, {DFP, false}, {SFS, true}, {SFP, true}}
	for _, sh := range shapes {
		for _, budget := range []int64{0, single.idx.TotalBytes() / 4} {
			for _, workers := range []int{1, 4} {
				cfg := Config{MinSupport: tau, Scheme: sh.scheme, MemoryBudget: budget, Workers: workers}
				if sh.constrained {
					cfg.Constraint, cfg.MinSupport = constraint, max(tau/2, 1)
				}
				name := fmt.Sprintf("%s/constrained=%v/budget=%d/workers=%d", sh.scheme, sh.constrained, budget, workers)
				mine := func(m *Miner) (*Result, obs.FunnelMetrics) {
					c := cfg
					c.Observe = obs.New()
					return mineWith(t, m, c), c.Observe.Metrics().Funnel
				}
				want, wantFunnel := mine(single)
				got, gotFunnel := mine(parts)
				if len(want.Patterns) == 0 {
					t.Fatalf("%s: mined nothing; the cell proves nothing", name)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Result over the parts differs (%d vs %d patterns, cand %d vs %d)",
						name, len(got.Patterns), len(want.Patterns), got.Candidates, want.Candidates)
				}
				if gotFunnel != wantFunnel {
					t.Errorf("%s: funnel differs\nparts:  %+v\nsingle: %+v", name, gotFunnel, wantFunnel)
				}
			}
		}
	}
	for _, q := range [][]txdb.Item{{txs[0].Items[0]}, txs[5].Items[:2], {9999}} {
		e1, x1, err1 := single.CountConstrained(q, constraint)
		e2, x2, err2 := parts.CountConstrained(q, constraint)
		if e1 != e2 || x1 != x2 || err1 != nil || err2 != nil {
			t.Errorf("Count(%v): parts %d/%d (%v), single index %d/%d (%v)", q, e2, x2, err2, e1, x1, err1)
		}
	}
}

// cancellingHasher cancels a context at the armed-th Positions call. The
// slice-chain evaluator asks the hasher for positions once per evaluation, so
// arming it before a mine lands the cancellation inside the level-1 sweep.
type cancellingHasher struct {
	sighash.Hasher
	armed  atomic.Int64
	cancel context.CancelFunc
}

func (h *cancellingHasher) Positions(it int32) []int {
	if h.armed.Load() > 0 && h.armed.Add(-1) == 0 {
		h.cancel()
	}
	return h.Hasher.Positions(it)
}

// TestPartsFilterReturnsEveryPooledVector is the leak accounting for a mine
// over parts: after a completed and a mid-sweep-cancelled filter, sequential
// and parallel, the residual pool has everything back and the run has let go
// of its per-part accumulators.
func TestPartsFilterReturnsEveryPooledVector(t *testing.T) {
	txs := questDB(t, 800, 300)
	tau := mining.MinSupportCount(0.01, len(txs))
	for _, workers := range []int{1, 4} {
		for _, cancelAt := range []int64{0, 40} {
			t.Run(fmt.Sprintf("workers=%d/cancelAt=%d", workers, cancelAt), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				h := &cancellingHasher{Hasher: sighash.NewMD5(400, 4), cancel: cancel}
				miner := buildPartsMiner(t, txs, h, []int{267, 266, 267})
				h.armed.Store(cancelAt)
				r := newRun(miner, miner.idx, Config{Ctx: ctx, MinSupport: tau, Scheme: DFP, Workers: workers})
				r.filter()
				if cancelAt == 0 {
					if r.err != nil || len(r.accepted) == 0 {
						t.Fatalf("uncancelled run: err %v, %d accepted", r.err, len(r.accepted))
					}
				} else if all := len(miner.idx.Items()); !errors.Is(r.err, context.Canceled) || len(r.items) == 0 || len(r.items) > int(cancelAt) || int(cancelAt) >= all {
					t.Fatalf("run cancelled at evaluation %d of a %d-item sweep ended with err %v after %d survivors", cancelAt, all, r.err, len(r.items))
				}
				if gets, _ := r.vecs.Counters(); r.vecs.Outstanding() != 0 || gets == 0 {
					t.Errorf("%d of %d pooled residuals never came back", r.vecs.Outstanding(), gets)
				}
				if r.buf != nil || r.accs != nil {
					t.Error("the run still holds its evaluation buffer or its per-part accumulators")
				}
			})
		}
	}
}
