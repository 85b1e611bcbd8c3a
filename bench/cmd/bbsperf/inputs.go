package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"bbsmine/internal/exp"
	"bbsmine/internal/serve"
	"bbsmine/internal/txdb"
	"bbsmine/internal/weblog"
)

// Everything the program under test is fed comes from here. The database is
// the same for every seed — a mine's cost follows its data, and a run-to-run
// spread that is really a dataset-to-dataset spread would hide a regression
// — and the seed draws what is asked of it: the count itemsets, the request
// plan and the write traffic. The same seed gives byte-identical inputs.

// sizing scales a run. The full size is the paper's fig6 point, so the
// numbers stay comparable to the ROADMAP's; tests shrink it.
type sizing struct {
	D              int     // transactions in the seed dataset
	TauFrac        float64 // minimum support of the mines, as a fraction of the database
	CountsPerRound int     // point Count queries per mine round
	CountPool      int     // distinct itemsets the Count queries cycle through
	PlanRequests   int     // length of the serve-mixed request plan
	WarmRequests   int     // plan prefix sent before the timed window
	SetupRepeats   int     // set-ups per run; setup_s is their median
	MaxRounds      int     // cap on timed rounds (0: the deadline alone ends the window)
	MaxRequests    int     // cap on timed serve requests (0: the deadline alone)
}

var fullSize = sizing{
	D:              10000,
	TauFrac:        0.003,
	CountsPerRound: 200,
	CountPool:      4000,
	PlanRequests:   8000,
	WarmRequests:   100,
	SetupRepeats:   5,
}

// Index geometry of the paper's fig6 point.
const (
	sigBits   = 1600
	sigHashes = 4
)

// genDataset generates the experiment harness's default dataset — Quest
// T10.I10 over 10000 items at seed 1 — with d transactions: D = 10000 is the
// paper's fig6 dataset, the one bbsbench and bbsd's bench mode use.
func genDataset(d int) ([]txdb.Transaction, error) {
	p := exp.Defaults(1)
	p.D = d
	txs, err := p.Dataset()
	if err != nil {
		return nil, fmt.Errorf("generating dataset: %w", err)
	}
	return txs, nil
}

// genCountPool draws n itemsets of 2–4 items for the point queries: four in
// five are a transaction's prefix (so they occur and the probe has work),
// one in five pairs items of two unrelated transactions (so the estimate
// collapses early). The seed picks the transactions; kinds and lengths
// follow the position in the pool, so every seed's pool has the same mix.
func genCountPool(seed int64, txs []txdb.Transaction, n int) [][]int32 {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	pick := func(atLeast int) txdb.Transaction {
		for {
			if tx := txs[rng.Intn(len(txs))]; len(tx.Items) >= atLeast {
				return tx
			}
		}
	}
	pool := make([][]int32, 0, n)
	for len(pool) < n {
		if i := len(pool); i%5 < 4 {
			k := 2 + (i/5)%3
			pool = append(pool, append([]int32(nil), pick(k).Items[:k]...))
			continue
		}
		a, b := pick(1), pick(1)
		x, y := a.Items[rng.Intn(len(a.Items))], b.Items[rng.Intn(len(b.Items))]
		if x == y {
			continue
		}
		if x > y {
			x, y = y, x
		}
		pool = append(pool, []int32{x, y})
	}
	return pool
}

// queryShape is one /mine request body the plan draws from.
type queryShape struct {
	Scheme     string
	TauFrac    float64
	Constraint int32 // < 0: none
}

func (q queryShape) String() string {
	if q.Constraint >= 0 {
		return fmt.Sprintf("%s@%g|item=%d", q.Scheme, q.TauFrac, q.Constraint)
	}
	return fmt.Sprintf("%s@%g", q.Scheme, q.TauFrac)
}

// The two shapes whose cold latency serve-mixed reports as mine_dfp_ms_p50
// and mine_sfs_ms_p50 lead the zipf order, so every epoch is likely to mine
// each of them cold once and their medians rest on enough samples.
const (
	shapeDFP = 0
	shapeSFS = 1
)

// queryShapes returns the 15 shapes in zipf rank order: 4 schemes × 3
// thresholds (τ, 4τ/3 and 2τ: 0.3%, 0.4% and 0.6% at full size), then three
// constrained single-filter shapes. The constraint items are the dataset's
// three most frequent items, so the constrained mines have transactions to
// work on.
func queryShapes(txs []txdb.Transaction, tau float64) []queryShape {
	mid, high := tau*4/3, tau*2
	shapes := []queryShape{
		{"DFP", tau, -1}, {"SFS", tau, -1},
		{"DFP", mid, -1}, {"DFP", high, -1},
		{"SFP", tau, -1}, {"SFP", mid, -1}, {"SFP", high, -1},
		{"DFS", tau, -1}, {"DFS", mid, -1}, {"DFS", high, -1},
		{"SFS", mid, -1}, {"SFS", high, -1},
	}
	top := topItems(txs, 3)
	return append(shapes,
		queryShape{"SFP", high, top[0]}, queryShape{"SFS", high, top[1]}, queryShape{"SFP", mid, top[2]})
}

// topItems returns the n most frequent items, ties broken by item number.
func topItems(txs []txdb.Transaction, n int) []int32 {
	counts := make(map[int32]int)
	for _, tx := range txs {
		for _, it := range tx.Items {
			counts[it]++
		}
	}
	top := make([]int32, 0, n)
	for len(top) < n {
		best := int32(-1)
		for it, c := range counts {
			if best < 0 || c > counts[best] || (c == counts[best] && it < best) {
				best = it
			}
		}
		top = append(top, best)
		delete(counts, best)
	}
	return top
}

// planned is one request of the serve-mixed plan. Shape indexes the query
// shapes for a read and is -1 for a write, whose transactions Insert holds.
type planned struct {
	Shape  int
	Body   []byte
	Insert [][]int32
}

// encodeShapes returns each shape's /mine request body.
func encodeShapes(shapes []queryShape) ([][]byte, error) {
	bodies := make([][]byte, len(shapes))
	for i, s := range shapes {
		q := serve.QueryRequest{Scheme: s.Scheme, MinSupportFrac: s.TauFrac}
		if s.Constraint >= 0 {
			item := s.Constraint
			q.ConstraintItem = &item
		}
		body, err := json.Marshal(q)
		if err != nil {
			return nil, fmt.Errorf("encoding query shape %s: %w", s, err)
		}
		bodies[i] = body
	}
	return bodies, nil
}

// genPlan pre-generates the serve-mixed request sequence: nine in ten are
// /mine over the shapes (bodies holds their encodings), zipf 1.4 by rank,
// one in ten is a /txns insert of 4–15 weblog-style transactions.
func genPlan(seed int64, bodies [][]byte, n int) ([]planned, error) {
	rng := rand.New(rand.NewSource(seed*104729 + 2))
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(bodies)-1))

	cfg := weblog.DefaultConfig()
	cfg.Seed = seed
	cfg.BaseTransactions = 64
	cfg.IncrementTransactions = 2048
	cfg.Days = 4
	w, err := weblog.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating write traffic: %w", err)
	}
	var pool [][]int32
	for _, inc := range w.Increments {
		for _, tx := range inc {
			pool = append(pool, tx.Items)
		}
	}
	next := 0

	plan := make([]planned, n)
	for i := range plan {
		if rng.Intn(10) > 0 {
			shape := int(zipf.Uint64())
			plan[i] = planned{Shape: shape, Body: bodies[shape]}
			continue
		}
		batch := make([][]int32, 4+rng.Intn(12))
		for j := range batch {
			batch[j] = pool[next%len(pool)]
			next++
		}
		body, err := json.Marshal(serve.TxnsRequest{Insert: batch})
		if err != nil {
			return nil, fmt.Errorf("encoding write batch: %w", err)
		}
		plan[i] = planned{Shape: -1, Body: body, Insert: batch}
	}
	return plan, nil
}
