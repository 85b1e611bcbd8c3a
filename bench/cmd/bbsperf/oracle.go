package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"bbsmine/internal/apriori"
	"bbsmine/internal/core"
	"bbsmine/internal/fptree"
	"bbsmine/internal/mining"
	"bbsmine/internal/txdb"
)

// The answer oracle. Ground truth is internal/apriori's exact frequent
// itemsets, cross-checked against internal/fptree when asked; a mined answer
// is right when it names exactly those itemsets, every support it marks
// exact equals the true one, and every estimate is at least the true one.

// truth maps an itemset's key to its exact support.
type truth map[string]int

// exactFrequents mines txs at threshold tau with Apriori. With crossCheck it
// also runs FP-growth and fails on any disagreement between the two.
func exactFrequents(txs []txdb.Transaction, tau int, crossCheck bool) (truth, error) {
	store, err := txdb.NewMemStoreFrom(nil, txs)
	if err != nil {
		return nil, fmt.Errorf("oracle store: %w", err)
	}
	want, err := apriori.Mine(store, apriori.Config{MinSupport: tau})
	if err != nil {
		return nil, fmt.Errorf("oracle apriori: %w", err)
	}
	if crossCheck {
		other, err := fptree.Mine(store, fptree.Config{MinSupport: tau})
		if err != nil {
			return nil, fmt.Errorf("oracle fptree: %w", err)
		}
		if diff := mining.Diff("apriori", want, "fptree", other); len(diff) > 0 {
			return nil, fmt.Errorf("the two oracles disagree at tau=%d: %v", tau, diff[0])
		}
	}
	return mining.ToMap(want), nil
}

// containing returns the transactions that contain item, the population a
// constrained mine works on.
func containing(txs []txdb.Transaction, item int32) []txdb.Transaction {
	var out []txdb.Transaction
	for _, tx := range txs {
		if tx.Contains([]int32{item}) {
			out = append(out, tx)
		}
	}
	return out
}

// pattern is the oracle's view of one mined itemset, common to a library
// Result and a decoded server answer.
type pattern struct {
	Items   []int32
	Support int
	Exact   bool
}

func patternsOf(res *core.Result) []pattern {
	out := make([]pattern, len(res.Patterns))
	for i, p := range res.Patterns {
		out[i] = pattern{Items: p.Items, Support: p.Support, Exact: p.Exact}
	}
	return out
}

// checkPatterns compares a mined answer with the ground truth.
func checkPatterns(got []pattern, want truth) error {
	if len(got) != len(want) {
		return fmt.Errorf("mined %d patterns, the oracle has %d", len(got), len(want))
	}
	for _, p := range got {
		sup, ok := want[mining.Key(p.Items)]
		switch {
		case !ok:
			return fmt.Errorf("mined %v, which is not frequent", p.Items)
		case p.Exact && p.Support != sup:
			return fmt.Errorf("%v: exact support %d, the oracle counts %d", p.Items, p.Support, sup)
		case p.Support < sup:
			return fmt.Errorf("%v: estimate %d undercounts the true support %d", p.Items, p.Support, sup)
		}
	}
	return nil
}

// hashPatterns is the canonical fingerprint of an answer: items, support and
// exactness of every pattern in answer order. Mining is deterministic, so a
// timed mine is right when its fingerprint equals that of the warm-up answer
// checkPatterns accepted.
func hashPatterns(ps []pattern) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:]) // a hash.Hash never fails a Write
	}
	for _, p := range ps {
		put(uint64(len(p.Items)))
		for _, it := range p.Items {
			put(uint64(it))
		}
		put(uint64(p.Support))
		if p.Exact {
			put(1)
		} else {
			put(0)
		}
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// bruteCount scans txs for the itemset.
func bruteCount(txs []txdb.Transaction, items []int32) int {
	n := 0
	for _, tx := range txs {
		if tx.Contains(items) {
			n++
		}
	}
	return n
}
