package core

import (
	"fmt"
	"slices"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// Count answers the paper's first ad-hoc query (Section 4.9): the number of
// occurrences of an arbitrary itemset — frequent or not. The estimate comes
// from one CountItemSet over the BBS; the exact count probes only the
// transactions whose bits survive. Apriori must rescan the database for
// this; FP-tree cannot answer it at all (it stores no information about
// non-frequent patterns).
func (m *Miner) Count(itemset []txdb.Item) (est, exact int, err error) {
	return m.CountConstrained(itemset, nil)
}

// CountConstrained answers the paper's second ad-hoc query: the count of an
// itemset among the transactions marked in the constraint slice (e.g. "TIDs
// divisible by 7"). A nil constraint means no restriction.
//
// The itemset is hashed once: the same positions size the slice-read charge
// and drive the chain. A repeated item counts once (an itemset is a set), so
// it is deduplicated before the probes test containment.
func (m *Miner) CountConstrained(itemset []txdb.Item, constraint *bitvec.Vector) (est, exact int, err error) {
	if constraint != nil && constraint.Len() != m.idx.Len() {
		return 0, 0, fmt.Errorf("core: constraint length %d != index length %d", constraint.Len(), m.idx.Len())
	}
	sorted := slices.Clone(itemset)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	pos := sighash.SignatureBits(m.idx.Hasher(), sorted)

	// An ad-hoc query touches only the slices of the itemset's signature
	// (plus the constraint slice); charge those reads — this is exactly the
	// I/O advantage over Apriori's full database scan (Figure 13).
	m.idx.ChargeSliceReads(len(pos))
	est, vec := m.idx.CountSignature(pos)
	if constraint != nil && est > 0 {
		// The constraint slice is AND-ed after the item slices: one more
		// slice read, one more AND.
		m.idx.ChargeSliceReads(1)
		m.stats.AddSliceAnd()
		est = vec.AndCount(constraint)
	}
	if est == 0 {
		return 0, 0, nil
	}
	exact = 0
	var getErr error
	vec.ForEachSet(func(row int) bool {
		tx, err := m.store.Get(row)
		m.stats.AddProbe()
		if err != nil {
			getErr = err
			return false
		}
		if tx.Contains(sorted) {
			exact++
		}
		return true
	})
	if getErr != nil {
		return 0, 0, fmt.Errorf("core: probing: %w", getErr)
	}
	return est, exact, nil
}

// BuildConstraint materializes a constraint slice from a predicate over the
// stored transactions, e.g. "TID divisible by 7". It costs one sequential
// pass; the paper's Section 3.4 notes that constructing slices for
// arbitrary constraints is outside its scope, so this helper keeps it
// explicit and reusable — build once, query many times.
func BuildConstraint(store txdb.Store, pred func(pos int, tx txdb.Transaction) bool) (*bitvec.Vector, error) {
	//lint:ignore pooledvec one-off cold-path build; needs a zeroed vector and no run (or pool) is in scope
	v := bitvec.New(store.Len())
	err := store.Scan(func(pos int, tx txdb.Transaction) bool {
		if pred(pos, tx) {
			v.Set(pos)
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("core: building constraint: %w", err)
	}
	return v, nil
}

// MineApprox is the paper's future-work extension (Section 5): filtering
// with no refinement phase at all. The result is a superset of the frequent
// patterns whose supports are BBS estimates (never undercounts); callers
// trade false drops for the shortest possible running time. The single
// filter is used so the answer depends only on the index. workers sizes the
// worker pool as Config.Workers does (0 means one per CPU); the result is
// the same for every value.
func (m *Miner) MineApprox(minSupport, maxLen, workers int) ([]Pattern, error) {
	if minSupport <= 0 {
		return nil, fmt.Errorf("core: MinSupport must be positive, got %d", minSupport)
	}
	r := newRun(m, m.idx, Config{MinSupport: minSupport, Scheme: SFS, MaxLen: maxLen, Workers: workers})
	r.filter()
	out := r.uncertain // SFS filtering stores the estimate as the support
	sortPatterns(out)
	return out, nil
}
