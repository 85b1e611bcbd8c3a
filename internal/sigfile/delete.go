package sigfile

import (
	"fmt"

	"bbsmine/internal/bitvec"
)

// Deletion support. The paper's BBS handles growth natively; deletions are
// this implementation's extension, built from the same primitives the paper
// uses for constraints (Section 3.4): a live-row mask AND-ed into every
// slice intersection. Bits of deleted transactions remain set in the
// slices (a Bloom bit cannot be unset — other transactions may share it),
// but the mask removes the row from every estimate, so Lemmas 1–4 continue
// to hold over the live rows. The exact 1-itemset counters are decremented
// with the deleted transaction's items, so the DualFilter's certificates
// (Lemma 5 / Corollary 1) also remain sound. Space is reclaimed by
// rebuilding (compaction), which the facade drives.

// Delete marks the transaction at ordinal position pos as deleted, given
// its items (needed to maintain the exact 1-itemset counters). Deleting a
// position twice or out of range is an error.
func (b *BBS) Delete(pos int, items []int32) error {
	if pos < 0 || pos >= b.n {
		return fmt.Errorf("sigfile: delete position %d out of range [0,%d)", pos, b.n)
	}
	if b.live == nil {
		b.live = bitvec.New(b.n)
		b.live.SetAll()
		b.cowLive = false // freshly built, shared with no snapshot
	}
	if !b.live.Get(pos) {
		return fmt.Errorf("sigfile: position %d already deleted", pos)
	}
	b.mutableLive().Clear(pos)
	b.deleted++

	seen := make(map[int32]struct{}, len(items))
	for _, it := range items {
		if _, dup := seen[it]; dup {
			continue
		}
		seen[it] = struct{}{}
		b.itemCounts.sub(it)
	}
	return nil
}

// IsLive reports whether the transaction at pos has not been deleted.
// Out-of-range positions report false.
func (b *BBS) IsLive(pos int) bool {
	if pos < 0 || pos >= b.n {
		return false
	}
	return b.live == nil || b.live.Get(pos)
}

// Deleted returns the number of tombstoned transactions.
func (b *BBS) Deleted() int { return b.deleted }

// Live returns the number of live (non-deleted) transactions.
func (b *BBS) Live() int { return b.n - b.deleted }
