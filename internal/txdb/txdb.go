// Package txdb implements the transaction database substrate of the
// reproduction: the data model (transactions over an item alphabet), an
// in-memory store, and a persistent file-backed store with the positional
// index that the paper's Probe refinement requires ("the key of the index is
// the relative position of the transaction from the beginning of the file").
//
// Both stores charge their logical page accesses to an iostat.Stats, so the
// mining algorithms see the same cost accounting whether the data lives in
// RAM or on disk.
package txdb

import (
	"fmt"
	"slices"

	"bbsmine/internal/iostat"
)

// Item identifies a single item (literal) of the alphabet I = {i1..iN}.
type Item = int32

// Transaction is one database row: a unique identifier and a set of items.
// Items are kept sorted ascending and duplicate-free; NewTransaction
// normalizes arbitrary input into that form.
type Transaction struct {
	TID   int64
	Items []Item
}

// NewTransaction builds a normalized transaction: items are sorted and
// deduplicated. The input slice is not modified; input that is already
// sorted skips the sort.
func NewTransaction(tid int64, items []Item) Transaction {
	out := make([]Item, len(items))
	copy(out, items)
	if !slices.IsSorted(out) {
		slices.Sort(out)
	}
	// Compact duplicates in place.
	w := 0
	for r := 0; r < len(out); r++ {
		if r == 0 || out[r] != out[r-1] {
			out[w] = out[r]
			w++
		}
	}
	return Transaction{TID: tid, Items: out[:w]}
}

// Contains reports whether the transaction contains every item of the given
// sorted itemset. Both sides must be sorted ascending (NewTransaction and the
// miners maintain this invariant), so the test is a linear merge.
func (t Transaction) Contains(itemset []Item) bool {
	i, j := 0, 0
	for i < len(itemset) {
		for j < len(t.Items) && t.Items[j] < itemset[i] {
			j++
		}
		if j >= len(t.Items) || t.Items[j] != itemset[i] {
			return false
		}
		i++
		j++
	}
	return true
}

// EncodedSize returns the number of bytes the transaction occupies in the
// on-disk record format (see encoding.go). The in-memory store uses it to
// charge page I/O identically to the file store.
func (t Transaction) EncodedSize() int {
	n := uvarintLen(uint64(t.TID)) + uvarintLen(uint64(len(t.Items)))
	prev := Item(0)
	for i, it := range t.Items {
		if i == 0 {
			n += uvarintLen(uint64(it))
		} else {
			n += uvarintLen(uint64(it - prev))
		}
		prev = it
	}
	return n
}

// Validate checks the transaction invariants: non-negative TID, items sorted
// strictly ascending, and no negative items.
func (t Transaction) Validate() error {
	if t.TID < 0 {
		return fmt.Errorf("txdb: negative TID %d", t.TID)
	}
	for i, it := range t.Items {
		if it < 0 {
			return fmt.Errorf("txdb: negative item %d in TID %d", it, t.TID)
		}
		if i > 0 && t.Items[i-1] >= it {
			return fmt.Errorf("txdb: items not strictly ascending at index %d in TID %d", i, t.TID)
		}
	}
	return nil
}

// Store is the access interface the mining algorithms use. Ordinal positions
// (0-based, insertion order) are stable: position i in the store corresponds
// to bit i of every BBS slice.
type Store interface {
	// Len returns the number of transactions.
	Len() int
	// Scan calls fn for every transaction in ordinal order and charges one
	// sequential pass to the stats. Iteration stops early if fn returns
	// false; the full pass is still charged, matching a disk scan that
	// cannot be abandoned page-precisely. The Transaction passed to fn may
	// be retained by the callback: both stores hand out records whose item
	// slices are never mutated afterwards.
	Scan(fn func(pos int, tx Transaction) bool) error
	// Get fetches the transaction at ordinal position pos, charging the
	// page(s) the record spans. Get is safe for concurrent use (the
	// parallel Probe refinement fetches from several goroutines at once),
	// as long as no Append or Scan runs concurrently.
	Get(pos int) (Transaction, error)
	// Append adds a transaction at the next ordinal position. Append is not
	// safe for concurrent use with any other method.
	Append(tx Transaction) error
}

// MemStore is a RAM-resident Store. It mirrors the file store's page
// accounting by tracking each record's virtual byte offset.
type MemStore struct {
	txs     []Transaction
	offsets []int64 // virtual byte offset of each record
	size    int64   // total virtual bytes
	stats   *iostat.Stats
	cache   pageCache
}

// NewMemStore returns an empty in-memory store charging I/O to stats.
// A nil stats disables accounting.
func NewMemStore(stats *iostat.Stats) *MemStore {
	if stats == nil {
		stats = &iostat.Stats{}
	}
	return &MemStore{stats: stats}
}

// NewMemStoreFrom builds a MemStore pre-loaded with the given transactions.
func NewMemStoreFrom(stats *iostat.Stats, txs []Transaction) (*MemStore, error) {
	s := NewMemStore(stats)
	for _, tx := range txs {
		if err := s.Append(tx); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Len implements Store.
func (s *MemStore) Len() int { return len(s.txs) }

// Scan implements Store.
func (s *MemStore) Scan(fn func(pos int, tx Transaction) bool) error {
	s.stats.AddDBScan()
	s.stats.AddDBSeqPages(pagesFor(s.size))
	for i, tx := range s.txs {
		if !fn(i, tx) {
			break
		}
	}
	return nil
}

// Get implements Store.
func (s *MemStore) Get(pos int) (Transaction, error) {
	if pos < 0 || pos >= len(s.txs) {
		return Transaction{}, fmt.Errorf("txdb: position %d out of range [0,%d)", pos, len(s.txs))
	}
	start := s.offsets[pos]
	end := s.size
	if pos+1 < len(s.offsets) {
		end = s.offsets[pos+1]
	}
	s.stats.AddDBRandPages(s.cache.misses(start, end, s.stats))
	return s.txs[pos], nil
}

// SetCacheLimit implements CacheLimiter.
func (s *MemStore) SetCacheLimit(bytes int64) { s.cache.setLimit(bytes, s.stats) }

// Append implements Store.
func (s *MemStore) Append(tx Transaction) error {
	if err := tx.Validate(); err != nil {
		return err
	}
	s.offsets = append(s.offsets, s.size)
	s.size += int64(tx.EncodedSize())
	s.txs = append(s.txs, tx)
	return nil
}

// Stats returns the stats sink the store charges to.
func (s *MemStore) Stats() *iostat.Stats { return s.stats }

// pagesFor returns the number of whole pages covering n bytes.
func pagesFor(n int64) int64 {
	return (n + iostat.PageSize - 1) / iostat.PageSize
}
