package sigfile

import (
	"maps"
	"slices"
)

// The exact 1-itemset counters, paged for copy-on-write.
//
// The DualFilter's side information is one counter per item. A served index
// snapshots after every write batch, and the batch after it bumps the
// counters of a handful of items; a single map shared with the snapshot
// would have to be cloned whole — every distinct item — before that first
// bump. The counters therefore live in fixed-size pages of countPageSize
// consecutive item IDs, and a snapshot shares them page by page:
//
//   - Snapshot copies the page pointers (one per page in use) and advances
//     the master's generation. Every page carries the generation it was
//     built in, so "shared with a snapshot" is simply "stamped with an
//     older generation" — nothing walks the pages to mark them. The sorted
//     page keys and the key → slot index change only when a page comes or
//     goes, so the snapshot shares them too, and the master copies them
//     only before such a change.
//   - A write clones only the page it lands on, once per generation.
//   - Items walks the pages in ascending key order, so it needs no sort.
//
// Any int32 is a valid item: the page key is the item's arithmetic shift
// (negative items get negative keys) and memory grows with the pages in
// use, not with the range of IDs. A counter that reaches zero means the
// item is absent, and a page whose last counter reaches zero leaves the
// table, so the table holds exactly the pages with a live item.

// A page holds 64 counters (256 B). The size trades what a write clones
// against what a snapshot copies: on a 10 K-item alphabet a five-row batch
// lands on about 40 of 157 pages, ≈ 11 KB, while the page pointers stay at
// one per 64 items; 256-counter pages quarter those but clone nearly every
// page of such an alphabet on each batch.
const (
	countPageShift = 6
	countPageSize  = 1 << countPageShift
	countPageMask  = countPageSize - 1
)

// countPage holds the counters of item IDs key<<countPageShift ... +countPageSize-1.
type countPage struct {
	gen    uint64 // the owning table's generation when the page was built
	used   int    // nonzero counters
	counts [countPageSize]uint32
}

// itemTable maps item IDs to exact supports. The zero value is an empty
// table. A table handed to a snapshot (share) is never written again; its
// pages may be shared with any number of later tables.
type itemTable struct {
	keys  []int32       // page keys (item >> countPageShift), ascending
	pages []*countPage  // pages[i] counts the items of page key keys[i]
	slot  map[int32]int // page key -> its index in keys and pages
	// shared: keys and slot are a snapshot's too, so they are copied
	// before the set of pages changes. pages is always the table's own.
	shared bool
	gen    uint64 // pages stamped with another generation are shared
	items  int    // nonzero counters over all pages
}

func pageKey(item int32) int32 { return item >> countPageShift }

// page returns the page with key k, nil when absent.
func (t *itemTable) page(k int32) *countPage {
	if i, ok := t.slot[k]; ok {
		return t.pages[i]
	}
	return nil
}

// get returns item's count, 0 when absent.
func (t *itemTable) get(item int32) int {
	if p := t.page(pageKey(item)); p != nil {
		return int(p.counts[item&countPageMask])
	}
	return 0
}

// len returns the number of items with a nonzero count.
func (t *itemTable) len() int { return t.items }

// appendItems appends every item with a nonzero count to out, ascending.
func (t *itemTable) appendItems(out []int32) []int32 {
	for i, k := range t.keys {
		base := k << countPageShift
		for off, c := range &t.pages[i].counts {
			if c != 0 {
				out = append(out, base|int32(off))
			}
		}
	}
	return out
}

// writable returns the page with key k ready for mutation: created when
// absent, cloned when a snapshot shares it.
func (t *itemTable) writable(k int32) *countPage {
	i, ok := t.slot[k]
	if !ok {
		t.ownIndex()
		i, _ = slices.BinarySearch(t.keys, k)
		t.keys = slices.Insert(t.keys, i, k)
		t.pages = slices.Insert(t.pages, i, &countPage{gen: t.gen})
		t.renumber(i)
		return t.pages[i]
	}
	p := t.pages[i]
	if p.gen != t.gen {
		c := *p
		c.gen = t.gen
		p = &c
		t.pages[i] = p
	}
	return p
}

// ownIndex makes keys and slot the table's own before the set of pages
// changes. O(pages) after a snapshot, free otherwise.
func (t *itemTable) ownIndex() {
	if t.shared {
		t.keys = slices.Clone(t.keys)
		t.slot = maps.Clone(t.slot)
		t.shared = false
	}
	if t.slot == nil {
		t.slot = make(map[int32]int)
	}
}

// renumber re-indexes keys[from:], whose slots an insert or delete at from
// has shifted. Pages arrive ascending on the load path, so there it is O(1).
func (t *itemTable) renumber(from int) {
	for i := from; i < len(t.keys); i++ {
		t.slot[t.keys[i]] = i
	}
}

// add increments item's count by one.
func (t *itemTable) add(item int32) {
	p := t.writable(pageKey(item))
	c := &p.counts[item&countPageMask]
	if *c == 0 {
		p.used++
		t.items++
	}
	*c++
}

// set stores item's count; c must be positive and fit a page counter (the
// loader checks both).
func (t *itemTable) set(item int32, c int) {
	p := t.writable(pageKey(item))
	slot := &p.counts[item&countPageMask]
	if *slot == 0 {
		p.used++
		t.items++
	}
	*slot = uint32(c)
}

// sub decrements item's count by one; an absent item stays absent.
func (t *itemTable) sub(item int32) {
	k := pageKey(item)
	p := t.page(k)
	if p == nil || p.counts[item&countPageMask] == 0 {
		return
	}
	if p.used == 1 && p.counts[item&countPageMask] == 1 {
		// The page's last item goes: drop the page, cloning nothing.
		t.items--
		t.ownIndex()
		i := t.slot[k]
		delete(t.slot, k)
		t.keys = slices.Delete(t.keys, i, i+1)
		t.pages = slices.Delete(t.pages, i, i+1)
		t.renumber(i)
		return
	}
	p = t.writable(k)
	c := &p.counts[item&countPageMask]
	if *c--; *c == 0 {
		p.used--
		t.items--
	}
}

// share returns a table for a snapshot: it reads the receiver's pages in
// place, and the receiver moves to a new generation, so its next write to
// any page clones that page first. Copies one pointer per page.
func (t *itemTable) share() itemTable {
	s := itemTable{keys: t.keys, pages: slices.Clone(t.pages), slot: t.slot, shared: true, gen: t.gen, items: t.items}
	t.shared = true
	t.gen++
	return s
}

// clone returns a deep copy that shares nothing with the receiver, which is
// left untouched (it may be a snapshot other goroutines read).
func (t *itemTable) clone() itemTable {
	c := itemTable{keys: slices.Clone(t.keys), pages: make([]*countPage, len(t.pages)), slot: maps.Clone(t.slot), items: t.items}
	for i, p := range t.pages {
		q := *p
		q.gen = 0
		c.pages[i] = &q
	}
	return c
}
