package sigfile

import (
	"fmt"
	"sort"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/pager"
)

// Tiered slice storage.
//
// Tier splits the index's slices into a hot tier (payload resident, its
// bytes reserved against the pager budget) and a cold tier (payload
// serialized into a sealed, packed page file — several slices to a page,
// hotter ones first — faulted page-at-a-time through the shared buffer
// pool during AND chains). The split is driven by observed AND
// participation — the per-slice touch counts internal/obs tallies during a
// profiling run — so the slices queries actually intersect stay pinned
// while the long tail pages in on demand.
//
// Tiering moves bytes, never bits: a cold slice keeps its header
// (encoding, length, popcount) resident, so rarest-first ordering, the
// early exit, and the estimates are computed from exactly the same values
// as the resident index, and the cold AND kernels are bit-identical to
// their resident counterparts. Results are byte-for-byte unchanged.
//
// The cold file is derived data — rebuilt from the authoritative index by
// the next Tier call — so losing it costs a rebuild, never correctness.

// coldSource adapts one extent of a pager.File to bitvec.PageSource.
// Faults that fail surface by panicking with a wrapped error (the
// PageSource contract): a cold read failing mid-AND has no local recovery,
// and cold files are rebuildable, so the process-level handler is the
// right place for it.
type coldSource struct {
	f    *pager.File
	base int64 // payload page holding the first byte of this slice's extent
}

func (c coldSource) Page(k int) []byte {
	pg, err := c.f.Page(c.base + int64(k))
	if err != nil {
		panic(fmt.Errorf("sigfile: fault cold slice page: %w", err))
	}
	return pg
}

func (c coldSource) Release(k int) { c.f.Release(c.base + int64(k)) }
func (c coldSource) PageSize() int { return pager.PageSize }

// Tier re-platforms the index's slice storage on pg: slices ranked hottest
// by touches (AND-participation counts, index = slice position; nil falls
// back to smallest-payload-first) stay resident until their summed payload
// reaches hotBudget, and every other slice's payload moves to a sealed
// cold file at path — packed in the same hot-first rank, so the slices most
// likely to be AND-ed next share pages — replaced in the index by a cold
// header that faults pages through pg during AND chains. The hot tier's
// bytes are reserved against pg's budget, so pinned-hot slices and faulted
// cold pages compete for one allowance.
//
// Single-writer only, like every mutation. Installing cold headers
// replaces slice pointers, which is snapshot-safe (a snapshot copied the
// pointer table and keeps reading the resident slices), but the usual
// serving discipline applies: call it from the commit loop, not under
// concurrent queries on the master.
func (b *BBS) Tier(pg *pager.Pager, path string, hotBudget int64, touches []uint64) error {
	if pg == nil {
		return fmt.Errorf("sigfile: tier without a pager")
	}
	if b.tierFile != nil {
		return fmt.Errorf("sigfile: index already tiered (cold file %s)", b.tierFile.Name())
	}

	// Rank hot-first: most-touched, then smallest payload (cheapest to keep),
	// then position for determinism.
	order := make([]int, len(b.slices))
	for i := range order {
		order[i] = i
	}
	touch := func(p int) uint64 {
		if p < len(touches) {
			return touches[p]
		}
		return 0
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, c := order[i], order[j]
		if ta, tc := touch(a), touch(c); ta != tc {
			return ta > tc
		}
		if ba, bc := b.slices[a].Bytes(), b.slices[c].Bytes(); ba != bc {
			return ba < bc
		}
		return a < c
	})

	var hotBytes int64
	cold := make([]bool, len(b.slices))
	ncold := 0
	for _, p := range order {
		sz := b.slices[p].Bytes()
		if sz == 0 {
			continue // empty payload: staying hot is free
		}
		if hotBytes+sz <= hotBudget {
			hotBytes += sz
			continue
		}
		cold[p] = true
		ncold++
	}
	if ncold == 0 {
		pg.Reserve(hotBytes)
		b.tierPager = pg
		b.tierReserved = hotBytes
		return nil
	}

	// Write cold payloads in rank order: a deterministic layout in which a
	// page's neighbours are the slices touched about as often as each other,
	// so one fault brings in the likeliest next operands.
	w, err := pager.Create(path)
	if err != nil {
		return err
	}
	offs := make([]int64, len(b.slices))
	sizes := make([]int, len(b.slices))
	for _, p := range order {
		if !cold[p] {
			continue
		}
		payload := b.slices[p].EncodeCold()
		off, err := w.Append(payload)
		if err != nil {
			w.Abort()
			return err
		}
		offs[p] = off
		sizes[p] = len(payload)
	}
	if err := w.Seal(); err != nil {
		return err
	}
	f, err := pg.OpenCold(path)
	if err != nil {
		return err
	}

	for p, s := range b.slices {
		if !cold[p] {
			continue
		}
		b.slices[p] = bitvec.NewColdSlice(s.Encoding(), s.Len(), s.Ones(),
			coldSource{f: f, base: offs[p] / pager.PageSize}, int(offs[p]%pager.PageSize), sizes[p])
		if b.cow != nil {
			b.cow[p] = false // fresh header, shared with no snapshot
		}
	}
	pg.Reserve(hotBytes)
	b.tierPager = pg
	b.tierReserved = hotBytes
	b.tierFile = f
	return nil
}

// Untier thaws every cold slice back to residency, returns the hot-tier
// reservation, and closes the cold file. The inverse of Tier; the cold
// file on disk is left behind (it is derived data — delete or overwrite it
// freely).
func (b *BBS) Untier() error {
	if b.tierPager == nil {
		return nil
	}
	for p, s := range b.slices {
		if !s.IsCold() {
			continue
		}
		b.slices[p] = s.Thaw()
		if b.cow != nil {
			b.cow[p] = false
		}
	}
	return b.CloseTier()
}

// CloseTier ends a tiered index's storage without thawing it: it returns
// the hot-tier reservation and closes the cold file. Cold slices, in the
// index and in every snapshot of it, can no longer be read, so call it only
// once nothing will query the index again, and after saving it: Save reads
// the cold pages. Untier is the way back to a resident index.
func (b *BBS) CloseTier() error {
	if b.tierPager == nil {
		return nil
	}
	b.tierPager.Reserve(-b.tierReserved)
	b.tierReserved = 0
	b.tierPager = nil
	f := b.tierFile
	b.tierFile = nil
	return f.Close()
}

// Tiered reports whether the index's storage is currently tiered.
func (b *BBS) Tiered() bool { return b.tierPager != nil }

// TierCensus returns how many slices are pinned hot and how many are cold.
func (b *BBS) TierCensus() (hot, cold int) {
	for _, s := range b.slices {
		if s.IsCold() {
			cold++
		} else {
			hot++
		}
	}
	return hot, cold
}

// ColdPayloadBytes returns the summed cold-tier payload size in bytes.
func (b *BBS) ColdPayloadBytes() int64 {
	var total int64
	for _, s := range b.slices {
		total += s.ColdPayloadBytes()
	}
	return total
}
