package txdb

import (
	"container/list"
	"sync"

	"bbsmine/internal/iostat"
	"bbsmine/internal/pager"
)

// pageCache models the buffer pool for random (probe) accesses, per the
// cost model in iostat: sequential scans stream through a ring buffer and
// never populate the cache, while point fetches stay resident after their
// first touch. A configured limit bounds residency with LRU eviction, so a
// long-running process (the serving daemon) holds at most limit/PageSize
// pages of bookkeeping no matter how large the file grows; with limit 0 the
// pool is unbounded — the steady-state model the benchmark figures assume,
// acceptable only for one-shot runs.
//
// The cache is safe for concurrent use: the parallel refinement engine
// issues Probe fetches from several workers at once, and each page must
// still be charged exactly once on first touch regardless of which worker
// faults it in. Hit, eviction, and residency tallies go to the store's
// iostat.Stats, which internal/obs folds into /metrics.
//
// Under tiered storage the private LRU is subsumed by the shared pager:
// attachPager installs a virtual pager.File and misses() delegates page
// residency to it, so transaction pages and cold slice pages compete for
// the one -mem-budget pool. While attached, the per-store page-cache
// tallies (hits/evictions/resident) are NOT charged — the pager's own
// gauges are the single source of truth and double-reporting the same
// residency in two places would overstate memory by up to 2x. Fault
// counts still flow back to the caller so rand-page accounting is
// unchanged.
type pageCache struct {
	mu       sync.Mutex
	limit    int64     // bytes; 0 = unbounded
	lru      list.List // front = most recently touched; values are int64 page numbers
	resident map[int64]*list.Element
	virt     *pager.File // non-nil: residency delegated to the shared pager
}

// misses returns the number of page faults for a random access to the byte
// range [start, end) of the file, updating residency LRU-wise and charging
// hit/eviction/residency tallies to stats (which may be nil).
func (c *pageCache) misses(start, end int64, stats *iostat.Stats) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if end <= start {
		end = start + 1 // a record read always touches its header page
	}
	first := start / iostat.PageSize
	last := (end - 1) / iostat.PageSize
	if c.virt != nil {
		// Residency lives in the shared pager (iostat.PageSize ==
		// pager.PageSize, so page numbering is identical). Touch admits
		// misses against the shared budget; its CLOCK sweep replaces the
		// private LRU, and the pager's gauges replace the stats charges.
		var faults int64
		for p := first; p <= last; p++ {
			if !c.virt.Touch(p) {
				faults++
			}
		}
		return faults
	}
	if c.resident == nil {
		c.resident = make(map[int64]*list.Element)
	}
	capPages := int64(-1) // unbounded
	if c.limit > 0 {
		capPages = c.limit / iostat.PageSize
	}
	var faults, hits, evicted int64
	for p := first; p <= last; p++ {
		if el, ok := c.resident[p]; ok {
			c.lru.MoveToFront(el)
			hits++
			continue
		}
		faults++
		c.resident[p] = c.lru.PushFront(p)
		for capPages >= 0 && int64(len(c.resident)) > capPages {
			back := c.lru.Back()
			c.lru.Remove(back)
			delete(c.resident, back.Value.(int64))
			evicted++
		}
	}
	if stats != nil {
		stats.AddPageCacheHits(hits)
		stats.AddPageCacheEvictions(evicted)
		stats.AddPageCacheResident(faults - evicted)
	}
	return faults
}

// setLimit reconfigures the cache size and drops residency. It does not
// detach an attached pager: the virtual file keeps precedence, and the
// limit only takes effect again if the pager is detached.
func (c *pageCache) setLimit(bytes int64, stats *iostat.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if stats != nil && len(c.resident) > 0 {
		stats.AddPageCacheResident(-int64(len(c.resident)))
	}
	c.limit = bytes
	c.lru.Init()
	c.resident = nil
}

// attachPager hands residency modeling to a virtual file on the shared
// pager, dropping (and un-charging) the private LRU. A nil f detaches,
// restoring the private limit/LRU model. The *pager.File frames survive in
// the pool — Touch hits keep their history — and the caller owns closing f.
func (c *pageCache) attachPager(f *pager.File, stats *iostat.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if stats != nil && len(c.resident) > 0 {
		stats.AddPageCacheResident(-int64(len(c.resident)))
	}
	c.lru.Init()
	c.resident = nil
	c.virt = f
}

// pagerFile returns the attached virtual file, nil when detached.
func (c *pageCache) pagerFile() *pager.File {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.virt
}

// residentPages returns the current residency, for tests.
func (c *pageCache) residentPages() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.resident)
}

// CacheLimiter is implemented by stores whose buffer-cache model can be
// bounded; mining runs propagate their memory budget through it.
type CacheLimiter interface {
	// SetCacheLimit bounds the modeled buffer pool to the given bytes (LRU
	// eviction beyond it) and resets residency. Zero removes the bound.
	SetCacheLimit(bytes int64)
}

// attachPager's delegation reuses txdb's page numbering verbatim, which is only
// sound while both layers agree on the page size.
var _ [pager.PageSize - iostat.PageSize]struct{}
var _ [iostat.PageSize - pager.PageSize]struct{}
