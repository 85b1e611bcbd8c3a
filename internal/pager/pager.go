// Package pager is the page-granular buffer manager behind tiered slice
// storage: a bounded frame pool shared by every cold consumer in the
// process, so compressed slice payloads and the transaction store pay for
// memory out of one budget (-mem-budget).
//
// The pool is a frame table plus a CLOCK ring. A Page call pins a frame
// (faulting it from the cold file read-through if absent), the caller
// streams the bytes, and Release unpins it. Eviction is second-chance
// CLOCK: a sweep clears reference bits and reclaims the first frame that
// is unpinned and unreferenced. A fault into a full pool reclaims its
// victim first and reads the new page into the victim's buffer, so a
// steady-state fault is one pread plus table and ring bookkeeping — no
// allocation. Pinning is strictly a performance lever — every page can
// always be re-faulted from its sealed cold file — so over- or
// under-retention can never change a result, only move I/O. That is also
// why nothing outside a pin protects a frame: a serve snapshot reading a
// cold tier depends on the sealed file staying open, never on its pages
// staying resident.
//
// Cold files are derived data, rebuilt from the authoritative index at
// tiering time, and are written with a crash-safe ordering: payload pages
// are flushed and fsynced before the sealed header is written and fsynced,
// and the whole file lands under a temp name renamed into place. Open
// refuses an unsealed file, so a torn write can never serve bytes.
package pager

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// PageSize is the frame granularity in bytes. It divides by 8, so a dense
// cold payload's uint64 words never straddle a page boundary.
const PageSize = 4096

// Stats is a point-in-time snapshot of the pool's counters, readable
// without the pool lock.
type Stats struct {
	ResidentBytes int64 // bytes currently held by frames and recycled page buffers
	ReservedBytes int64 // hot-tier bytes charged against the budget via Reserve
	Faults        int64 // pages read through from cold files (or first virtual touches)
	Hits          int64 // page requests served from a resident frame
	Evictions     int64 // frames reclaimed by the CLOCK sweep
}

// HitRatio returns hits / (hits + faults), or 0 before any traffic.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Faults
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type frameKey struct {
	file *File
	page int64
}

// frame is one resident page. pins, ref and slot are all guarded by
// the owning Pager's mu; data is filled at fault time and read-only until
// the frame leaves the table, so pinned readers may use it outside the
// lock. The CLOCK sweep only ever evicts an unpinned frame, and a fault
// then recycles it, struct and buffer; frames dropped with their file
// (dropFile, pinned or not) are left to the GC instead.
type frame struct {
	file *File
	page int64
	data []byte // nil for virtual frames (residency model only)
	size int64
	pins int  // guarded by Pager.mu
	ref  bool // CLOCK second-chance bit; guarded by Pager.mu
	slot int  // index in Pager.ring; guarded by Pager.mu
}

// Pager is the shared buffer pool. All methods are safe for concurrent use
// and safe on a nil receiver (no-ops / zero values), which lets call sites
// stay unconditional when tiering is off.
type Pager struct {
	budget int64 // bytes; <= 0 means unbounded; immutable after New

	mu       sync.Mutex
	reserved int64 // hot-tier reservation, counted against budget; guarded by mu
	frames   map[frameKey]*frame
	ring     []*frame // CLOCK ring; guarded by mu
	hand     int      // CLOCK hand; guarded by mu
	resident int64    // sum of frame sizes; guarded by mu
	free     []*frame // unpinned ex-frames, each owning a PageSize buffer, awaiting reuse; guarded by mu

	// Counters are atomics so Stats and /metrics read them without the
	// pool lock; residentGauge mirrors heldLocked() for the same reason.
	faults        atomic.Int64
	hits          atomic.Int64
	evictions     atomic.Int64
	residentGauge atomic.Int64
	reservedGauge atomic.Int64
}

// New returns a pool bounded to budget bytes (frames plus hot-tier
// reservations). budget <= 0 means unbounded: everything faulted stays
// resident.
func New(budget int64) *Pager {
	return &Pager{
		budget: budget,
		frames: make(map[frameKey]*frame),
	}
}

// Budget returns the byte budget the pool was built with (0 if unbounded
// or the receiver is nil).
func (p *Pager) Budget() int64 {
	if p == nil {
		return 0
	}
	return p.budget
}

// Reserve charges n bytes of hot-tier (permanently resident) storage
// against the budget, shrinking what the frame pool may hold. Negative n
// returns a reservation. Tiering uses it so pinned-hot slices and faulted
// cold pages compete for one budget.
func (p *Pager) Reserve(n int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.reserved += n
	p.reservedGauge.Store(p.reserved)
	p.evictLocked()
	p.mu.Unlock()
}

// Stats returns the pool's counters. Safe on nil (zero Stats).
//
// The counters are independent atomics, so a snapshot taken against
// concurrent traffic is not a single instant. One cross-counter invariant
// is still guaranteed: Evictions <= Faults. Only an admitted frame can be
// evicted, so the true counts always satisfy it, and evictions is read
// first here, so new faults can only land on the large side of the
// inequality.
func (p *Pager) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	ev := p.evictions.Load() // before faults; see the invariant above
	return Stats{
		ResidentBytes: p.residentGauge.Load(),
		ReservedBytes: p.reservedGauge.Load(),
		Faults:        p.faults.Load(),
		Hits:          p.hits.Load(),
		Evictions:     ev,
	}
}

// pinLocked records a hit on an existing frame. Caller holds mu.
func (p *Pager) pinLocked(fr *frame, pin bool) {
	if pin {
		fr.pins++
	}
	fr.ref = true
}

// heldLocked is the memory the pool answers for: resident frames plus
// recycled buffers waiting on the free list. Caller holds mu.
func (p *Pager) heldLocked() int64 {
	return p.resident + int64(len(p.free))*PageSize
}

// admitLocked installs a freshly faulted frame. Caller holds mu.
func (p *Pager) admitLocked(fr *frame) {
	fr.slot = len(p.ring)
	p.ring = append(p.ring, fr)
	p.frames[frameKey{fr.file, fr.page}] = fr
	p.resident += fr.size
	p.faults.Add(1)
	p.evictLocked()
}

// evictLocked shrinks the pool until held+reserved fits the budget:
// recycled buffers go to the GC first, then frames are reclaimed — and
// dropped rather than recycled, since the pool has to get smaller — until
// it fits or the CLOCK sweep finds nothing evictable (every frame pinned).
// Then the pool runs soft-over-budget rather than block,
// since pinning is advisory and correctness never depends on the bound.
// Caller holds mu.
func (p *Pager) evictLocked() {
	for p.budget > 0 && p.heldLocked()+p.reserved > p.budget {
		if p.popFreeLocked() == nil && p.victimLocked() == nil {
			break
		}
	}
	p.residentGauge.Store(p.heldLocked())
}

// victimLocked advances the CLOCK hand until it reclaims one frame, which
// it removes from the table and returns. Two revolutions bound the sweep —
// one to clear reference bits, one to reclaim — and nil means every frame
// is pinned. Caller holds mu.
func (p *Pager) victimLocked() *frame {
	for scans := 2 * len(p.ring); scans > 0; scans-- {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		fr := p.ring[p.hand]
		switch {
		case fr.pins > 0:
			p.hand++
		case fr.ref:
			fr.ref = false
			p.hand++
		default:
			p.removeLocked(fr)
			p.evictions.Add(1)
			return fr
		}
	}
	return nil
}

// removeLocked drops a frame from the table and the ring (swap-remove; the
// hand stays put so the frame moved into the hole is considered next).
// Caller holds mu.
func (p *Pager) removeLocked(fr *frame) {
	delete(p.frames, frameKey{fr.file, fr.page})
	last := len(p.ring) - 1
	p.ring[fr.slot] = p.ring[last]
	p.ring[fr.slot].slot = fr.slot
	p.ring[last] = nil
	p.ring = p.ring[:last]
	p.resident -= fr.size
}

// recycleLocked hands an unpinned frame that has left the table (or never
// entered it) to the free list. Virtual frames own no buffer and are left
// to the GC. Caller holds mu.
func (p *Pager) recycleLocked(fr *frame) {
	if fr.data != nil {
		p.free = append(p.free, fr)
	}
}

// popFreeLocked takes a recycled frame off the free list, nil if it is
// empty. Caller holds mu.
func (p *Pager) popFreeLocked() *frame {
	n := len(p.free)
	if n == 0 {
		return nil
	}
	fr := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return fr
}

// bufferLocked returns a frame owning a PageSize buffer for a fault to
// read into. A full pool pays for the page before reading it: its CLOCK
// victim goes to the free list and comes straight back, so the steady
// state allocates nothing. A fresh buffer is made only while the pool is
// still filling or when nothing is evictable. Caller holds mu.
func (p *Pager) bufferLocked() *frame {
	if len(p.free) == 0 && p.budget > 0 && p.resident+p.reserved+PageSize > p.budget {
		if fr := p.victimLocked(); fr != nil {
			p.recycleLocked(fr)
		}
	}
	if fr := p.popFreeLocked(); fr != nil {
		return fr
	}
	return &frame{data: make([]byte, PageSize)}
}

// page is the shared fault path: return the frame for (f, k), faulting it
// in if absent. pin=true leaves it pinned for the caller to Release.
func (p *Pager) page(f *File, k int64, pin bool) ([]byte, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr, ok := p.frames[frameKey{f, k}]; ok {
		p.pinLocked(fr, pin)
		p.hits.Add(1)
		return fr.data, true, nil
	}
	var fr *frame
	if f.f == nil {
		fr = &frame{} // virtual pages model residency only: no buffer to recycle
	} else {
		if k < 0 || k >= f.pages {
			return nil, false, fmt.Errorf("pager: page %d out of range [0,%d) in %s", k, f.pages, f.name)
		}
		fr = p.bufferLocked()
		if _, err := f.f.ReadAt(fr.data, (k+1)*PageSize); err != nil {
			p.recycleLocked(fr)
			p.evictLocked() // the buffer stays only if the budget has room for it
			return nil, false, fmt.Errorf("pager: read %s page %d: %w", f.name, k, err)
		}
	}
	*fr = frame{file: f, page: k, data: fr.data, size: PageSize, ref: true}
	if pin {
		fr.pins = 1
	}
	p.admitLocked(fr)
	return fr.data, false, nil
}

// release unpins one pin on (f, k). Releasing an already-evicted or
// never-pinned page is a no-op — the pin is a hint, not a handle.
func (p *Pager) release(f *File, k int64) {
	p.mu.Lock()
	if fr, ok := p.frames[frameKey{f, k}]; ok && fr.pins > 0 {
		fr.pins--
	}
	p.mu.Unlock()
}

// dropFile removes every frame belonging to f, pinned or not — Close has
// invalidated the backing bytes, so keeping them would serve stale data.
// The frames go to the GC, not the free list: a pinned one may still be
// under a reader, and a Close comes when the tier is being torn down, not
// between faults.
func (p *Pager) dropFile(f *File) {
	p.mu.Lock()
	for i := 0; i < len(p.ring); {
		if p.ring[i].file == f {
			p.removeLocked(p.ring[i])
			continue // swap-remove moved a new frame into slot i
		}
		i++
	}
	p.residentGauge.Store(p.heldLocked())
	p.mu.Unlock()
}
