package bitvec

import (
	"fmt"
	"sync"
)

// Pool is a concurrency-safe free list of equal-length Vectors. The mining
// engine keeps every live residual in a vector from its run's Pool and hands
// vectors between workers through it, so the AND hot path stays
// allocation-free after warm-up: a residual is taken when an extension
// reaches τ and returned once the enumeration has passed it.
//
// The list is the pool's own (a mutex and a stack, taken only when an
// extension survives or is released, never per AND) rather than a sync.Pool:
// a run's pool dies with the run, and its vectors should be garbage at that
// moment, not reachable through a victim cache for two more collections.
//
// Vectors returned by Get have the pool's fixed length but unspecified
// contents; callers overwrite them (CopyFrom, SetAll) before use.
type Pool struct {
	n int

	mu     sync.Mutex
	free   []*Vector
	gets   int64 // vectors handed out
	misses int64 // gets that had to allocate a fresh vector
	puts   int64 // vectors taken back
}

// NewPool returns a pool of n-bit vectors.
func NewPool(n int) *Pool {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative pool length %d", n))
	}
	return &Pool{n: n}
}

// Len returns the length, in bits, of the vectors the pool hands out.
func (p *Pool) Len() int { return p.n }

// Get returns a vector of length Len() with unspecified contents.
func (p *Pool) Get() *Vector {
	p.mu.Lock()
	p.gets++
	if last := len(p.free) - 1; last >= 0 {
		v := p.free[last]
		p.free = p.free[:last]
		p.mu.Unlock()
		return v
	}
	p.misses++
	p.mu.Unlock()
	return New(p.n)
}

// Counters returns the pool's lifetime traffic: gets handed out, of which
// misses were fresh allocations. The difference is the reuse the pool won.
func (p *Pool) Counters() (gets, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.misses
}

// Outstanding returns how many vectors are out on loan: gets minus the puts
// that returned one. A run that has released everything it took reads 0,
// which is what the leak tests assert.
func (p *Pool) Outstanding() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets - p.puts
}

// Put returns a vector to the pool. Vectors of the wrong length (or nil) are
// dropped rather than recycled, so callers may Put unconditionally.
func (p *Pool) Put(v *Vector) {
	if v == nil || v.Len() != p.n {
		return
	}
	p.mu.Lock()
	p.puts++
	p.free = append(p.free, v)
	p.mu.Unlock()
}
