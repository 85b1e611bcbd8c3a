// Package sighash implements the Bloom-filter hashing scheme that maps items
// to bit positions of a BBS signature.
//
// The paper (Section 4) derives the k hash functions from the MD5 digest of
// the item name: the 128-bit digest is split into four disjoint 32-bit
// groups, each group yielding one hash value; when more than four values are
// needed, the digest of the item name concatenated with itself supplies the
// next four, and so on. Items in the synthetic datasets are integers, so the
// "item name" is the decimal rendering of the item identifier.
//
// A pluggable Hasher interface lets tests and the quickstart example swap in
// the paper's running-example hash h(x) = x mod 8.
package sighash

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
)

// Hasher maps an item to its k bit positions within an m-bit signature.
// Implementations must be deterministic: the same item always yields the
// same positions, because BBS insertions and queries must agree.
type Hasher interface {
	// Positions returns the bit positions (each in [0, M())) that the item
	// sets in a signature. The returned slice must not be modified by the
	// caller and stays valid until the next call for the same item.
	Positions(item int32) []int
	// M is the signature length in bits.
	M() int
	// K is the number of hash functions (positions may still collide, so
	// len(Positions(x)) == K but the positions need not be distinct).
	K() int
}

// MD5 is the paper's hasher. It memoizes positions per item, since mining
// and every appended transaction look the same items up millions of times;
// the memo is safe for concurrent use, and a lookup of an item already seen
// takes no lock (see memo).
type MD5 struct{ memo }

// NewMD5 returns an MD5-based hasher for m-bit signatures with k hash
// functions per item. It panics if m <= 0 or k <= 0, which are programming
// errors rather than runtime conditions.
func NewMD5(m, k int) *MD5 {
	h := &MD5{}
	h.init(m, k, appendMD5Positions)
	return h
}

// M returns the signature length in bits.
func (h *MD5) M() int { return h.m }

// K returns the number of hash functions.
func (h *MD5) K() int { return h.k }

// Positions implements Hasher.
//
//lint:hotpath
func (h *MD5) Positions(item int32) []int {
	if p, ok := h.lookup(item); ok {
		return p
	}
	return h.fill(item)
}

// appendMD5Positions appends an item's k positions to dst following the
// paper's recipe: successive MD5 digests of name, name+name,
// name+name+name, ..., each digest contributing four 32-bit big-endian
// groups.
func appendMD5Positions(dst []int, item int32, m, k int) []int {
	var buf [64]byte
	name := strconv.AppendInt(buf[:0], int64(item), 10)
	msg := name
	for n := 0; n < k; msg = append(msg, name...) {
		sum := md5.Sum(msg)
		for g := 0; g < 4 && n < k; g, n = g+1, n+1 {
			v := binary.BigEndian.Uint32(sum[g*4 : g*4+4])
			dst = append(dst, int(v%uint32(m)))
		}
	}
	return dst
}

// FNV derives the k positions from iterated 64-bit FNV-1a hashing instead
// of MD5: cheaper per item, but with less independence between the derived
// positions. It exists for the hash-quality ablation — the paper chose MD5
// for its mixing ("the computational overhead of MD5 is negligible"), and
// comparing false-drop ratios under both justifies that choice. It shares
// MD5's memo, so the two differ only in the position function.
type FNV struct{ memo }

// NewFNV returns an FNV-1a-based hasher for m-bit signatures with k hash
// functions per item.
func NewFNV(m, k int) *FNV {
	h := &FNV{}
	h.init(m, k, appendFNVPositions)
	return h
}

// M returns the signature length in bits.
func (h *FNV) M() int { return h.m }

// K returns the number of hash functions.
func (h *FNV) K() int { return h.k }

// Positions implements Hasher.
//
//lint:hotpath
func (h *FNV) Positions(item int32) []int {
	if p, ok := h.lookup(item); ok {
		return p
	}
	return h.fill(item)
}

// appendFNVPositions appends an item's k positions to dst: FNV-1a over the
// item's four little-endian bytes, iterated once per further position.
func appendFNVPositions(dst []int, item int32, m, k int) []int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	v := uint64(offset64)
	for i := 0; i < 4; i++ {
		v ^= uint64(byte(item >> (8 * i)))
		v *= prime64
	}
	for i := 0; i < k; i++ {
		dst = append(dst, int(v%uint64(m)))
		// Iterate the hash for the next position.
		v ^= uint64(i) + 0x9e3779b97f4a7c15
		v *= prime64
	}
	return dst
}

// memoMaxItems bounds the item-indexed table: ids in [0, memoMaxItems) are
// memoized in it (k words per id up to the largest id seen, so 2 MiB at
// most for k = 4), and any other id in a map. The repository's generators
// draw ids below 10 000 by default (quest's N, weblog's Files), so their
// every id is a table id.
const memoMaxItems = 1 << 16

// memo caches each item's positions for a hasher. Positions are a pure
// function of (item, m, k), so an entry never changes once written.
//
// The hit path is lock-free: tab is an item-indexed table published through
// an atomic pointer, and an entry is read only after its ready flag, which
// the writer stores after the positions — the flag's store/load pair orders
// the plain writes before the reads. Writers (first sight of an item)
// serialize on mu, fill a free entry of the current table in place, and
// replace the table with a larger copy when an id falls beyond it; a reader
// still holding the old table misses on the new ids and retries under mu.
// Ids outside [0, memoMaxItems) live in far, under mu.
type memo struct {
	m, k int
	// compute appends the item's k positions to dst.
	compute func(dst []int, item int32, m, k int) []int

	tab atomic.Pointer[memoTable]
	mu  sync.RWMutex
	far map[int32][]int
}

// memoTable holds item i's positions at pos[i*k:(i+1)*k] once ready[i].
type memoTable struct {
	pos   []int
	ready []atomic.Bool
}

// init sets the hasher's parameters and position function. It panics if
// m <= 0 or k <= 0.
func (c *memo) init(m, k int, compute func([]int, int32, int, int) []int) {
	if m <= 0 || k <= 0 {
		panic(fmt.Sprintf("sighash: invalid parameters m=%d k=%d", m, k))
	}
	c.m, c.k, c.compute = m, k, compute
}

// lookup returns the memoized positions of a table id, or false for an id
// not seen yet or not in the table's range.
//
//lint:hotpath
func (c *memo) lookup(item int32) ([]int, bool) {
	t := c.tab.Load()
	if t == nil || uint(item) >= uint(len(t.ready)) || !t.ready[item].Load() {
		return nil, false
	}
	i := int(item) * c.k
	return t.pos[i : i+c.k : i+c.k], true
}

// fill is the miss path of Positions: it computes a table id's positions
// straight into its entry and marks it ready, unless another caller did
// first. Ids outside the table go to fillFar.
func (c *memo) fill(item int32) []int {
	if item < 0 || item >= memoMaxItems {
		return c.fillFar(item)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tab.Load()
	if t == nil || int(item) >= len(t.ready) {
		t = c.grow(t, int(item)+1)
	}
	i := int(item) * c.k
	p := t.pos[i : i : i+c.k]
	if !t.ready[item].Load() {
		c.compute(p, item, c.m, c.k)
		t.ready[item].Store(true)
	}
	return p[:c.k]
}

// fillFar memoizes an id outside the table in the far map.
func (c *memo) fillFar(item int32) []int {
	c.mu.RLock()
	p, ok := c.far[item]
	c.mu.RUnlock()
	if ok {
		return p
	}
	p = c.compute(make([]int, 0, c.k), item, c.m, c.k)
	c.mu.Lock()
	defer c.mu.Unlock()
	if q, ok := c.far[item]; ok {
		return q
	}
	if c.far == nil {
		c.far = make(map[int32][]int)
	}
	c.far[item] = p
	return p
}

// grow publishes a copy of t covering at least n ids: the next power of two,
// from 64 ids up, capped at memoMaxItems. The caller holds mu.
func (c *memo) grow(t *memoTable, n int) *memoTable {
	size := 64
	for size < n {
		size *= 2
	}
	size = min(size, memoMaxItems)
	nt := &memoTable{pos: make([]int, size*c.k), ready: make([]atomic.Bool, size)}
	if t != nil {
		copy(nt.pos, t.pos)
		for i := range t.ready {
			nt.ready[i].Store(t.ready[i].Load())
		}
	}
	c.tab.Store(nt)
	return nt
}

// Mod is the single-hash-function hasher of the paper's running example
// (Example 1): h(x) = x mod m. It exists so the documentation examples and
// the Table 1/2 reproduction match the paper bit for bit.
type Mod struct {
	m int
}

// NewMod returns a Mod hasher for m-bit signatures.
func NewMod(m int) *Mod {
	if m <= 0 {
		panic(fmt.Sprintf("sighash: invalid m=%d", m))
	}
	return &Mod{m: m}
}

// M returns the signature length in bits.
func (h *Mod) M() int { return h.m }

// K returns 1: Mod uses a single hash function.
func (h *Mod) K() int { return 1 }

// Positions implements Hasher.
func (h *Mod) Positions(item int32) []int {
	p := int(item) % h.m
	if p < 0 {
		p += h.m
	}
	return []int{p}
}

// SignatureBits returns the distinct, sorted set of bit positions that an
// itemset sets in its m-bit signature: the union of every item's positions.
// This is the vector v of algorithm CountItemSet (paper Fig. 1, step 1),
// represented sparsely. Allocates; hot paths that estimate per candidate
// should reuse a scratch slice via AppendSignatureBits.
func SignatureBits(h Hasher, items []int32) []int {
	return AppendSignatureBits(nil, h, items)
}

// AppendSignatureBits appends the itemset's distinct, sorted signature
// positions to buf and returns the extended slice. Passing a reusable
// scratch as buf[:0] makes repeated estimates allocation-free after warm-up;
// no map is involved — positions are sorted in place and deduplicated.
func AppendSignatureBits(buf []int, h Hasher, items []int32) []int {
	start := len(buf)
	for _, it := range items {
		buf = append(buf, h.Positions(it)...)
	}
	out := buf[start:]
	// Insertion sort: position lists are short and nearly sorted.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	// Compact duplicates (hash collisions across and within items).
	w := 0
	for i, p := range out {
		if i == 0 || p != out[w-1] {
			out[w] = p
			w++
		}
	}
	return buf[:start+w]
}
