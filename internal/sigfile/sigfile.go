// Package sigfile implements the paper's indexing structure: the Bit-Sliced
// Bloom-Filtered Signature File (BBS).
//
// Every transaction is mapped to an m-bit Bloom signature (k hash positions
// per item, via a sighash.Hasher). The file is stored transposed: slice j
// holds bit j of every transaction's signature, so the estimated number of
// transactions containing an itemset is obtained by AND-ing the slices
// selected by the itemset's signature and popcounting the result — algorithm
// CountItemSet (paper Fig. 1). The structure is dynamic and persistent:
// appending a transaction sets at most |items|·k bits and never rewrites
// existing data.
//
// Alongside the slices, a BBS keeps the exact support of every 1-itemset,
// the "additional information" that powers the paper's DualFilter
// (Lemma 5 / Corollary 1).
package sigfile

import (
	"bbsmine/internal/bitvec"
	"bbsmine/internal/iostat"
	"bbsmine/internal/pager"
	"bbsmine/internal/sighash"
)

// BBS is a bit-sliced Bloom-filtered signature file over n transactions.
type BBS struct {
	hasher sighash.Hasher
	slices []*bitvec.Slice // len == hasher.M(); each slice has up to n bits
	n      int             // transactions indexed so far

	// denseVec[p] is slice p's backing vector when (and only when) slice p
	// is dense, else nil — the AND fast path. Indexing this array costs the
	// same loads the classic all-dense layout paid, where going through the
	// Slice header would add a dependent cache line to every AND. Kept in
	// step by refreshDense at every site that installs or re-encodes a
	// slice; a stale nil is merely slow (the dispatch path is always
	// correct), a stale non-nil is a bug.
	denseVec []*bitvec.Vector

	// compress is the storage policy: when set, Fold and SetCompression
	// pick each slice's encoding (dense or sparse positions) by payload
	// size, and the AND chain runs the direct-on-compressed kernels. When
	// clear every slice is dense — the classic layout. Either way Insert
	// appends under the current encoding with hysteresis (see bitvec.Slice),
	// so a write-heavy phase cannot thrash representations.
	compress bool

	// sliceOnes[p] is the popcount of slice p, maintained incrementally by
	// Insert (and recomputed by Fold and Load). It drives the rarest-first
	// AND ordering: intersecting the sparsest slices first drags the
	// running estimate below τ in the fewest ANDs, so the early exit fires
	// sooner. Deletions do not clear slice bits, so the counts are over the
	// raw slices — exactly what ordering needs, since the live mask is
	// AND-ed before any slice.
	sliceOnes []int

	live    *bitvec.Vector // live-row mask; nil while nothing is deleted
	deleted int

	coldPages int64 // index pages already faulted into the buffer pool

	maxTxnItems int // largest distinct-item count among inserted transactions

	// Copy-on-write bookkeeping (see Snapshot). While cow[p] is set, slice p
	// is shared with at least one snapshot and must be cloned before its
	// first mutation; cowLive guards the live mask the same way (the exact
	// 1-itemset counters track sharing per page themselves). Nil/false on
	// an index that has never been snapshotted, so the non-serving paths
	// pay nothing.
	cow     []bool
	cowLive bool

	epoch uint64 // applied write batches; in-memory only, 0 after Load

	// Tiered storage bookkeeping (see tier.go). tierPager is non-nil while
	// Tier has split the slices into hot/cold; tierFile is the sealed cold
	// file backing the cold headers (nil when every slice fit the hot
	// budget); tierReserved is the hot-tier reservation to return at Untier.
	tierPager    *pager.Pager
	tierFile     *pager.File
	tierReserved int64

	stats *iostat.Stats

	// itemCounts holds the exact 1-itemset supports, paged (see counts.go).
	// It is the widest field and sits last: placed ahead of the fields
	// Insert reads per set bit, it cost BenchmarkAppend about 3 %.
	itemCounts itemTable
}

// New returns an empty BBS using the given hasher. A nil stats disables
// accounting.
func New(h sighash.Hasher, stats *iostat.Stats) *BBS {
	if stats == nil {
		stats = &iostat.Stats{}
	}
	m := h.M()
	slices := make([]*bitvec.Slice, m)
	denseVec := make([]*bitvec.Vector, m)
	for i := range slices {
		slices[i] = bitvec.NewDenseSlice(0)
		denseVec[i] = slices[i].DenseVector()
	}
	return &BBS{
		hasher:    h,
		slices:    slices,
		denseVec:  denseVec,
		sliceOnes: make([]int, m),
		stats:     stats,
	}
}

// Hasher returns the hasher the index was built with.
func (b *BBS) Hasher() sighash.Hasher { return b.hasher }

// M returns the signature width in bits (the number of slices).
func (b *BBS) M() int { return len(b.slices) }

// Len returns the number of transactions indexed.
func (b *BBS) Len() int { return b.n }

// Stats returns the accounting sink.
func (b *BBS) Stats() *iostat.Stats { return b.stats }

// Insert indexes one transaction's items at the next ordinal position.
// Position i of every slice corresponds to the i-th inserted transaction,
// which must equal its ordinal position in the backing txdb.Store.
// Items need not be sorted; duplicates contribute once to the exact
// 1-itemset counters.
//
// Slices grow lazily: only the slices this transaction's signature touches
// are lengthened, so a slice nobody has hashed to since the last Snapshot
// stays short — and stays shared with the snapshot. The missing tail is
// logically zero (no transaction set a bit there); the read paths apply it
// through the zero-extending kernels (bitvec.AndCountZX).
func (b *BBS) Insert(items []int32) {
	pos := b.n
	b.n++
	if b.live != nil {
		b.mutableLive().Append(true)
	}
	// Fast path: txdb transactions arrive strictly ascending, so every item
	// is distinct and counts can be bumped directly.
	sorted := true
	for i := 1; i < len(items); i++ {
		if items[i] <= items[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		if len(items) > b.maxTxnItems {
			b.maxTxnItems = len(items)
		}
		for _, it := range items {
			b.itemCounts.add(it)
			for _, p := range b.hasher.Positions(it) {
				b.setSliceBit(p, pos)
			}
		}
		return
	}
	seen := make(map[int32]struct{}, len(items))
	for _, it := range items {
		if _, dup := seen[it]; dup {
			continue
		}
		seen[it] = struct{}{}
		b.itemCounts.add(it)
		for _, p := range b.hasher.Positions(it) {
			b.setSliceBit(p, pos)
		}
	}
	if len(seen) > b.maxTxnItems {
		b.maxTxnItems = len(seen)
	}
}

// setSliceBit sets bit pos of slice p, keeping the per-slice popcount in
// step. Several items of one transaction can hash to the same slice, so the
// count bumps only on a 0→1 transition. The slice is grown on demand (see
// Insert), cloned first when a snapshot shares it, and appends under its
// current encoding — a compressed slice whose payload outgrows the dense
// layout promotes itself (the hysteresis upper edge).
func (b *BBS) setSliceBit(p, pos int) {
	s := b.mutableSlice(p)
	if s.AppendSet(pos) {
		b.sliceOnes[p]++
	}
	if b.compress {
		// Lower hysteresis edge: a dense slice whose length has outgrown
		// its density demotes to a compressed form, so an index built
		// purely by appends compresses as it grows instead of waiting for
		// the next SetCompression/Fold/Load re-encode pass.
		if r := s.MaybeCompress(); r != s {
			b.slices[p] = r
			s = r
		}
	}
	// The append may have cloned (copy-on-write), promoted, or demoted
	// (hysteresis) the slice; either way the fast-path entry follows it.
	b.denseVec[p] = s.DenseVector()
}

// refreshDense re-derives the AND fast-path entry for slice p. Call after
// installing or re-encoding b.slices[p].
func (b *BBS) refreshDense(p int) {
	b.denseVec[p] = b.slices[p].DenseVector()
}

// OrderRarestFirst reorders slice positions in place by ascending slice
// popcount, ties broken by ascending position so the order is deterministic
// for a given index state. AND-ing rarest-first maximizes the early exit:
// the sparsest slices pull the running estimate down fastest, and AND is
// commutative, so the surviving bits — and therefore every result — are
// unchanged. Insertion sort: position lists are short.
func (b *BBS) OrderRarestFirst(pos []int) { orderRarestFirst(b.sliceOnes, pos) }

// orderRarestFirst sorts pos by ascending ones[p], ties by ascending p.
func orderRarestFirst(ones, pos []int) {
	for i := 1; i < len(pos); i++ {
		for j := i; j > 0; j-- {
			a, p := pos[j], pos[j-1]
			if ones[a] > ones[p] || (ones[a] == ones[p] && a > p) {
				break
			}
			pos[j], pos[j-1] = p, a
		}
	}
}

// ExactCount returns the exact support of the 1-itemset {item}, maintained
// incrementally at insert time. This is the DualFilter's side information.
func (b *BBS) ExactCount(item int32) int { return b.itemCounts.get(item) }

// Items returns every item that appears in at least one indexed transaction,
// in ascending order. Allocates a fresh slice.
func (b *BBS) Items() []int32 {
	return b.itemCounts.appendItems(make([]int32, 0, b.itemCounts.len()))
}

// SliceBytes returns the size of one slice in bytes under the dense layout.
// Memory budgeting and I/O charging both use this logical size — a folded
// in-memory index is dense by construction, and the paper's cost model
// charges page reads over the flat file — so it is independent of the
// compression policy; ResidentSliceBytes reports the actual footprint.
func (b *BBS) SliceBytes() int64 { return int64((b.n + 7) / 8) }

// TotalBytes returns the total logical size of all slices in bytes.
func (b *BBS) TotalBytes() int64 { return b.SliceBytes() * int64(len(b.slices)) }

// ResidentSliceBytes returns the summed payload of every slice under its
// current encoding — the bytes the slices actually occupy in memory, the
// number the compression exists to shrink.
func (b *BBS) ResidentSliceBytes() int64 {
	var total int64
	for _, s := range b.slices {
		total += s.Bytes()
	}
	return total
}

// EncodingCounts returns how many slices are stored dense and sparse.
func (b *BBS) EncodingCounts() (dense, sparse int) {
	for _, s := range b.slices {
		if s.Encoding() == bitvec.EncSparse {
			sparse++
		} else {
			dense++
		}
	}
	return dense, sparse
}

// Compressed reports whether the adaptive-encoding policy is on.
func (b *BBS) Compressed() bool { return b.compress }

// SetCompression sets the storage policy and re-picks every slice's
// encoding to match: on, each slice adopts the smallest representation
// that beats the dense layout by the hysteresis margin; off, every slice
// is materialized dense. Call it after a bulk build or load — per-slice
// re-encoding is a full pass — and from the single writer only. Slices
// shared with a snapshot are never mutated: re-encoding installs a fresh
// slice, so snapshots keep reading the old one.
func (b *BBS) SetCompression(on bool) {
	b.compress = on
	for p, s := range b.slices {
		r := s.Recompress(b.n, on)
		if r != s {
			b.slices[p] = r
			if b.cow != nil {
				b.cow[p] = false // freshly built, shared with no snapshot
			}
		}
		b.refreshDense(p)
	}
}

// pagesForBytes converts a contiguous byte extent into whole pages, at
// least one. Slices are stored back to back, so several short slices share
// a page.
func pagesForBytes(n int64) int64 {
	p := (n + iostat.PageSize - 1) / iostat.PageSize
	if p == 0 {
		p = 1
	}
	return p
}

// AndSlice ANDs slice p into dst and returns the popcount of the result.
// dst must have length Len(). This is the primitive the miners use for
// incremental filtering: a child itemset reuses its parent's residual
// vector and only ANDs the new item's slices. It is an in-memory operation;
// reading the slices from storage is charged separately (ChargeFullRead /
// ChargeSliceReads) once per pass, matching the paper's model where the BBS
// is loaded and then operated on with bitwise instructions.
func (b *BBS) AndSlice(dst *bitvec.Vector, p int) int {
	b.stats.AddSliceAnd()
	return b.andSlice(dst, p)
}

// andSlice is AndSlice without the accounting (a View charges one AND for
// all its parts).
func (b *BBS) andSlice(dst *bitvec.Vector, p int) int {
	// Slices grow lazily (see Insert), so slice p may be shorter than dst;
	// every kernel reads the missing tail as zeros. Dense slices — every
	// slice of an uncompressed index — branch straight to the classic
	// AndCountZX here, keeping the call depth of the all-dense layout;
	// compressed ones dispatch to their direct kernels. Identical bits
	// either way.
	if v := b.denseVec[p]; v != nil {
		return dst.AndCountZX(v)
	}
	return b.slices[p].AndCountInto(dst)
}

// ChargeSliceReads charges n individual slice reads — the cost of an ad-hoc
// query that touches only the slices of one itemset's signature.
func (b *BBS) ChargeSliceReads(n int) {
	b.stats.AddSlicePages(pagesForBytes(int64(n) * b.SliceBytes()))
}

// NewResult returns a fresh vector of length Len() marking every live
// transaction — the identity for slice AND-ing. With no deletions this is
// all ones; after deletions it is the live-row mask, so every estimate and
// probe automatically excludes tombstoned rows.
func (b *BBS) NewResult() *bitvec.Vector {
	if b.live != nil {
		return b.live.Clone()
	}
	v := bitvec.New(b.n)
	v.SetAll()
	return v
}

// CountItemSet estimates the number of transactions containing the itemset,
// per paper Fig. 1: AND the slices selected by the itemset's signature and
// count the surviving bits. The returned vector marks the candidate
// transactions (its set bits are the ordinal positions Probe fetches); it is
// freshly allocated. By Lemma 4 the estimate never undercounts.
func (b *BBS) CountItemSet(items []int32) (int, *bitvec.Vector) {
	v := b.NewResult()
	n := b.CountInto(v, items)
	return n, v
}

// CountInto is CountItemSet with a caller-provided result vector: dst is
// overwritten with the slice intersection and the estimate is returned.
// Allocates a position scratch per call; loops that estimate many itemsets
// should hold one and use CountIntoBuf.
func (b *BBS) CountInto(dst *bitvec.Vector, items []int32) int {
	var buf []int
	return b.CountIntoBuf(dst, items, &buf)
}

// CountIntoBuf is CountInto with a caller-owned position scratch: *posBuf is
// reused (and grown through the pointer) across calls, so repeated estimates
// allocate nothing after warm-up. The slices are AND-ed rarest-first (see
// OrderRarestFirst) — a pure ordering change: when the loop runs to
// completion dst holds the full intersection regardless of order, and the
// early exit fires only at estimate 0, where dst is all-zero under any
// order. Estimates and result vectors are therefore byte-identical to the
// ascending-position order.
//
//lint:hotpath
func (b *BBS) CountIntoBuf(dst *bitvec.Vector, items []int32, posBuf *[]int) int {
	b.stats.AddCountCall()
	est := b.resetResult(dst)
	*posBuf = sighash.AppendSignatureBits((*posBuf)[:0], b.hasher, items)
	b.OrderRarestFirst(*posBuf)
	for _, p := range *posBuf {
		est = b.AndSlice(dst, p)
		if est == 0 {
			break
		}
		// Rarest-first makes the estimate collapse after an AND or two;
		// promoting the accumulator then lets the rest of the chain walk
		// only the surviving words. A bits-identical overlay (the vector's
		// explicit-summary contract from the sparse-kernel PR holds: the
		// promotion is this caller's choice, never the kernel's).
		dst.MaybeSummarize(est)
	}
	return est
}

// resetResult makes dst the identity for slice AND-ing — every live row, as
// NewResult returns it — and returns the number of rows it marks.
func (b *BBS) resetResult(dst *bitvec.Vector) int {
	dst.Grow(b.n)
	if b.live != nil {
		dst.CopyFrom(b.live)
		return b.Live()
	}
	dst.SetAll()
	return b.n
}

// fold builds this part of the memory-resident MemBBS of the paper's
// adaptive filtering (Section 3.1, preprocessing phase; see View.Fold, which
// validates keep and charges the pass): the first keep slices are retained
// and every slice p >= keep is "rehashed" onto slice p mod keep. The fold ORs
// slices together, which preserves the no-false-miss property (a folded
// query bit is set whenever any contributing original bit was set). The
// returned index shares no storage with the original and uses a hasher whose
// positions are reduced mod keep.
func (b *BBS) fold(keep int) *BBS {
	fh := &foldedHasher{base: b.hasher, m: keep}
	nb := New(fh, b.stats)
	nb.n = b.n
	nb.compress = b.compress
	for j := 0; j < keep; j++ {
		// Accumulate the fold dense — OR-ing into a compressed form would
		// re-encode per contributor — then pick the folded slice's encoding
		// once, from its final contents. The fold ORs slices together, so
		// the folded popcount cannot be derived from the originals; the
		// wrap recounts it once (the words are still cache-hot).
		acc := b.slices[j].Materialize()
		acc.Grow(b.n) // normalize lazily-grown slices; folded slices are full length
		for p := j + keep; p < len(b.slices); p += keep {
			b.slices[p].OrInto(acc)
		}
		s := bitvec.DenseSliceOf(acc).Recompress(b.n, b.compress)
		nb.slices[j] = s
		nb.refreshDense(j)
		nb.sliceOnes[j] = s.Ones()
	}
	nb.itemCounts = b.itemCounts.clone()
	if b.live != nil {
		nb.live = b.live.Clone()
		nb.deleted = b.deleted
	}
	return nb
}

// foldedHasher reduces a base hasher's positions modulo a smaller m.
type foldedHasher struct {
	base sighash.Hasher
	m    int
}

func (f *foldedHasher) M() int { return f.m }
func (f *foldedHasher) K() int { return f.base.K() }

func (f *foldedHasher) Positions(item int32) []int {
	base := f.base.Positions(item)
	out := make([]int, len(base))
	for i, p := range base {
		out[i] = p % f.m
	}
	return out
}

// ResultSlice exposes slice p read-only for verification passes; the caller
// must not modify it. A compressed slice is materialized (allocating), a
// dense one is aliased. Reading it is charged as one slice read.
func (b *BBS) ResultSlice(p int) *bitvec.Vector {
	b.ChargeSliceReads(1)
	if v := b.slices[p].DenseVector(); v != nil {
		return v
	}
	return b.slices[p].Materialize()
}
