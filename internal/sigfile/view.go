package sigfile

import (
	"fmt"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/iostat"
	"bbsmine/internal/obs"
	"bbsmine/internal/sighash"
)

// View is the read-only index a mining run binds to: N parts — the shards of
// a sharded database, the per-shard snapshots of a served epoch vector, or
// one plain index — read in place as a single index whose rows are the parts'
// rows in block order (part 0's at [0, n0), part 1's at [n0, n0+n1), ...),
// whatever the parts' lengths.
//
// The paper's CountItemSet is a sum over disjoint row sets (Lemma 4 holds
// per part), so a slice chain ANDs each part's slice into that part's
// accumulator and adds the counts. The view holds no slice storage: a bind
// costs O(N + m) — the offsets, and the per-slice popcounts summed over the
// parts, which give the single index's rarest-first order. Other statistics
// are read off the parts when asked, and the byte sizes behind the adaptive
// fold width and the I/O charges follow the global row count. What a chain
// leaves behind (result vector, probe positions, a constraint's layout) is
// in block order, so nothing downstream of it knows the parts exist.
//
// A view captures the parts' lengths at NewView: parts that grow afterwards
// need a new one (binding builds nothing, so there is nothing to
// invalidate). It only reads the parts, but for the buffer-pool residency
// model, which outlives a bind and so is theirs to keep (ChargeColdRead,
// EvictCache); the per-run state a mine attaches (the observer) is the
// view's own, so concurrent mines each bind theirs.
type View struct {
	parts     []*BBS
	offsets   []int // offsets[s] is part s's first block-order row; offsets[len(parts)] is Len()
	sliceOnes []int // per-slice popcounts summed over the parts
	stats     *iostat.Stats
	obs       *obs.Registry // nil unless a mining run attached telemetry
}

// NewView binds the parts, in block order. They must share one hash scheme;
// beyond the m/k equality checked here that is the caller's responsibility,
// as with Load. The view charges part 0's accounting sink.
func NewView(parts []*BBS) (*View, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("sigfile: view of zero parts")
	}
	first := parts[0]
	v := &View{
		parts:     parts,
		offsets:   make([]int, len(parts)+1),
		sliceOnes: make([]int, first.M()),
		stats:     first.stats,
	}
	for s, p := range parts {
		if p.M() != first.M() || p.hasher.K() != first.hasher.K() {
			return nil, fmt.Errorf("sigfile: view part %d has m=%d k=%d, part 0 has m=%d k=%d",
				s, p.M(), p.hasher.K(), first.M(), first.hasher.K())
		}
		v.offsets[s+1] = v.offsets[s] + p.n
		for j, c := range p.sliceOnes {
			v.sliceOnes[j] += c
		}
	}
	return v, nil
}

// Part returns part s.
func (v *View) Part(s int) *BBS { return v.parts[s] }

// Hasher returns the hasher the parts were built with.
func (v *View) Hasher() sighash.Hasher { return v.parts[0].hasher }

// M returns the signature width in bits (the number of slices).
func (v *View) M() int { return len(v.sliceOnes) }

// Len returns the number of rows across all parts.
func (v *View) Len() int { return v.offsets[len(v.parts)] }

// Stats returns the accounting sink.
func (v *View) Stats() *iostat.Stats { return v.stats }

// Live returns the number of live (non-deleted) rows.
func (v *View) Live() int {
	n := 0
	for _, p := range v.parts {
		n += p.Live()
	}
	return n
}

// IsLive reports whether the row at block-order position pos has not been
// deleted. Out-of-range positions report false.
func (v *View) IsLive(pos int) bool {
	if pos < 0 || pos >= v.Len() {
		return false
	}
	s := 0
	for pos >= v.offsets[s+1] {
		s++
	}
	return v.parts[s].IsLive(pos - v.offsets[s])
}

// Items returns every item that appears in at least one indexed row of any
// part, in ascending order. Allocates a fresh slice. Each part's list is
// already ascending (see BBS.Items), so the union is a merge, not a sort.
func (v *View) Items() []int32 {
	out := v.parts[0].Items()
	for _, p := range v.parts[1:] {
		out = mergeAscending(out, p.Items())
	}
	return out
}

// mergeAscending returns the union of two strictly ascending lists, itself
// strictly ascending. It may return a or b itself.
func mergeAscending(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]int32, 0, max(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// ExactCount returns the exact support of the 1-itemset {item}: the parts'
// counters cover disjoint rows, so they add.
func (v *View) ExactCount(item int32) int {
	n := 0
	for _, p := range v.parts {
		n += p.ExactCount(item)
	}
	return n
}

// OrderRarestFirst reorders slice positions in place by ascending summed
// popcount, ties by ascending position (see BBS.OrderRarestFirst).
func (v *View) OrderRarestFirst(pos []int) { orderRarestFirst(v.sliceOnes, pos) }

// MaxTransactionItems returns the largest distinct-item count among the
// rows — the adaptive filtering keys its fold-width floor to it, because the
// heaviest transaction's signature saturates a too-narrow fold.
func (v *View) MaxTransactionItems() int {
	n := 0
	for _, p := range v.parts {
		n = max(n, p.maxTxnItems)
	}
	return n
}

// AverageSignatureBits returns the mean number of set bits per row
// signature, from the summed per-slice popcounts: the index's density, the
// other input to the fold-width floor.
func (v *View) AverageSignatureBits() float64 {
	if v.Len() == 0 {
		return 0
	}
	total := 0
	for _, c := range v.sliceOnes {
		total += c
	}
	return float64(total) / float64(v.Len())
}

// SliceBytes returns the size of one slice over all Len() rows in bytes under
// the dense layout (see BBS.SliceBytes) — from the global row count, not a
// sum of rounded per-part sizes, so fold width and charges are the single
// index's.
func (v *View) SliceBytes() int64 { return int64((v.Len() + 7) / 8) }

// TotalBytes returns the total logical size of all slices in bytes.
func (v *View) TotalBytes() int64 { return v.SliceBytes() * int64(v.M()) }

// SetObserver attaches (nil: detaches) a telemetry registry for one mining
// run: CountIntoBuf then accounts its AND kernels and depths.
func (v *View) SetObserver(o *obs.Registry) {
	v.obs = o
	v.publishStorage()
}

// publishStorage pushes the storage gauges — logical vs resident slice bytes
// and the per-encoding census, summed over the parts — to the attached
// registry, if any.
func (v *View) publishStorage() {
	if v.obs == nil {
		return
	}
	var resident int64
	dense, sparse := 0, 0
	for _, p := range v.parts {
		resident += p.ResidentSliceBytes()
		d, s := p.EncodingCounts()
		dense, sparse = dense+d, sparse+s
	}
	v.obs.SetIndexStorage(v.TotalBytes(), resident, dense, sparse)
}

// ChargeFullRead charges one sequential pass over every slice: slices are
// stored contiguously, so ceil(TotalBytes / PageSize) pages. Used by the
// adaptive mode, whose passes cannot be cached by definition.
func (v *View) ChargeFullRead() { v.stats.AddSlicePages(pagesForBytes(v.TotalBytes())) }

// ChargeSliceReads charges n individual slice reads (see
// BBS.ChargeSliceReads), sized from the global row count.
func (v *View) ChargeSliceReads(n int) {
	v.stats.AddSlicePages(pagesForBytes(int64(n) * v.SliceBytes()))
}

// ChargeColdRead charges only the index pages not yet faulted into the
// buffer pool. A persistent index in a steady-state system stays resident
// (index pages go through the buffer pool, unlike sequential table scans,
// which use bypass rings), so a re-mine after an append pays only for the
// grown tail; the first call charges the whole index. Residency outlives a
// bind, so each part remembers its own.
func (v *View) ChargeColdRead() {
	for _, p := range v.parts {
		if pages := pagesForBytes(p.TotalBytes()); pages > p.coldPages {
			v.stats.AddSlicePages(pages - p.coldPages)
			p.coldPages = pages
		}
	}
}

// EvictCache forgets buffer-pool residency, so the next ChargeColdRead pays
// for the whole index again (used when a memory budget evicts it).
func (v *View) EvictCache() {
	for _, p := range v.parts {
		p.coldPages = 0
	}
}

// NewAccs returns fresh per-part accumulators for the chain methods below:
// accs[s] has part s's length. Loops that evaluate many chains hold one set.
func (v *View) NewAccs() []*bitvec.Vector {
	accs := make([]*bitvec.Vector, len(v.parts))
	for s := range accs {
		accs[s] = bitvec.New(v.offsets[s+1] - v.offsets[s])
	}
	return accs
}

// Split loads the per-part accumulators with src's blocks: accs[s] becomes
// rows [offset(s), offset(s+1)) of the block-order vector src.
func (v *View) Split(accs []*bitvec.Vector, src *bitvec.Vector) {
	for s, a := range accs {
		a.CopyRange(src, v.offsets[s])
	}
}

// Join lays the per-part accumulators into dst in block order, the inverse
// of Split. dst must have length Len().
func (v *View) Join(dst *bitvec.Vector, accs []*bitvec.Vector) {
	dst.Reset()
	for s, a := range accs {
		dst.OrAt(a, v.offsets[s])
	}
}

// AndSlice ANDs slice p of every part into that part's accumulator and
// returns the summed popcount — the count the single index over the same
// rows would report, charged as its one AND. Mid-chain the sum bounds the
// final count from above exactly as there, so a chain that exits below a
// threshold reaches the same verdict.
func (v *View) AndSlice(accs []*bitvec.Vector, p int) int {
	v.stats.AddSliceAnd()
	est := 0
	for s, part := range v.parts {
		est += part.andSlice(accs[s], p)
	}
	return est
}

// TallyAnd accounts, into k, the AND that AndSlice(accs, p) is about to run:
// per part, which kernel its accumulator's mode selects, how many words that
// kernel will visit, and the encoding of the part's slice.
func (v *View) TallyAnd(k *obs.KernelSample, accs []*bitvec.Vector, p int) {
	for s, part := range v.parts {
		words, sparse := accs[s].WordStats()
		k.CountAnd(words, sparse, int(part.slices[p].Encoding()))
	}
}

// NewResult returns a fresh block-order vector of length Len() marking every
// live row — the identity for slice AND-ing (see BBS.NewResult).
func (v *View) NewResult() *bitvec.Vector {
	r := bitvec.New(v.Len())
	for s, p := range v.parts {
		r.OrAt(p.NewResult(), v.offsets[s])
	}
	return r
}

// CountItemSet estimates the number of rows containing the itemset (paper
// Fig. 1) and returns the freshly allocated block-order candidate vector.
func (v *View) CountItemSet(items []int32) (int, *bitvec.Vector) {
	return v.CountSignature(sighash.SignatureBits(v.Hasher(), items))
}

// CountSignature is CountItemSet for an itemset already hashed: pos holds
// its distinct signature positions (sighash.AppendSignatureBits), reordered
// in place. A caller that also charges the reads by len(pos) hashes once.
func (v *View) CountSignature(pos []int) (int, *bitvec.Vector) {
	dst := bitvec.New(v.Len())
	return v.countChain(dst, v.NewAccs(), pos), dst
}

// CountIntoBuf is BBS.CountIntoBuf over the parts, with the run's telemetry:
// the itemset's slices are AND-ed rarest-first, position-major — each
// position into every part's accumulator before the next, so the running
// estimate and the early exit at zero are the single index's — and the
// accumulators are then laid into dst in block order. accs (see NewAccs) and
// *posBuf are caller-owned scratch: repeated estimates allocate nothing.
//
//lint:hotpath
func (v *View) CountIntoBuf(dst *bitvec.Vector, accs []*bitvec.Vector, items []int32, posBuf *[]int) int {
	*posBuf = sighash.AppendSignatureBits((*posBuf)[:0], v.Hasher(), items)
	return v.countChain(dst, accs, *posBuf)
}

// countChain is CountIntoBuf's chain over the signature positions pos,
// which it reorders rarest-first.
//
//lint:hotpath
func (v *View) countChain(dst *bitvec.Vector, accs []*bitvec.Vector, pos []int) int {
	v.stats.AddCountCall()
	est := 0
	for s, p := range v.parts {
		est += p.resetResult(accs[s])
	}
	v.OrderRarestFirst(pos)
	var k obs.KernelSample
	done := 0
	for _, p := range pos {
		if v.obs != nil {
			v.TallyAnd(&k, accs, p)
		}
		est = v.AndSlice(accs, p)
		done++
		if est == 0 {
			break
		}
		for _, a := range accs {
			a.MaybeSummarize(est) // est bounds each part's count; see BBS.CountIntoBuf
		}
	}
	if v.obs != nil {
		v.obs.ObserveChain(k, pos, done)
	}
	v.Join(dst, accs)
	return est
}

// Fold builds the memory-resident MemBBS of the paper's adaptive filtering
// by folding every part (see BBS.fold): OR is per row, so folding the parts
// is folding the single index. The pass over the original slices is charged.
func (v *View) Fold(keep int) (*View, error) {
	if keep <= 0 || keep > v.M() {
		return nil, fmt.Errorf("sigfile: fold width %d out of range (1..%d)", keep, v.M())
	}
	v.ChargeFullRead()
	folded := make([]*BBS, len(v.parts))
	for s, p := range v.parts {
		folded[s] = p.fold(keep)
	}
	fv, err := NewView(folded)
	if err != nil {
		return nil, err
	}
	fv.obs = v.obs // the MemBBS inherits the run's telemetry
	fv.publishStorage()
	return fv, nil
}
