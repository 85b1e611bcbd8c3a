package sigfile

import (
	"bbsmine/internal/bitvec"
	"bbsmine/internal/iostat"
)

// Snapshot isolation for the serving layer.
//
// A served index interleaves mining queries with write batches. Rebuilding
// or deep-copying an index per batch is out of the question (m slices of n
// bits each), so BBS supports O(m) copy-on-write snapshots instead:
// Snapshot copies the slice pointer table, the per-slice popcounts and the
// counter page directory — O(m) words plus one per counter page in use,
// whatever n is — and marks everything shared on the master. A write batch
// after it then pays for what it touches and nothing else:
//
//   - each slice it sets a bit in gets a private header, once
//     (bitvec.Slice.CloneFor). A dense slice's copy shares the snapshot's
//     words: an insert only sets the last row, so the master appends past
//     every snapshot's length and never rewrites a word a snapshot reads
//     (see bitvec's dense.go). A sparse slice's copy is its record stream,
//     with room for the row being appended: the append rewrites the count
//     byte of the stream's open record in place, and by the hysteresis
//     rule the stream is at most half the dense payload;
//   - the live mask is cloned once, if the batch inserts or deletes on an
//     index that has deletions: a delete clears a bit anywhere in it;
//   - each exact-counter page (countPageSize consecutive item IDs, see
//     counts.go) an inserted or deleted item lands on is cloned once.
//
// Nothing scales with the number of distinct items or untouched slices, nor,
// for a dense index, with the rows already indexed: the paper's selling point
// for a dynamic index (appending sets at most |items|·k bits).
//
// The contract has three parts:
//
//   - a snapshot is immutable: never call Insert, Delete, or Save on it;
//   - the master is single-writer: Snapshot and all mutations must be
//     issued from one goroutine (the serving commit loop);
//   - concurrent readers of one snapshot each take a QueryClone, because
//     mining mutates a per-run accounting field (cold-page residency) on
//     the receiver.

// Epoch returns the index's write epoch: the number of applied write
// batches since the process opened it. The serving layer bumps it once per
// batch and keys its query cache on it. Epochs are in-memory only — a
// freshly loaded index starts at 0 — which is sound because the query
// cache is process-local too.
func (b *BBS) Epoch() uint64 { return b.epoch }

// BumpEpoch advances the write epoch by one and returns the new value.
// Call it from the single writer after applying a batch of mutations.
func (b *BBS) BumpEpoch() uint64 {
	b.epoch++
	return b.epoch
}

// Snapshot returns an immutable copy-on-write view of the index at the
// current epoch, in O(m + counter pages) time and memory. The snapshot
// shares every slice, the live mask, and every counter page with the master
// until the master mutates them; the per-slice popcounts are small and
// copied eagerly. Only the single writer may call Snapshot.
func (b *BBS) Snapshot() *BBS {
	s := &BBS{
		hasher:      b.hasher,
		slices:      append([]*bitvec.Slice(nil), b.slices...),
		n:           b.n,
		compress:    b.compress,
		sliceOnes:   append([]int(nil), b.sliceOnes...),
		itemCounts:  b.itemCounts.share(),
		live:        b.live,
		deleted:     b.deleted,
		coldPages:   b.coldPages,
		maxTxnItems: b.maxTxnItems,
		epoch:       b.epoch,
		stats:       b.stats,
	}
	if b.cow == nil {
		b.cow = make([]bool, len(b.slices))
	}
	for i := range b.cow {
		b.cow[i] = true
	}
	b.cowLive = b.live != nil
	return s
}

// QueryClone returns a shallow copy of the index for one mining run. The
// clone shares the slices, live mask, and counters (read-only on the query
// path) but owns the mutable per-run field — the cold-page residency counter
// — so any number of concurrent miners can run against one snapshot without
// writing to shared memory. A non-nil stats
// redirects the clone's accounting; atomics inside iostat.Stats make a
// shared sink safe.
func (b *BBS) QueryClone(stats *iostat.Stats) *BBS {
	c := *b
	c.cow = nil
	c.cowLive = false
	if stats != nil {
		c.stats = stats
	}
	return &c
}

// mutableSlice returns slice p ready for mutation, cloning it first if a
// snapshot shares it. The clone preserves the encoding, so appends to a
// compressed snapshot-shared slice stay compressed: a dense clone is a
// header sharing the snapshot's words, a sparse one a copy of its stream
// sized for the row being appended (the last of b.n), so the append that
// follows does not reallocate it. A cold slice thaws to residency first — cold payloads
// are immutable by construction, and the freshly decoded slice is shared
// with no snapshot (snapshots hold the old header, which keeps faulting the
// unchanged cold extent).
func (b *BBS) mutableSlice(p int) *bitvec.Slice {
	s := b.slices[p]
	if s.IsCold() {
		s = s.Thaw()
		b.slices[p] = s
		if b.cow != nil {
			b.cow[p] = false
		}
		return s
	}
	if b.cow != nil && b.cow[p] {
		s = s.CloneFor(b.n)
		b.slices[p] = s
		b.cow[p] = false
	}
	return s
}

// mutableLive returns the live mask ready for mutation, cloning it first if
// a snapshot shares it — sized for b.n rows, so an insert's Append does not
// reallocate the clone. The caller must have established b.live != nil.
func (b *BBS) mutableLive() *bitvec.Vector {
	if b.cowLive {
		b.live = b.live.CloneFor(b.n)
		b.cowLive = false
	}
	return b.live
}
