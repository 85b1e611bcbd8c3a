// Package shard partitions the BBS horizontally: N self-contained shards,
// each owning its own slices, exact 1-itemset counters, per-slice popcounts,
// transaction store and epoch. Transactions are routed round-robin by global
// ordinal — position g lives in shard g mod N at local position g div N —
// so the shards stay within one row of each other and a global position maps
// to its shard with two integer ops.
//
// The support of an itemset is a sum over disjoint transaction sets, so
// every count fans out to the shards and merges by shard index — a fixed,
// deterministic order, mirroring the parallel engine's merge-by-seq
// discipline. A full mining run reads the shards in place through the same
// sum: DB.Merged binds them as one block-order sigfile.View (shard 0's rows,
// then shard 1's, ... — a row permutation of the unsharded index) that holds
// no slices of its own, and every mined pattern, support, exactness flag and funnel
// counter is byte-identical to Shards:1 because all of them are functions of
// per-row predicates and their sums, never of row order.
package shard

import (
	"fmt"

	"bbsmine/internal/iostat"
	"bbsmine/internal/obs"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
)

// Index is the sharded BBS: N per-shard sigfile indexes behind round-robin
// routing. One shard behaves exactly like a plain *sigfile.BBS, so the
// unsharded path is the sharded path with N = 1, not a separate code path.
type Index struct {
	parts []*sigfile.BBS
	obs   *obs.Registry // per-shard fan-out accounting; nil disables it
}

// NewIndex returns an empty sharded index: shards parts sharing one hasher
// and one accounting sink.
func NewIndex(h sighash.Hasher, shards int, stats *iostat.Stats) (*Index, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", shards)
	}
	parts := make([]*sigfile.BBS, shards)
	for i := range parts {
		parts[i] = sigfile.New(h, stats)
	}
	return &Index{parts: parts}, nil
}

// FromParts wraps existing per-shard indexes. The parts must satisfy the
// round-robin length invariant (each shard within one row of the next —
// part i holds ceil((n-i)/N) rows), or global positions would not route.
func FromParts(parts []*sigfile.BBS) (*Index, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("shard: no parts")
	}
	n := 0
	for _, p := range parts {
		n += p.Len()
	}
	for i, p := range parts {
		want := (n - i + len(parts) - 1) / len(parts)
		if p.Len() != want {
			return nil, fmt.Errorf("shard: part %d holds %d rows, round-robin layout over %d rows needs %d",
				i, p.Len(), n, want)
		}
	}
	return &Index{parts: parts}, nil
}

// Shards returns the shard count N.
func (x *Index) Shards() int { return len(x.parts) }

// Part returns shard s's index.
func (x *Index) Part(s int) *sigfile.BBS { return x.parts[s] }

// Len returns the total number of transactions across all shards.
func (x *Index) Len() int {
	n := 0
	for _, p := range x.parts {
		n += p.Len()
	}
	return n
}

// Live returns the total number of non-deleted transactions.
func (x *Index) Live() int {
	n := 0
	for _, p := range x.parts {
		n += p.Live()
	}
	return n
}

// Deleted returns the total number of tombstoned transactions.
func (x *Index) Deleted() int {
	n := 0
	for _, p := range x.parts {
		n += p.Deleted()
	}
	return n
}

// Route maps a global ordinal position to its (shard, local position) pair.
func (x *Index) Route(pos int) (shard, local int) {
	return pos % len(x.parts), pos / len(x.parts)
}

// Insert indexes one transaction at the next global ordinal position and
// returns that position. Routing is round-robin, which keeps the shards
// balanced and the local position equal to pos div N by induction.
func (x *Index) Insert(items []int32) int {
	pos := x.Len()
	x.parts[pos%len(x.parts)].Insert(items)
	return pos
}

// Delete tombstones the transaction at global position pos.
func (x *Index) Delete(pos int, items []int32) error {
	if pos < 0 || pos >= x.Len() {
		return fmt.Errorf("shard: position %d out of range [0,%d)", pos, x.Len())
	}
	s, local := x.Route(pos)
	if err := x.parts[s].Delete(local, items); err != nil {
		return fmt.Errorf("shard: deleting position %d (shard %d local %d): %w", pos, s, local, err)
	}
	return nil
}

// IsLive reports whether the transaction at global position pos is live.
func (x *Index) IsLive(pos int) bool {
	s, local := x.Route(pos)
	return x.parts[s].IsLive(local)
}

// SetObserver attaches (nil: detaches) a registry for per-shard fan-out
// accounting. Call between runs, not during one.
func (x *Index) SetObserver(o *obs.Registry) { x.obs = o }

// SetCompression sets the adaptive storage policy on every shard and
// re-encodes each shard's slices to match (see sigfile.SetCompression).
// Per-shard, not global: each part picks encodings from its own densities.
func (x *Index) SetCompression(on bool) {
	for _, p := range x.parts {
		p.SetCompression(on)
	}
}

// Compressed reports whether the adaptive storage policy is on. The policy
// is set index-wide, so part 0 speaks for all.
func (x *Index) Compressed() bool { return x.parts[0].Compressed() }

// ResidentSliceBytes sums the shards' resident slice footprints — the bytes
// the slices actually occupy under their current encodings.
func (x *Index) ResidentSliceBytes() int64 {
	var n int64
	for _, p := range x.parts {
		n += p.ResidentSliceBytes()
	}
	return n
}

// Epochs returns the per-shard epoch vector, in shard order.
func (x *Index) Epochs() []uint64 {
	out := make([]uint64, len(x.parts))
	for i, p := range x.parts {
		out[i] = p.Epoch()
	}
	return out
}
