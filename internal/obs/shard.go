package obs

import (
	"sync"
	"sync/atomic"
)

// Per-shard serving counters. A sharded database routes writes to one shard
// at a time and fans every count out to all of them, so the interesting
// questions — is one shard hot? are the epochs advancing together? — need
// per-shard resolution. Only what is semantically per-shard lives here
// (epoch, committed batches, the operations they carried, fan-out count
// calls); the mining funnel and kernel counters stay global, because mining
// decisions are made over the shards' summed counts, not per shard.
//
// The shard set grows on first touch: the registry does not know N, and the
// serving layer may publish shard 3's epoch before shard 0 sees traffic.
// Growth swaps in a longer slice of pointers under a mutex; readers load
// the slice atomically, so the hot path (one Add on a fan-out count) is a
// pointer load and an atomic increment, same cost discipline as every other
// counter in this package.

// shardCounters holds one shard's counters. Heap-allocated and reached via
// pointer so growing the shard set never moves live atomics.
type shardCounters struct {
	epoch        atomic.Int64 // gauge
	writeBatches atomic.Int64
	writeOps     atomic.Int64
	countCalls   atomic.Int64
}

// shardStats is the grow-on-first-touch set of per-shard counters. parts is
// declared before the mutex deliberately: readers load it atomically without
// locking, and mu serializes growth only (the lock-discipline convention
// guards fields declared after a mutex).
type shardStats struct {
	parts atomic.Pointer[[]*shardCounters] // nil until the first shard hook fires
	mu    sync.Mutex                       // serializes growth; never needed to read
}

// at returns shard i's counters, growing the set if needed.
func (s *shardStats) at(i int) *shardCounters {
	if p := s.parts.Load(); p != nil && i < len(*p) {
		return (*p)[i]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var parts []*shardCounters
	if p := s.parts.Load(); p != nil {
		parts = *p
	}
	if i < len(parts) {
		return parts[i]
	}
	grown := make([]*shardCounters, i+1)
	copy(grown, parts)
	for j := len(parts); j <= i; j++ {
		grown[j] = &shardCounters{}
	}
	s.parts.Store(&grown)
	return grown[i]
}

// AddShardCount records one fan-out count call answered by shard s.
func (r *Registry) AddShardCount(s int) {
	if r == nil || s < 0 {
		return
	}
	r.server.active.Store(true)
	r.shards.at(s).countCalls.Add(1)
}

// SetShardEpoch publishes shard s's current epoch.
func (r *Registry) SetShardEpoch(s int, epoch uint64) {
	if r == nil || s < 0 {
		return
	}
	r.server.active.Store(true)
	r.shards.at(s).epoch.Store(int64(epoch))
}

// AddShardWriteBatch records one batch of ops operations committed by
// shard s's commit loop. The caller still calls AddWriteBatch for the
// global totals and the batch-size histogram; this is the per-shard split.
func (r *Registry) AddShardWriteBatch(s int, ops int64) {
	if r == nil || s < 0 {
		return
	}
	r.server.active.Store(true)
	r.shards.at(s).writeBatches.Add(1)
	r.shards.at(s).writeOps.Add(ops)
}

// ShardMetrics is one shard's slice of the server section, in shard order.
type ShardMetrics struct {
	Epoch        int64 `json:"epoch"`
	WriteBatches int64 `json:"write_batches"`
	WriteOps     int64 `json:"write_ops"`
	CountCalls   int64 `json:"count_calls"`
}

// shardMetrics snapshots the per-shard counters; nil when no shard hook has
// fired, so unsharded servers keep their exposition unchanged.
func (r *Registry) shardMetrics() []ShardMetrics {
	p := r.shards.parts.Load()
	if p == nil {
		return nil
	}
	out := make([]ShardMetrics, len(*p))
	for i, c := range *p {
		out[i] = ShardMetrics{
			Epoch:        c.epoch.Load(),
			WriteBatches: c.writeBatches.Load(),
			WriteOps:     c.writeOps.Load(),
			CountCalls:   c.countCalls.Load(),
		}
	}
	return out
}
