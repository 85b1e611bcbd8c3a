// Package bbsmine is a frequent-pattern mining library built on the
// Bit-Sliced Bloom-Filtered Signature File (BBS) of Lan, Ooi & Tan,
// "Efficient Indexing Structures for Mining Frequent Patterns" (ICDE 2002).
//
// A Database couples an append-only transaction store with a persistent BBS
// index. Unlike an FP-tree, the index never needs rebuilding: appending a
// transaction updates both structures in place, so mining stays cheap as
// the database grows. Mining runs one of the paper's four filter-and-refine
// algorithms (SFS, SFP, DFS, DFP); the index also answers ad-hoc support
// queries — including over non-frequent itemsets and under constraints —
// that scan-based miners cannot answer without re-reading the data.
//
// The database can be partitioned horizontally into N shards
// (Options.Shards), each owning its own slices, counters and data file.
// Writes route round-robin by insertion order; ad-hoc counts fan out to the
// shards and merge deterministically; a full mining run reads the shards in
// place, as one index whose rows are the shards' rows in block order, and
// its results are byte-identical to an unsharded database over the same
// transactions. Sharding changes throughput and layout, never an answer.
//
// Quick start:
//
//	db, err := bbsmine.Open(dir, bbsmine.Options{})
//	...
//	db.Append(tid, []int32{3, 17, 29})
//	...
//	res, err := db.Mine(bbsmine.MineOptions{MinSupportFrac: 0.003, Scheme: bbsmine.DFP})
//	for _, p := range res.Patterns { fmt.Println(p.Items, p.Support) }
package bbsmine

import (
	"fmt"

	"bbsmine/internal/core"
	"bbsmine/internal/iostat"
	"bbsmine/internal/pager"
	"bbsmine/internal/shard"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// Options configures a Database.
type Options struct {
	// M is the signature width in bits. Larger M means fewer false drops
	// but a bigger index; the paper's sweet spot for its workloads is 1600
	// (Section 4.1). Defaults to 1600.
	M int
	// K is the number of hash functions per item. Defaults to 4 (the four
	// 32-bit groups of one MD5 digest).
	K int
	// Shards partitions the database horizontally. 0 means "whatever the
	// directory already is" (1 for a new or unsharded directory). Opening
	// an existing unsharded directory with Shards > 1 migrates it in place;
	// opening a sharded directory with a different non-zero count is an
	// error. Mining results are identical for every shard count.
	Shards int
	// Compress turns on adaptive per-slice storage: each slice is kept
	// dense or as a sorted position list — whichever is smaller — and the
	// AND chain runs directly over the position lists. Every estimate,
	// count and mined pattern is byte-identical to the dense layout; only
	// the memory footprint and the per-AND cost change. Applied after open
	// (and after the saved index loads), so it composes with any existing
	// directory.
	Compress bool
}

func (o *Options) applyDefaults() {
	if o.M == 0 {
		o.M = 1600
	}
	if o.K == 0 {
		o.K = 4
	}
}

// Database is a transaction database with a BBS index kept in sync.
// It is not safe for concurrent use.
type Database struct {
	sdb   *shard.DB
	stats *iostat.Stats
	pager *pager.Pager // non-nil while the index storage is tiered
}

// Open opens (or creates) a persistent database in dir. If an index file
// is missing or lags behind its transaction file — for example after a
// crash between appends — the missing tail is re-indexed automatically.
func Open(dir string, opts Options) (*Database, error) {
	opts.applyDefaults()
	stats := &iostat.Stats{}
	sdb, err := shard.Open(dir, opts.M, opts.K, opts.Shards, stats)
	if err != nil {
		return nil, err
	}
	if opts.Compress {
		sdb.SetCompression(true)
	}
	return &Database{sdb: sdb, stats: stats}, nil
}

// NewInMemory creates a volatile database, useful for tests, examples and
// benchmarks.
func NewInMemory(opts Options) *Database {
	opts.applyDefaults()
	shards := opts.Shards
	if shards == 0 {
		shards = 1
	}
	stats := &iostat.Stats{}
	sdb, err := shard.NewMem(sighash.NewMD5(opts.M, opts.K), shards, stats)
	if err != nil {
		// Only a non-positive shard count can fail; mirror the old API's
		// no-error contract by treating it as a programming error.
		panic(err)
	}
	if opts.Compress {
		sdb.SetCompression(true)
	}
	return &Database{sdb: sdb, stats: stats}
}

// Shards returns the database's shard count (1 when unsharded).
func (db *Database) Shards() int { return db.sdb.Shards() }

// Append adds one transaction to the database and the index. Items are
// normalized (sorted, deduplicated); the input slice is not retained. With
// shards, the transaction routes round-robin to the shard of its insertion
// ordinal.
func (db *Database) Append(tid int64, items []int32) error {
	return db.sdb.Append(txdb.NewTransaction(tid, items))
}

// Len returns the number of transaction slots, including deleted ones.
func (db *Database) Len() int { return db.sdb.Len() }

// Live returns the number of non-deleted transactions.
func (db *Database) Live() int { return db.sdb.Index().Live() }

// Delete tombstones the transaction at ordinal position pos. The record
// remains in the data file (Bloom bits cannot be unset) but disappears from
// every estimate, count and mining result immediately; Compact reclaims the
// space. Deleting twice or out of range is an error.
func (db *Database) Delete(pos int) error { return db.sdb.Delete(pos) }

// Compact rewrites a persistent database without its deleted transactions
// and rebuilds the index over the survivors. Positions shift; constraints
// built earlier are invalidated (their length no longer matches). Only
// persistent unsharded databases can be compacted: dropping rows would
// renumber them across shards and break the round-robin routing.
func (db *Database) Compact() error { return db.sdb.Compact() }

// Get returns the transaction at ordinal position pos (0-based insertion
// order) as (tid, items).
func (db *Database) Get(pos int) (int64, []int32, error) {
	tx, err := db.sdb.Get(pos)
	if err != nil {
		return 0, nil, err
	}
	return tx.TID, tx.Items, nil
}

// IndexBytes returns the logical (all-dense) size of the BBS index in
// bytes, summed over the shards — the classic m × n / 8 footprint, stable
// across storage policies.
func (db *Database) IndexBytes() int64 {
	var n int64
	for s := 0; s < db.sdb.Shards(); s++ {
		n += db.sdb.Index().Part(s).TotalBytes()
	}
	return n
}

// ResidentIndexBytes returns the bytes the slices actually occupy under
// their current encodings, summed over the shards. Equal to IndexBytes when
// compression is off (modulo lazily-grown tails); the compression ratio is
// IndexBytes / ResidentIndexBytes.
func (db *Database) ResidentIndexBytes() int64 {
	return db.sdb.Index().ResidentSliceBytes()
}

// Compressed reports whether adaptive slice compression is on.
func (db *Database) Compressed() bool { return db.sdb.Index().Compressed() }

// SetCompression turns adaptive slice compression on or off, re-encoding
// every shard's slices to match. Mining results are identical either way;
// see Options.Compress.
func (db *Database) SetCompression(on bool) { db.sdb.SetCompression(on) }

// Tier caps the index's memory at memBudget bytes by splitting the slices
// into tiers: the hottest slices (ranked by touches, the per-slice
// AND-participation counts an Observer collects during a profiling run —
// nil ranks smallest-first) stay resident inside half the budget, and the
// rest serialize into per-shard cold files whose pages fault through a
// bounded buffer pool sharing the remaining budget. Every estimate, count
// and mined pattern stays byte-identical to the resident index; only where
// the bytes live — and the I/O to reach them — changes.
//
// Cold files land in the database directory; an in-memory database needs
// scratchDir. Untier reverses the split.
func (db *Database) Tier(memBudget int64, scratchDir string, touches []uint64) error {
	if db.pager != nil {
		return fmt.Errorf("bbsmine: database already tiered")
	}
	pg := pager.New(memBudget)
	if err := db.sdb.Tier(pg, scratchDir, memBudget/2, touches); err != nil {
		// A failed multi-shard pass may have tiered a prefix; roll it back.
		_ = db.sdb.Untier()
		return err
	}
	db.pager = pg
	return nil
}

// Untier thaws every slice back to residency and closes the cold files.
func (db *Database) Untier() error {
	if db.pager == nil {
		return nil
	}
	err := db.sdb.Untier()
	db.pager = nil
	return err
}

// Tiered reports whether the index storage is currently tiered.
func (db *Database) Tiered() bool { return db.pager != nil }

// TierStats is a point-in-time view of the tiered storage: the buffer
// pool's counters plus the slice-tier census. Zero when untiered.
type TierStats struct {
	MemBudget     int64   // the Tier byte budget
	ResidentBytes int64   // bytes held by pool frames
	ReservedBytes int64   // hot-tier bytes reserved against the budget
	Faults        int64   // cold pages read through
	Hits          int64   // page requests served from a resident frame
	Evictions     int64   // frames reclaimed by the CLOCK sweep
	HitRatio      float64 // hits / (hits + faults)
	SlicesHot     int     // slices resident (pinned hot or untiered)
	SlicesCold    int     // slices faulting from the cold tier
	ColdBytes     int64   // summed cold payload bytes
}

// TierStats returns the tiered storage counters; the zero value when the
// database is not tiered.
func (db *Database) TierStats() TierStats {
	if db.pager == nil {
		return TierStats{}
	}
	s := db.pager.Stats()
	hot, cold := db.sdb.Index().TierCensus()
	return TierStats{
		MemBudget:     db.pager.Budget(),
		ResidentBytes: s.ResidentBytes,
		ReservedBytes: s.ReservedBytes,
		Faults:        s.Faults,
		Hits:          s.Hits,
		Evictions:     s.Evictions,
		HitRatio:      s.HitRatio(),
		SlicesHot:     hot,
		SlicesCold:    cold,
		ColdBytes:     db.sdb.Index().ColdPayloadBytes(),
	}
}

// Save persists every shard's index. Transaction data is durable as soon as
// Append returns; the index is saved explicitly because it is cheap to
// rebuild a short tail but expensive to write on every append.
func (db *Database) Save() error {
	if db.sdb.Dir() == "" {
		return fmt.Errorf("bbsmine: in-memory database has nothing to save")
	}
	return db.sdb.Save()
}

// Close releases the underlying files. In-memory databases are a no-op.
func (db *Database) Close() error { return db.sdb.Close() }

// Stats returns a snapshot of the I/O and work counters accumulated so far.
func (db *Database) Stats() iostat.Snapshot { return db.stats.Snapshot() }

// ResetStats zeroes the counters, typically before a measured run.
func (db *Database) ResetStats() { db.stats.Reset() }

// miner binds a core.Miner to the database as it is now: the view of the
// shards' indexes over the concatenation of their stores. Binding builds
// nothing, so every run binds afresh.
func (db *Database) miner() (*core.Miner, error) {
	idx, store, err := db.sdb.Merged()
	if err != nil {
		return nil, err
	}
	return core.NewViewMiner(idx, store, db.stats)
}
