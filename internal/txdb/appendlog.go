package txdb

import (
	"fmt"

	"bbsmine/internal/iostat"
	"bbsmine/internal/pager"
)

// AppendLog is the serving layer's transaction store: an append-only
// in-memory log supporting O(1) immutable snapshots. The serving commit
// loop is its single writer; every mining query runs against a View taken
// at the query's epoch, so readers never observe a half-applied batch.
//
// The safety argument is structural. Append only ever grows the backing
// slices; a View captures their headers (pointer, length) at snapshot time
// and never reads past its captured length. A later Append either writes
// into spare capacity beyond every captured length or reallocates, leaving
// old arrays untouched — so views need no locks at all. Records are never
// mutated after Append (the Store contract), making element reads safe too.
//
// Deletions do not remove records: the BBS index tombstones positions in
// its live mask, and the log keeps the record so positional indexes stay
// stable — the same model the file store uses.
type AppendLog struct {
	txs     []Transaction
	offsets []int64 // virtual byte offset of each record
	size    int64   // total virtual bytes
	stats   *iostat.Stats
}

// NewAppendLog returns an empty log charging I/O to stats. A nil stats
// disables accounting.
func NewAppendLog(stats *iostat.Stats) *AppendLog {
	if stats == nil {
		stats = &iostat.Stats{}
	}
	return &AppendLog{stats: stats}
}

// LoadAppendLog builds a log from an existing store with one sequential
// pass (not charged: loading is part of opening, not of any mining run).
func LoadAppendLog(src Store, stats *iostat.Stats) (*AppendLog, error) {
	l := NewAppendLog(stats)
	switch s := src.(type) {
	case *MemStore:
		// Offsets are already computed; reuse the records directly.
		for _, tx := range s.txs {
			if err := l.Append(tx); err != nil {
				return nil, fmt.Errorf("txdb: loading log: %w", err)
			}
		}
		return l, nil
	default:
		base := src
		if fs, ok := src.(*FileStore); ok {
			base = &uncharged{fs}
		}
		if err := base.Scan(func(pos int, tx Transaction) bool {
			l.txs = append(l.txs, tx)
			l.offsets = append(l.offsets, l.size)
			l.size += int64(tx.EncodedSize())
			return true
		}); err != nil {
			return nil, fmt.Errorf("txdb: loading log: %w", err)
		}
		return l, nil
	}
}

// uncharged wraps a FileStore so the loading scan does not bill a mining
// pass to the shared stats sink.
type uncharged struct{ fs *FileStore }

func (u *uncharged) Len() int { return u.fs.Len() }
func (u *uncharged) Scan(fn func(pos int, tx Transaction) bool) error {
	silent := &iostat.Stats{}
	saved := u.fs.stats
	u.fs.stats = silent
	defer func() { u.fs.stats = saved }()
	return u.fs.Scan(fn)
}
func (u *uncharged) Get(pos int) (Transaction, error) { return u.fs.Get(pos) }
func (u *uncharged) Append(tx Transaction) error      { return u.fs.Append(tx) }

// Len returns the number of appended transactions.
func (l *AppendLog) Len() int { return len(l.txs) }

// Size returns the virtual encoded size of the log in bytes.
func (l *AppendLog) Size() int64 { return l.size }

// Append adds one transaction. Single writer only.
func (l *AppendLog) Append(tx Transaction) error {
	if err := tx.Validate(); err != nil {
		return fmt.Errorf("txdb: log append: %w", err)
	}
	l.offsets = append(l.offsets, l.size)
	l.size += int64(tx.EncodedSize())
	l.txs = append(l.txs, tx)
	return nil
}

// Get fetches the record at pos without page accounting (writer-side use:
// resolving the items of a record about to be deleted).
func (l *AppendLog) Get(pos int) (Transaction, error) {
	if pos < 0 || pos >= len(l.txs) {
		return Transaction{}, fmt.Errorf("txdb: position %d out of range [0,%d)", pos, len(l.txs))
	}
	return l.txs[pos], nil
}

// View captures an immutable snapshot of the log. The view is a Store with
// its own page-cache model (so concurrent queries budget independently) and
// is safe for the concurrent Get traffic of a parallel mining run. Like
// Append, View is the single writer's call: it reads the log's headers,
// which Append rewrites.
func (l *AppendLog) View() *LogView {
	return &LogView{
		txs:     l.txs,
		offsets: l.offsets,
		size:    l.size,
		stats:   l.stats,
	}
}

// LogView is an immutable snapshot of an AppendLog, implementing Store for
// one or more mining runs at a fixed epoch. Append is rejected: writes go
// through the owning log's single writer.
type LogView struct {
	txs     []Transaction
	offsets []int64
	size    int64
	stats   *iostat.Stats
	cache   pageCache
}

// Len implements Store.
func (v *LogView) Len() int { return len(v.txs) }

// Scan implements Store.
func (v *LogView) Scan(fn func(pos int, tx Transaction) bool) error {
	v.stats.AddDBScan()
	v.stats.AddDBSeqPages(pagesFor(v.size))
	for i, tx := range v.txs {
		if !fn(i, tx) {
			break
		}
	}
	return nil
}

// Get implements Store.
func (v *LogView) Get(pos int) (Transaction, error) {
	if pos < 0 || pos >= len(v.txs) {
		return Transaction{}, fmt.Errorf("txdb: position %d out of range [0,%d)", pos, len(v.txs))
	}
	start := v.offsets[pos]
	end := v.size
	if pos+1 < len(v.offsets) {
		end = v.offsets[pos+1]
	}
	v.stats.AddDBRandPages(v.cache.misses(start, end, v.stats))
	return v.txs[pos], nil
}

// Append implements Store; a view is read-only.
func (v *LogView) Append(Transaction) error {
	return fmt.Errorf("txdb: append to a read-only log view")
}

// Clone returns a view over the same records with a fresh private page
// cache, so concurrent queries sharing one snapshot budget their cache
// limits independently instead of racing on SetCacheLimit. An attached
// pager carries over: under tiered storage residency is pooled by design,
// and the shared frame table (not a private LRU) is what keeps each page
// charged once across concurrent queries.
func (v *LogView) Clone() *LogView {
	nv := &LogView{
		txs:     v.txs,
		offsets: v.offsets,
		size:    v.size,
		stats:   v.stats,
	}
	nv.cache.virt = v.cache.pagerFile()
	return nv
}

// SetCacheLimit implements CacheLimiter for the view's private pool model.
func (v *LogView) SetCacheLimit(bytes int64) { v.cache.setLimit(bytes, v.stats) }

// AttachPager moves the view's page residency onto a virtual file of the
// shared pager pool (nil detaches and restores the private LRU model), so
// transaction pages and cold slice pages draw from one budget. While
// attached the view stops charging its private page-cache tallies; the
// pager's gauges are authoritative.
func (v *LogView) AttachPager(f *pager.File) { v.cache.attachPager(f, v.stats) }
