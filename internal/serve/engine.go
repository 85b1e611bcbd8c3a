// Package serve implements bbsd's concurrent mining engine: one or more
// BBS shards behind an HTTP front-end, with snapshot-isolated queries,
// batched per-shard writes and an epoch-keyed query cache.
//
// The concurrency model is scatter-gather over N shards (N = 1 is the
// unsharded special case, not a separate code path). A small router assigns
// every inserted transaction a global ordinal and routes it round-robin —
// ordinal g lives in shard g mod N — then hands each shard its slice of the
// request. Each shard owns a commit loop: the loop drains whatever
// sub-requests have queued, applies them to that shard's index and log,
// bumps that shard's epoch once per batch, and publishes a fresh immutable
// per-shard snapshot (a copy-on-write sigfile.Snapshot plus a txdb.LogView
// taken at the same commit point). Shards never wait for each other, which
// is the point: with N shards there are N independent writers instead of
// one.
//
// Queries never touch the masters: each one loads the N snapshot pointers —
// an epoch vector (e_0, ..., e_{N-1}) — and mines a private view of it.
// The isolation guarantee is per shard: a query sees shard s exactly at
// epoch e_s, never a half-applied batch, but the vector is not a global
// cut — a multi-shard write becomes visible shard by shard, and a query
// may observe one shard's half of it before another's. Requests validate
// atomically in the router (a rejected request changes nothing anywhere);
// what relaxes under sharding is only cross-shard apply atomicity. A mine
// binds the per-shard snapshots as one block-order view (sigfile.View: a row
// permutation of the unsharded index read in place, so every answer is
// byte-identical to an unsharded engine holding the same data at the same
// epochs); binding builds nothing, so there is nothing to cache or to
// invalidate on a write.
//
// Identical queries are answered once: results are cached per (epoch
// vector, scheme, τ, maxlen, budget, constraint), and concurrent identical
// misses collapse into a single mine via single-flight. Admission control
// bounds the number of concurrent cold mines and the queue behind them;
// everything past that is rejected immediately rather than piling up.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/core"
	"bbsmine/internal/iostat"
	"bbsmine/internal/mining"
	"bbsmine/internal/obs"
	"bbsmine/internal/pager"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/txdb"
)

// Sentinel errors, exposed so the HTTP layer (and tests) can map them to
// status codes with errors.Is.
var (
	// ErrInvalid marks a request the engine refused to run (bad scheme,
	// threshold, constraint or write payload).
	ErrInvalid = errors.New("serve: invalid request")
	// ErrOverloaded marks a query rejected by admission control.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrClosed marks a write that arrived after Close began.
	ErrClosed = errors.New("serve: engine closed")
)

// Defaults for the zero values of Options.
const (
	defaultMaxInFlight  = 2
	defaultMaxQueue     = 8
	defaultCacheEntries = 128
	defaultPageCache    = 64 << 20
	writeQueueDepth     = 128
)

// ShardOptions is one shard's state: its index, its in-memory log, and
// optionally its durable store and index path. Index and Log are required
// and must cover the same transactions.
type ShardOptions struct {
	// Index is the shard's master BBS index, owned by the engine from now
	// on: nothing else may mutate it while the engine is open.
	Index *sigfile.BBS
	// Log is the in-memory transaction log backing the index, same
	// ownership rule.
	Log *txdb.AppendLog
	// File, when non-nil, is the shard's durable store: the shard's commit
	// loop appends every insert to it before the in-memory apply, and Close
	// syncs it.
	File *txdb.FileStore
	// IndexPath, when non-empty, is where Close saves the shard's index.
	IndexPath string
}

// Options configures an Engine. Provide either the single-shard sugar
// fields (Index, Log, File, IndexPath — exactly one shard) or Shards, not
// both; everything else has a serviceable zero value.
type Options struct {
	// Index, Log, File and IndexPath configure a one-shard engine; they are
	// shorthand for Shards with a single entry.
	Index     *sigfile.BBS
	Log       *txdb.AppendLog
	File      *txdb.FileStore
	IndexPath string
	// Shards configures one entry per shard. The shards' lengths must
	// satisfy the round-robin layout (shard i holds ceil((n-i)/N) of the n
	// transactions), which is what shard.Open produces.
	Shards []ShardOptions
	// Workers is the default mining pool size per query (0 = one per CPU);
	// a request may override it, which never changes the answer.
	Workers int
	// MaxInFlight bounds concurrent cold mines (default 2).
	MaxInFlight int
	// MaxQueue bounds cold mines waiting behind the in-flight ones
	// (default 8); beyond it queries fail fast with ErrOverloaded.
	MaxQueue int
	// CacheEntries bounds the query cache (default 128 results).
	CacheEntries int
	// RequestTimeout bounds each mine's run time (0 = unbounded).
	RequestTimeout time.Duration
	// PageCacheLimit bounds the durable stores' page caches in bytes
	// (default 64 MiB), split evenly across the shards that have files.
	// Ignored when MemBudget is set: tiered mode pools all residency.
	PageCacheLimit int64
	// MemBudget, when > 0, enables tiered slice storage: each shard's
	// index is split into an obs-driven hot tier and an on-disk cold tier
	// (cold files under ColdDir), and slice frames plus transaction-store
	// page residency share one pager pool of this many bytes.
	MemBudget int64
	// ColdDir is where tiered mode writes the per-shard cold files.
	// Required when MemBudget > 0.
	ColdDir string
	// Observe receives the server and mining telemetry; nil disables it.
	Observe *obs.Registry
	// RequestLog, when non-nil, receives one structured JSON line per
	// served request (id, class, verdict, epoch vector, stage timings,
	// outcome).
	RequestLog *obs.RequestLog
	// Clock supplies the wall clock (default SystemClock); tests inject a
	// fake so served timestamps stay deterministic.
	Clock Clock
}

// snapshot is one shard's immutable (index, log) pair published at a commit
// point. Queries clone from it; the shard's commit loop replaces it
// wholesale.
//
// Under tiered storage a snapshot also owns a pager epoch tag: frames a
// query faults while the snapshot is current inherit the tag and stay
// evict-exempt until the snapshot is superseded AND its last query drains
// (refs: one publisher ref dropped at replacement, one per in-flight
// mine). A query can race the drain — load the pointer after the tag was
// already released — which is benign by design: pager pinning is advisory,
// so an unprotected snapshot re-faults pages instead of misreading them,
// and the released CAS keeps the tag from being freed twice.
type snapshot struct {
	epoch    uint64
	idx      *sigfile.BBS
	log      *txdb.LogView
	pg       *pager.Pager // nil when tiering is off
	pagerTag uint64
	refs     atomic.Int64
	released atomic.Bool
}

func (sn *snapshot) retain() { sn.refs.Add(1) }

func (sn *snapshot) release() {
	if sn.refs.Add(-1) == 0 && sn.released.CompareAndSwap(false, true) {
		sn.pg.ReleaseEpoch(sn.pagerTag)
	}
}

// engineShard is one shard's serving state: the master index and log its
// commit loop owns, the published snapshot readers load, and the channel
// the router feeds.
type engineShard struct {
	id        int
	idx       *sigfile.BBS // master; this shard's commit loop only after New returns
	log       *txdb.AppendLog
	file      *txdb.FileStore
	indexPath string
	pg        *pager.Pager // nil when tiering is off
	logVirt   *pager.File  // virtual residency file attached to published log views
	snap      atomic.Pointer[snapshot]
	writeCh   chan *shardWrite
	loopDone  chan struct{}
}

// Engine is the serving core: N per-shard writers (the commit loops) behind
// a thin router, and any number of snapshot-isolated readers.
type Engine struct {
	obs      *obs.Registry
	reqlog   *obs.RequestLog
	stats    *iostat.Stats
	clock    Clock
	start    time.Time
	idPrefix string        // request-ID prefix, derived from the start timestamp
	reqSeq   atomic.Uint64 // request-ID sequence
	shards   []*engineShard
	workers  int
	maxQueue int
	timeout  time.Duration
	cache    *queryCache
	pager    *pager.Pager  // shared frame pool; nil when tiering is off
	admitCh  chan struct{} // in-flight mine slots
	queueLen atomic.Int64
	wedged   atomic.Pointer[wedgeState] // set on an apply I/O error; fails all later writes

	// The router: assigns global ordinals, validates requests whole,
	// splits them across the shards and tracks tombstones. rmu also orders
	// writeCh sends against close(writeCh).
	rmu     sync.Mutex
	closed  bool
	nextPos int          // next global ordinal to assign
	dead    map[int]bool // every tombstoned global position, seeded at New
}

// wedgeState records the first apply-path I/O error. Inserts are assigned
// global ordinals before they reach a shard, so an insert that fails to
// apply would leave a hole in the round-robin layout; rather than serve a
// corrupted layout, the engine stops accepting writes and reports the
// error. Queries keep working against the published snapshots.
type wedgeState struct{ err error }

// New validates the components, publishes the initial snapshots and starts
// one commit loop per shard. The engine owns the indexes and logs from here
// on.
func New(opts Options) (*Engine, error) {
	parts := opts.Shards
	if len(parts) == 0 {
		if opts.Index == nil || opts.Log == nil {
			return nil, fmt.Errorf("serve: Options.Index and Options.Log are required")
		}
		parts = []ShardOptions{{Index: opts.Index, Log: opts.Log, File: opts.File, IndexPath: opts.IndexPath}}
	} else if opts.Index != nil || opts.Log != nil || opts.File != nil || opts.IndexPath != "" {
		return nil, fmt.Errorf("serve: set Options.Shards or the single-shard fields, not both")
	}
	n := len(parts)
	total := 0
	for s, p := range parts {
		if p.Index == nil || p.Log == nil {
			return nil, fmt.Errorf("serve: shard %d needs Index and Log", s)
		}
		if p.Index.Len() != p.Log.Len() {
			return nil, fmt.Errorf("serve: shard %d index covers %d transactions but the log has %d", s, p.Index.Len(), p.Log.Len())
		}
		if p.File != nil && p.File.Len() != p.Log.Len() {
			return nil, fmt.Errorf("serve: shard %d data file has %d transactions but the log has %d", s, p.File.Len(), p.Log.Len())
		}
		total += p.Index.Len()
	}
	for s, p := range parts {
		want := (total - s + n - 1) / n
		if p.Index.Len() != want {
			return nil, fmt.Errorf("serve: shard %d holds %d rows, round-robin layout over %d rows needs %d", s, p.Index.Len(), total, want)
		}
	}
	maxInFlight := opts.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = defaultMaxInFlight
	}
	maxQueue := opts.MaxQueue
	if maxQueue <= 0 {
		maxQueue = defaultMaxQueue
	}
	cacheEntries := opts.CacheEntries
	if cacheEntries <= 0 {
		cacheEntries = defaultCacheEntries
	}
	clock := opts.Clock
	if clock == nil {
		clock = SystemClock()
	}
	var pg *pager.Pager
	if opts.MemBudget > 0 {
		if opts.ColdDir == "" {
			return nil, fmt.Errorf("serve: MemBudget needs ColdDir for the cold files")
		}
		pg = pager.New(opts.MemBudget)
		// Mirror bbsmine.Database.Tier: half the budget pins hot slices,
		// the rest is the frame pool cold pages and transaction pages share.
		perShard := opts.MemBudget / 2 / int64(n)
		var touches []uint64
		if opts.Observe != nil {
			touches = opts.Observe.SliceTouches()
		}
		for s, p := range parts {
			cold := filepath.Join(opts.ColdDir, fmt.Sprintf("shard-%03d.cold", s))
			if err := p.Index.Tier(pg, cold, perShard, touches); err != nil {
				return nil, fmt.Errorf("serve: tiering shard %d: %w", s, err)
			}
			if p.File != nil {
				p.File.AttachPager(pg.Virtual(fmt.Sprintf("txdb/shard-%d", s)))
			}
		}
	} else {
		files := 0
		for _, p := range parts {
			if p.File != nil {
				files++
			}
		}
		if files > 0 {
			limit := opts.PageCacheLimit
			if limit <= 0 {
				limit = defaultPageCache
			}
			per := limit / int64(files)
			for _, p := range parts {
				if p.File != nil {
					p.File.SetCacheLimit(per)
				}
			}
		}
	}
	e := &Engine{
		obs:      opts.Observe,
		reqlog:   opts.RequestLog,
		stats:    parts[0].Index.Stats(),
		clock:    clock,
		start:    clock.Now(),
		idPrefix: fmt.Sprintf("r%x", uint64(clock.Now().UnixNano())),
		workers:  opts.Workers,
		maxQueue: maxQueue,
		timeout:  opts.RequestTimeout,
		cache:    newQueryCache(cacheEntries, opts.Observe),
		pager:    pg,
		admitCh:  make(chan struct{}, maxInFlight),
		nextPos:  total,
		dead:     make(map[int]bool),
	}
	e.shards = make([]*engineShard, n)
	for s, p := range parts {
		sh := &engineShard{
			id:        s,
			idx:       p.Index,
			log:       p.Log,
			file:      p.File,
			indexPath: p.IndexPath,
			pg:        pg,
			logVirt:   pg.Virtual(fmt.Sprintf("log/shard-%d", s)),
			writeCh:   make(chan *shardWrite, writeQueueDepth),
			loopDone:  make(chan struct{}),
		}
		for local := 0; local < p.Index.Len(); local++ {
			if !p.Index.IsLive(local) {
				e.dead[local*n+s] = true
			}
		}
		sh.publish()
		e.obs.SetShardEpoch(s, sh.idx.Epoch())
		e.shards[s] = sh
	}
	e.obs.SetEpoch(e.Epoch())
	if pg != nil && opts.Observe != nil {
		opts.Observe.SetPagerSource(func() obs.PagerMetrics {
			ps := pg.Stats()
			var hot, cold int
			for _, sh := range e.shards {
				// Census the published snapshot, not the master: the
				// commit loop mutates the master's slice table.
				h, c := sh.snap.Load().idx.TierCensus()
				hot += h
				cold += c
			}
			return obs.PagerMetrics{
				ResidentBytes: ps.ResidentBytes,
				ReservedBytes: ps.ReservedBytes,
				Faults:        ps.Faults,
				Hits:          ps.Hits,
				Evictions:     ps.Evictions,
				HitRatio:      ps.HitRatio(),
				SlicesHot:     int64(hot),
				SlicesCold:    int64(cold),
			}
		})
	}
	for _, sh := range e.shards {
		go e.shardLoop(sh)
	}
	return e, nil
}

// publish snapshots the shard's master state. Called from New and the
// shard's own commit loop only — the per-shard single-writer rule is what
// makes Snapshot/View safe here. Each published snapshot carries a fresh
// pager epoch tag and the publisher's ref; the replaced snapshot loses
// that ref, so its tag drains once its last in-flight query finishes.
func (sh *engineShard) publish() {
	next := &snapshot{
		epoch:    sh.idx.Epoch(),
		idx:      sh.idx.Snapshot(),
		log:      sh.log.View(),
		pg:       sh.pg,
		pagerTag: sh.pg.AcquireEpoch(),
	}
	if sh.logVirt != nil {
		next.log.AttachPager(sh.logVirt)
	}
	next.refs.Store(1)
	if old := sh.snap.Swap(next); old != nil {
		old.release()
	}
}

// Shards returns the engine's shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// loadSnaps loads every shard's current snapshot pointer. The result is an
// epoch vector, not a global cut: each shard is internally consistent at
// its own epoch.
func (e *Engine) loadSnaps() []*snapshot {
	snaps := make([]*snapshot, len(e.shards))
	for i, sh := range e.shards {
		snaps[i] = sh.snap.Load()
	}
	return snaps
}

// epochKey encodes an epoch vector as the cache-key string "e0.e1...".
func epochKey(snaps []*snapshot) string {
	if len(snaps) == 1 {
		return strconv.FormatUint(snaps[0].epoch, 10)
	}
	buf := make([]byte, 0, 4*len(snaps))
	for i, sn := range snaps {
		if i > 0 {
			buf = append(buf, '.')
		}
		buf = strconv.AppendUint(buf, sn.epoch, 10)
	}
	return string(buf)
}

// epochSum collapses an epoch vector into the scalar the wire format
// reports: each term only grows, so the sum is monotone and an unsharded
// engine's sum is its one epoch, unchanged.
func epochSum(snaps []*snapshot) uint64 {
	var sum uint64
	for _, sn := range snaps {
		sum += sn.epoch
	}
	return sum
}

// epochVector returns the per-shard epochs of a snapshot vector.
func epochVector(snaps []*snapshot) []uint64 {
	out := make([]uint64, len(snaps))
	for i, sn := range snaps {
		out[i] = sn.epoch
	}
	return out
}

// Epoch returns the sum of the currently published per-shard epochs (the
// shard epoch itself when unsharded).
func (e *Engine) Epoch() uint64 { return epochSum(e.loadSnaps()) }

// EpochVector returns the currently published per-shard epochs, in shard
// order.
func (e *Engine) EpochVector() []uint64 { return epochVector(e.loadSnaps()) }

// Close stops accepting writes, drains and commits what is already queued
// in every shard, syncs the data files and saves the indexes where an
// IndexPath is set. In-flight queries finish against their snapshots. Safe
// to call more than once.
func (e *Engine) Close() error {
	e.rmu.Lock()
	if e.closed {
		e.rmu.Unlock()
		for _, sh := range e.shards {
			<-sh.loopDone
		}
		return nil
	}
	e.closed = true
	for _, sh := range e.shards {
		close(sh.writeCh)
	}
	e.rmu.Unlock()
	for _, sh := range e.shards {
		<-sh.loopDone
	}
	var firstErr error
	for _, sh := range e.shards {
		if sh.file != nil {
			if err := sh.file.Sync(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("serve: syncing shard %d's data file: %w", sh.id, err)
			}
		}
		if sh.indexPath != "" {
			if err := sh.idx.Save(sh.indexPath); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("serve: saving shard %d's index: %w", sh.id, err)
			}
		}
	}
	return firstErr
}

// ---- write path ----

// TxnsRequest is one /txns payload: transactions to insert (items per
// transaction; TIDs are assigned positionally) and positions to tombstone.
// Inserts apply before deletes, so a request may delete a position it just
// inserted.
type TxnsRequest struct {
	Insert [][]int32 `json:"insert,omitempty"`
	Delete []int     `json:"delete,omitempty"`
}

// TxnsResponse reports the outcome: every operation of the request is
// visible to queries at or after Epoch. On a sharded engine Epoch is the
// sum of the per-shard epochs and Epochs carries the vector itself; the
// request's operations become visible shard by shard as each commit loop
// publishes, and the response is sent only after the last one has.
type TxnsResponse struct {
	Epoch    uint64   `json:"epoch"`
	Epochs   []uint64 `json:"epochs,omitempty"`
	Inserted int      `json:"inserted"`
	Deleted  int      `json:"deleted"`
}

// localDel is one routed delete: the shard-local position plus the global
// one for error messages.
type localDel struct {
	local  int
	global int
}

// shardWrite is one shard's slice of a validated request. reqID carries the
// originating request's ID into the shard's commit loop so per-shard apply
// trace events stay attributable end to end.
type shardWrite struct {
	job   *applyJob
	reqID string
	txs   []txdb.Transaction // inserts in ordinal order, TIDs pre-assigned
	dels  []localDel
}

// applyJob gathers the per-shard outcomes of one request. The last shard
// to finish closes done; epochs holds each participating shard's commit
// epoch.
type applyJob struct {
	mu       sync.Mutex
	inserted int
	deleted  int
	err      error // first per-shard apply error
	epochs   map[int]uint64
	pending  int
	done     chan struct{}
}

// Apply submits a write and waits for every involved shard to commit its
// slice of it. The request is validated whole in the router before anything
// is enqueued, so every validation failure is atomic — nothing applied
// anywhere. A mid-apply data-file I/O error is not atomic: the response
// counts report how far the apply got, and the engine stops accepting
// writes (the error would otherwise leave a hole in the round-robin
// layout). A done ctx stops the wait, not the commits.
//
// When the context carries a span (WithSpan), Apply fills it; otherwise it
// mints one internally, so the write-latency histogram and request log see
// every write regardless of entry point.
func (e *Engine) Apply(ctx context.Context, req TxnsRequest) (TxnsResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := SpanFrom(ctx)
	if sp == nil {
		ctx, sp = e.StartSpan(ctx, "", obs.ClassWrite)
	}
	sp.Class = obs.ClassWrite
	start := e.clock.Now()
	res, err := e.applyInner(ctx, req, sp)
	e.finishSpan(sp, start, err)
	return res, err
}

func (e *Engine) applyInner(ctx context.Context, req TxnsRequest, sp *Span) (TxnsResponse, error) {
	if len(req.Insert) == 0 && len(req.Delete) == 0 {
		snaps := e.loadSnaps()
		res := TxnsResponse{Epoch: epochSum(snaps)}
		if len(e.shards) > 1 {
			res.Epochs = epochVector(snaps)
		}
		sp.verdict = "applied"
		sp.epoch = res.Epoch
		sp.epochs = res.Epochs
		return res, nil
	}
	if w := e.wedged.Load(); w != nil {
		return TxnsResponse{}, fmt.Errorf("serve: write path disabled by an earlier apply error: %w", w.err)
	}
	n := len(e.shards)
	job := &applyJob{epochs: make(map[int]uint64), done: make(chan struct{})}

	e.rmu.Lock()
	if e.closed {
		e.rmu.Unlock()
		return TxnsResponse{}, ErrClosed
	}
	base := e.nextPos
	end := base + len(req.Insert)
	writes := make([]*shardWrite, n)
	sub := func(s int) *shardWrite {
		if writes[s] == nil {
			writes[s] = &shardWrite{job: job, reqID: sp.ID}
		}
		return writes[s]
	}
	for i, items := range req.Insert {
		tx := txdb.NewTransaction(int64(base+i), items)
		if err := tx.Validate(); err != nil {
			e.rmu.Unlock()
			return TxnsResponse{}, fmt.Errorf("%w: insert %d: %w", ErrInvalid, i, err)
		}
		s := (base + i) % n
		sub(s).txs = append(sub(s).txs, tx)
	}
	seen := make(map[int]bool, len(req.Delete))
	for _, pos := range req.Delete {
		if pos < 0 || pos >= end {
			e.rmu.Unlock()
			return TxnsResponse{}, fmt.Errorf("%w: delete position %d out of range [0,%d)", ErrInvalid, pos, end)
		}
		if seen[pos] {
			e.rmu.Unlock()
			return TxnsResponse{}, fmt.Errorf("%w: duplicate delete of position %d", ErrInvalid, pos)
		}
		if pos < base && e.dead[pos] {
			e.rmu.Unlock()
			return TxnsResponse{}, fmt.Errorf("%w: position %d is already deleted", ErrInvalid, pos)
		}
		seen[pos] = true
		sub(pos % n).dels = append(sub(pos%n).dels, localDel{local: pos / n, global: pos})
	}
	// The request is valid as a whole: commit the routing decisions and
	// fan the slices out. Holding rmu through the sends keeps shard
	// channel order equal to ordinal order, so a delete of a just-inserted
	// position always lands behind its insert.
	e.nextPos = end
	for _, pos := range req.Delete {
		e.dead[pos] = true
	}
	for s, w := range writes {
		if w != nil {
			job.pending++
			sp.shards = append(sp.shards, s)
		}
	}
	enqueued := e.clock.Now()
	for s, w := range writes {
		if w != nil {
			e.shards[s].writeCh <- w
		}
	}
	e.rmu.Unlock()

	select {
	case <-job.done:
		sp.commitNs = e.clock.Now().Sub(enqueued).Nanoseconds()
	case <-ctx.Done():
		if ctx.Err() != nil {
			return TxnsResponse{}, fmt.Errorf("serve: write abandoned (the batches still commit): %w", ctx.Err())
		}
	}
	res := TxnsResponse{Inserted: job.inserted, Deleted: job.deleted}
	epochs := make([]uint64, n)
	for s := range e.shards {
		if ep, ok := job.epochs[s]; ok {
			epochs[s] = ep
		} else {
			epochs[s] = e.shards[s].snap.Load().epoch
		}
	}
	for _, ep := range epochs {
		res.Epoch += ep
	}
	if n > 1 {
		res.Epochs = epochs
	}
	sp.inserted, sp.deleted = res.Inserted, res.Deleted
	sp.epoch = res.Epoch
	sp.epochs = res.Epochs
	if job.err == nil {
		sp.verdict = "applied"
	}
	return res, job.err
}

// finishSpan completes a request span: it stamps the total latency, derives
// the verdict from the error when the happy path didn't set one, feeds the
// SLO histograms, emits the tracer's request event and writes the request
// log line. Shared by the read and write paths.
func (e *Engine) finishSpan(sp *Span, start time.Time, err error) {
	sp.totalNs = e.clock.Now().Sub(start).Nanoseconds()
	if sp.verdict == "" {
		switch {
		case err == nil:
			sp.verdict = "ok"
		case errors.Is(err, ErrOverloaded):
			sp.verdict = "rejected"
		case errors.Is(err, ErrInvalid):
			sp.verdict = "invalid"
		default:
			sp.verdict = "error"
		}
	}
	e.obs.ObserveRequestLatency(sp.Class, sp.totalNs)
	for st := obs.Stage(0); int(st) < len(sp.stageNs); st++ {
		if ns := sp.stageNs[st]; ns > 0 {
			e.obs.ObserveStage(st, ns)
		}
	}
	if e.obs.Tracing() {
		e.obs.Emit(obs.Event{Kind: "request", Subtree: -1, Req: sp.ID, Verdict: sp.verdict, DurNs: sp.totalNs})
	}
	if e.reqlog == nil {
		return
	}
	rec := obs.RequestRecord{
		ID:       sp.ID,
		Class:    sp.Class.String(),
		Verdict:  sp.verdict,
		Scheme:   sp.scheme,
		Tau:      sp.tau,
		Epoch:    sp.epoch,
		Epochs:   sp.epochs,
		Patterns: sp.patterns,
		Inserted: sp.inserted,
		Deleted:  sp.deleted,
		Shards:   sp.shards,
		QueueNs:  sp.StageNs(obs.StageQueue),
		CacheNs:  sp.StageNs(obs.StageCache),
		BindNs:   sp.StageNs(obs.StageBind),
		MineNs:   sp.StageNs(obs.StageMine),
		RenderNs: sp.StageNs(obs.StageRender),
		CommitNs: sp.commitNs,
		TotalNs:  sp.totalNs,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	e.reqlog.Log(rec)
}

// shardLoop is shard sh's single writer: it blocks for one sub-request,
// greedily drains whatever else has queued for this shard, and commits them
// as one batch with one epoch bump.
func (e *Engine) shardLoop(sh *engineShard) {
	defer close(sh.loopDone)
	for w := range sh.writeCh {
		batch := []*shardWrite{w}
	drain:
		for {
			select {
			case more, ok := <-sh.writeCh:
				if !ok {
					e.shardCommit(sh, batch)
					return
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		e.shardCommit(sh, batch)
	}
}

// shardCommit applies a batch to the shard's master state, bumps the
// shard's epoch once if anything changed, publishes the new snapshot and
// reports each sub-request's outcome to its job. With tracing on it emits
// one apply event per sub-request (tagged with the originating request ID)
// and one commit event per batch, both carrying this shard's index.
func (e *Engine) shardCommit(sh *engineShard, batch []*shardWrite) {
	type outcome struct {
		inserted, deleted int
		err               error
	}
	started := e.clock.Now()
	outs := make([]outcome, len(batch))
	var ops int64
	for i, w := range batch {
		ins, del, err := e.applySub(sh, w)
		outs[i] = outcome{inserted: ins, deleted: del, err: err}
		ops += int64(ins + del)
		if e.obs.Tracing() {
			e.obs.Emit(obs.Event{
				Kind:    "apply",
				Subtree: -1,
				Req:     w.reqID,
				Shard:   obs.ShardTag(sh.id),
				Count:   ins + del,
			})
		}
	}
	epoch := sh.idx.Epoch()
	if ops > 0 {
		epoch = sh.idx.BumpEpoch()
		sh.publish()
		e.obs.SetShardEpoch(sh.id, epoch)
		e.obs.AddShardWriteBatch(sh.id, ops)
		e.obs.SetEpoch(e.Epoch())
		e.obs.AddWriteBatch(ops)
	}
	if e.obs.Tracing() {
		e.obs.Emit(obs.Event{
			Kind:    "commit",
			Subtree: -1,
			Shard:   obs.ShardTag(sh.id),
			Count:   int(ops),
			DurNs:   e.clock.Now().Sub(started).Nanoseconds(),
		})
	}
	for i, w := range batch {
		j := w.job
		j.mu.Lock()
		j.inserted += outs[i].inserted
		j.deleted += outs[i].deleted
		j.epochs[sh.id] = epoch
		if outs[i].err != nil && j.err == nil {
			j.err = outs[i].err
		}
		j.pending--
		if j.pending == 0 {
			close(j.done)
		}
		j.mu.Unlock()
	}
}

// applySub applies one routed sub-request to the shard: inserts (data
// file, then log, then index — the recovery-friendly order shard.Open
// understands) and then deletes. The router already validated the request,
// so the only failures left are I/O; one wedges the engine's write path.
func (e *Engine) applySub(sh *engineShard, w *shardWrite) (inserted, deleted int, err error) {
	if s := e.wedged.Load(); s != nil {
		return 0, 0, fmt.Errorf("serve: write path disabled by an earlier apply error: %w", s.err)
	}
	wedge := func(err error) error {
		e.wedged.CompareAndSwap(nil, &wedgeState{err: err})
		return err
	}
	for _, tx := range w.txs {
		if sh.file != nil {
			if err := sh.file.Append(tx); err != nil {
				return inserted, deleted, wedge(fmt.Errorf("serve: appending to shard %d's data file: %w", sh.id, err))
			}
		}
		if err := sh.log.Append(tx); err != nil {
			return inserted, deleted, wedge(fmt.Errorf("serve: appending to shard %d's log: %w", sh.id, err))
		}
		sh.idx.Insert(tx.Items)
		inserted++
	}
	for _, d := range w.dels {
		tx, err := sh.log.Get(d.local)
		if err != nil {
			return inserted, deleted, wedge(fmt.Errorf("serve: resolving delete of position %d: %w", d.global, err))
		}
		if err := sh.idx.Delete(d.local, tx.Items); err != nil {
			return inserted, deleted, wedge(fmt.Errorf("serve: deleting position %d: %w", d.global, err))
		}
		deleted++
	}
	return inserted, deleted, nil
}

// ---- query path ----

// QueryRequest is one /mine payload.
type QueryRequest struct {
	// Scheme is SFS, SFP, DFS or DFP (default DFP).
	Scheme string `json:"scheme,omitempty"`
	// MinSupportFrac is τ as a fraction of the database size; ignored when
	// MinSupportCount is set. One of the two is required.
	MinSupportFrac float64 `json:"minsup,omitempty"`
	// MinSupportCount is the absolute threshold.
	MinSupportCount int `json:"minsup_count,omitempty"`
	// MaxLen bounds pattern length (0 = unbounded).
	MaxLen int `json:"maxlen,omitempty"`
	// MemoryBudget in bytes triggers adaptive three-phase filtering.
	MemoryBudget int64 `json:"memory_budget,omitempty"`
	// ConstraintItem, when set, mines only transactions containing the
	// item (single-filter schemes only).
	ConstraintItem *int32 `json:"constraint_item,omitempty"`
	// Workers overrides the engine's default pool size for this query;
	// the answer is identical for every value.
	Workers int `json:"workers,omitempty"`
}

// PatternJSON is one mined itemset on the wire.
type PatternJSON struct {
	Items   []int32 `json:"items"`
	Support int     `json:"support"`
	Exact   bool    `json:"exact"`
}

// QueryResponse is one /mine answer. Patterns is canonical-order and
// depends only on (epoch vector, scheme, τ, maxlen, budget, constraint) —
// never on Workers, the cache, the shard count, or concurrent writes. It is
// kept in encoded form, a view into the answer's rendered /mine body: the
// pattern set can run to hundreds of thousands of itemsets, and every reply
// shares the bytes rendered once at mine time. Treat it as read-only; call
// DecodePatterns for the typed view.
//
// The /mine body is exactly json.NewEncoder(w).Encode of this struct, but
// the server never runs that encoder: see answer.
type QueryResponse struct {
	Epoch          uint64          `json:"epoch"`
	Epochs         []uint64        `json:"epochs,omitempty"`
	Scheme         string          `json:"scheme"`
	Tau            int             `json:"tau"`
	Cached         bool            `json:"cached"`
	Shared         bool            `json:"shared"`
	Patterns       json.RawMessage `json:"patterns"`
	Candidates     int             `json:"candidates"`
	FalseDrops     int             `json:"false_drops"`
	Certain        int             `json:"certain"`
	ProbedPatterns int             `json:"probed_patterns"`
}

// DecodePatterns unmarshals the pattern array.
func (r *QueryResponse) DecodePatterns() ([]PatternJSON, error) {
	var ps []PatternJSON
	if err := json.Unmarshal(r.Patterns, &ps); err != nil {
		return nil, fmt.Errorf("serve: decoding patterns: %w", err)
	}
	return ps, nil
}

// answer is one mined result rendered exactly once, at mine time, into its
// final /mine body. Everything in a reply is fixed by the cache key — the
// epoch vector, scheme, τ, the patterns and the funnel counts — except the
// cached/shared flags, so body holds the whole reply with the flags cut out
// at flagsAt, and a reply (leader, shared flight or cache hit) is three
// writes of bytes that already exist: no work and no allocation that grows
// with the answer. That is why no encoding/json encoder runs on a reply: it
// re-validates and compacts a cached json.RawMessage byte by byte, which on
// a fig6 DFP@0.3 % answer (~8.7 K patterns, ~560 KB) is ~3.5 ms per hit
// against ~5 µs for writing the stored bytes (BenchmarkServeMineHit).
//
// resp is the Go API's view of the same answer, flags unset, its Patterns
// a capacity-capped view of body's pattern array.
type answer struct {
	body         []byte
	flagsAt      int
	resp         QueryResponse
	patternCount int
}

// The flags a reply splices into answer.body at flagsAt, after `"cached":`.
const (
	flagsMiss   = `false,"shared":false`
	flagsHit    = `true,"shared":false`
	flagsShared = `false,"shared":true`
)

// renderAnswer renders a mining result, under the reply fields head carries
// (Epoch, Epochs, Scheme, Tau), into its /mine body: byte for byte what
// json.NewEncoder(w).Encode writes for the QueryResponse, trailing newline
// included, built in one strconv-append pass. Every string in it is a
// scheme name or a fixed field name, none of which JSON escapes, and every
// pattern has at least one item (encoding/json writes a nil slice as null).
func renderAnswer(head QueryResponse, res *core.Result) *answer {
	r := head
	r.Candidates, r.FalseDrops, r.Certain, r.ProbedPatterns = res.Candidates, res.FalseDrops, res.Certain, res.ProbedPatterns
	// A pattern costs ~40 bytes of punctuation and field names plus its
	// numbers; the estimate only sizes the scratch buffer.
	items := 0
	for _, p := range res.Patterns {
		items += len(p.Items)
	}
	b := make([]byte, 0, 256+48*len(res.Patterns)+6*items)
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	if len(r.Epochs) > 0 {
		b = append(b, `,"epochs":`...)
		b = appendUints(b, r.Epochs)
	}
	b = append(b, `,"scheme":"`...)
	b = append(b, r.Scheme...)
	b = append(b, `","tau":`...)
	b = strconv.AppendInt(b, int64(r.Tau), 10)
	b = append(b, `,"cached":`...)
	flagsAt := len(b)
	b = append(b, `,"patterns":[`...)
	patternsAt := len(b) - 1
	for i, p := range res.Patterns {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"items":[`...)
		for j, it := range p.Items {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(it), 10)
		}
		b = append(b, `],"support":`...)
		b = strconv.AppendInt(b, int64(p.Support), 10)
		b = append(b, `,"exact":`...)
		b = strconv.AppendBool(b, p.Exact)
		b = append(b, '}')
	}
	b = append(b, ']')
	patternsEnd := len(b)
	for _, f := range []struct {
		name string
		v    int
	}{
		{`,"candidates":`, r.Candidates},
		{`,"false_drops":`, r.FalseDrops},
		{`,"certain":`, r.Certain},
		{`,"probed_patterns":`, r.ProbedPatterns},
	} {
		b = append(b, f.name...)
		b = strconv.AppendInt(b, int64(f.v), 10)
	}
	b = append(b, "}\n"...)
	// The cache keeps the body for as long as the entry lives: copy it out
	// of the scratch buffer so no slack capacity stays resident with it.
	body := append(make([]byte, 0, len(b)), b...)
	r.Patterns = body[patternsAt:patternsEnd:patternsEnd]
	return &answer{body: body, flagsAt: flagsAt, resp: r, patternCount: len(res.Patterns)}
}

// appendUints appends vs as a JSON array of numbers.
func appendUints(b []byte, vs []uint64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	return append(b, ']')
}

// reply is one resolved /mine request: the shared answer plus how this
// request came by it.
type reply struct {
	ans   *answer
	flags string // flagsMiss, flagsHit or flagsShared
}

// response returns the Go API's copy of the reply.
func (rp reply) response() *QueryResponse {
	r := rp.ans.resp
	r.Cached = rp.flags == flagsHit
	r.Shared = rp.flags == flagsShared
	r.Epochs = slices.Clone(r.Epochs)
	return &r
}

// size is the length of the reply's body on the wire.
func (rp reply) size() int { return len(rp.ans.body) + len(rp.flags) }

// writeTo writes the reply's body: the answer's bytes around the flags.
func (rp reply) writeTo(w io.Writer) error {
	body := rp.ans.body
	if _, err := w.Write(body[:rp.ans.flagsAt]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, rp.flags); err != nil {
		return err
	}
	_, err := w.Write(body[rp.ans.flagsAt:])
	return err
}

func parseScheme(s string) (core.Scheme, error) {
	switch strings.ToUpper(s) {
	case "", "DFP":
		return core.DFP, nil
	case "DFS":
		return core.DFS, nil
	case "SFP":
		return core.SFP, nil
	case "SFS":
		return core.SFS, nil
	}
	return 0, fmt.Errorf("%w: unknown scheme %q (want SFS, SFP, DFS or DFP)", ErrInvalid, s)
}

// Query answers one mining request against the current snapshot vector:
// cache hit, single-flight join, or a fresh mine under admission control.
//
// When the context carries a span (WithSpan), Query fills it with the
// request's stage decomposition; otherwise it mints one internally, so the
// SLO histograms and request log see every query regardless of entry point.
func (e *Engine) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	rp, err := e.query(ctx, req)
	if err != nil {
		return nil, err
	}
	return rp.response(), nil
}

// query is Query up to the reply, which the HTTP layer writes as bytes.
func (e *Engine) query(ctx context.Context, req QueryRequest) (reply, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := SpanFrom(ctx)
	if sp == nil {
		ctx, sp = e.StartSpan(ctx, "", obs.ClassRead)
	}
	sp.Class = obs.ClassRead
	start := e.clock.Now()
	rp, err := e.queryInner(ctx, req, sp)
	e.finishSpan(sp, start, err)
	return rp, err
}

func (e *Engine) queryInner(ctx context.Context, req QueryRequest, sp *Span) (reply, error) {
	scheme, err := parseScheme(req.Scheme)
	if err != nil {
		return reply{}, err
	}
	constraint := int32(-1)
	if req.ConstraintItem != nil {
		if *req.ConstraintItem < 0 {
			return reply{}, fmt.Errorf("%w: negative constraint item %d", ErrInvalid, *req.ConstraintItem)
		}
		if scheme == core.DFS || scheme == core.DFP {
			return reply{}, fmt.Errorf("%w: constrained mining needs a single-filter scheme (SFS or SFP), got %s", ErrInvalid, scheme)
		}
		constraint = *req.ConstraintItem
	}
	if req.MinSupportCount <= 0 && (req.MinSupportFrac <= 0 || req.MinSupportFrac > 1) {
		return reply{}, fmt.Errorf("%w: need minsup_count > 0 or minsup in (0,1], got %d / %v",
			ErrInvalid, req.MinSupportCount, req.MinSupportFrac)
	}
	e.obs.AddServerQuery()
	for {
		snaps := e.loadSnaps()
		total := 0
		for _, sn := range snaps {
			total += sn.idx.Len()
		}
		tau := req.MinSupportCount
		if tau <= 0 {
			tau = mining.MinSupportCount(req.MinSupportFrac, total)
		}
		key := queryKey{
			epochs:     epochKey(snaps),
			scheme:     scheme,
			tau:        tau,
			maxLen:     req.MaxLen,
			memBudget:  req.MemoryBudget,
			constraint: constraint,
		}
		// The reply fields the key fixes besides the answer itself.
		head := QueryResponse{Epoch: epochSum(snaps), Scheme: scheme.String(), Tau: tau}
		if len(snaps) > 1 {
			head.Epochs = epochVector(snaps)
		}
		sp.scheme, sp.tau, sp.epoch, sp.epochs = head.Scheme, head.Tau, head.Epoch, head.Epochs
		lookup := e.clock.Now()
		cached, f, leader := e.cache.join(key)
		sp.addStage(obs.StageCache, e.clock.Now().Sub(lookup).Nanoseconds())
		if cached != nil {
			e.obs.AddCacheHit()
			sp.verdict = "hit"
			sp.patterns = cached.patternCount
			return reply{cached, flagsHit}, nil
		}
		if !leader {
			e.obs.AddSharedFlight()
			wait := e.clock.Now()
			select {
			case <-f.done:
			case <-ctx.Done():
				sp.addStage(obs.StageCache, e.clock.Now().Sub(wait).Nanoseconds())
				return reply{}, fmt.Errorf("serve: query abandoned: %w", ctx.Err())
			}
			sp.addStage(obs.StageCache, e.clock.Now().Sub(wait).Nanoseconds())
			if f.err == nil {
				sp.verdict = "shared"
				sp.patterns = f.res.patternCount
				return reply{f.res, flagsShared}, nil
			}
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				// The leader died of its own deadline, not of the query.
				// This waiter is still live (checked above), so go around
				// and become — or queue behind — a fresh leader.
				if ctx.Err() != nil {
					return reply{}, fmt.Errorf("serve: query abandoned: %w", ctx.Err())
				}
				continue
			}
			return reply{}, f.err
		}
		e.obs.AddCacheMiss()
		res, mineErr := e.mine(ctx, snaps, req, scheme, tau, sp)
		var ans *answer
		if mineErr == nil {
			render := e.clock.Now()
			ans = renderAnswer(head, res)
			sp.addStage(obs.StageRender, e.clock.Now().Sub(render).Nanoseconds())
		}
		e.cache.finish(key, ans, mineErr)
		if mineErr != nil {
			return reply{}, mineErr
		}
		sp.verdict = "miss"
		sp.patterns = ans.patternCount
		return reply{ans, flagsMiss}, nil
	}
}

// mineView binds a snapshot vector to the (index, store) pair one mine runs
// over: a private copy-on-write clone of every shard's snapshot (a mine
// writes per-run accounting fields on the index it reads) under one
// block-order view, over the concatenation of the per-shard log views.
func (e *Engine) mineView(snaps []*snapshot) (*sigfile.View, txdb.Store, error) {
	parts := make([]*sigfile.BBS, len(snaps))
	stores := make([]txdb.Store, len(snaps))
	for i, sn := range snaps {
		parts[i] = sn.idx.QueryClone(e.stats)
		stores[i] = sn.log.Clone()
	}
	view, err := sigfile.NewView(parts)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: binding the snapshot vector: %w", err)
	}
	return view, txdb.Concat(stores...), nil
}

// mine runs one cold query against a snapshot vector: admission slot
// (queue stage), per-request deadline, private mining view (bind stage),
// then core.Mine (mine stage).
func (e *Engine) mine(ctx context.Context, snaps []*snapshot, req QueryRequest, scheme core.Scheme, tau int, sp *Span) (*core.Result, error) {
	// Hold each snapshot's pager epoch for the duration of the mine, so
	// cold pages this query faults stay evict-exempt until it finishes.
	for _, sn := range snaps {
		sn.retain()
	}
	defer func() {
		for _, sn := range snaps {
			sn.release()
		}
	}()
	queued := e.clock.Now()
	release, err := e.admit(ctx)
	sp.addStage(obs.StageQueue, e.clock.Now().Sub(queued).Nanoseconds())
	if err != nil {
		return nil, err
	}
	defer release()
	mineCtx := ctx
	if e.timeout > 0 {
		var cancel context.CancelFunc
		mineCtx, cancel = context.WithTimeout(ctx, e.timeout)
		defer cancel()
	}
	bind := e.clock.Now()
	idx, store, err := e.mineView(snaps)
	if err != nil {
		return nil, err
	}
	var constraint *bitvec.Vector
	if req.ConstraintItem != nil {
		want := []txdb.Item{*req.ConstraintItem}
		constraint, err = core.BuildConstraint(store, func(_ int, tx txdb.Transaction) bool {
			return tx.Contains(want)
		})
		if err != nil {
			return nil, err
		}
	}
	miner, err := core.NewViewMiner(idx, store, e.stats)
	if err != nil {
		return nil, fmt.Errorf("serve: binding the snapshot: %w", err)
	}
	sp.addStage(obs.StageBind, e.clock.Now().Sub(bind).Nanoseconds())
	workers := req.Workers
	if workers == 0 {
		workers = e.workers
	}
	mined := e.clock.Now()
	res, err := miner.Mine(core.Config{
		Ctx:          mineCtx,
		MinSupport:   tau,
		Scheme:       scheme,
		MemoryBudget: req.MemoryBudget,
		MaxLen:       req.MaxLen,
		Workers:      workers,
		Constraint:   constraint,
		Observe:      e.obs,
	})
	sp.addStage(obs.StageMine, e.clock.Now().Sub(mined).Nanoseconds())
	return res, err
}

// admit reserves a mining slot, queueing up to maxQueue waiters behind the
// in-flight mines; anything beyond fails fast with ErrOverloaded.
func (e *Engine) admit(ctx context.Context) (func(), error) {
	select {
	case e.admitCh <- struct{}{}:
	default:
		if e.queueLen.Add(1) > int64(e.maxQueue) {
			e.queueLen.Add(-1)
			e.obs.AddRejected()
			return nil, fmt.Errorf("%w: %d mines in flight and %d queued", ErrOverloaded, cap(e.admitCh), e.maxQueue)
		}
		e.obs.IncQueued()
		err := func() error {
			defer e.queueLen.Add(-1)
			defer e.obs.DecQueued()
			select {
			case e.admitCh <- struct{}{}:
				return nil
			case <-ctx.Done():
				return fmt.Errorf("serve: queued query abandoned: %w", ctx.Err())
			}
		}()
		if err != nil {
			return nil, err
		}
	}
	e.obs.IncInflight()
	return func() {
		e.obs.DecInflight()
		<-e.admitCh
	}, nil
}

// ---- stats ----

// StatsInfo is the /stats answer: a consistent view of one snapshot vector
// plus the serving health at a glance — cache effectiveness, single-flight
// dedup, admission pressure and current queue depth.
type StatsInfo struct {
	Epoch         uint64   `json:"epoch"`
	Epochs        []uint64 `json:"epochs,omitempty"`
	Shards        int      `json:"shards"`
	Transactions  int      `json:"transactions"`
	Live          int      `json:"live"`
	Deleted       int      `json:"deleted"`
	Items         int      `json:"items"`
	SliceCount    int      `json:"m"`
	IndexBytes    int64    `json:"index_bytes"`
	CachedQueries int      `json:"cached_queries"`
	UptimeSeconds float64  `json:"uptime_seconds"`

	// Serving health, derived from the observability registry (zero when
	// the engine runs without one, except QueueDepth which the engine tracks
	// itself). CacheHitRatio is hits/(hits+misses), 0 before any cold query.
	CacheHits         int64   `json:"cache_hits"`
	CacheMisses       int64   `json:"cache_misses"`
	CacheHitRatio     float64 `json:"cache_hit_ratio"`
	SharedFlights     int64   `json:"shared_flights"`
	AdmissionRejected int64   `json:"admission_rejected"`
	QueueDepth        int64   `json:"queue_depth"`
	InFlight          int64   `json:"inflight"`

	// Tiered storage (absent when the engine runs without -mem-budget):
	// the shared pool's budget and frame+reservation residency, its fault
	// hit ratio, and the hot/cold slice census over the published
	// snapshots.
	MemBudget     int64   `json:"mem_budget,omitempty"`
	ResidentBytes int64   `json:"resident_bytes,omitempty"`
	PagerHitRatio float64 `json:"pager_hit_ratio,omitempty"`
	SlicesHot     int     `json:"slices_hot,omitempty"`
	SlicesCold    int     `json:"slices_cold,omitempty"`
}

// Stats reports the published snapshot vector's shape plus cache residency
// and serving-health counters.
func (e *Engine) Stats() StatsInfo {
	snaps := e.loadSnaps()
	info := StatsInfo{
		Epoch:         epochSum(snaps),
		Shards:        len(snaps),
		SliceCount:    snaps[0].idx.M(),
		CachedQueries: e.cache.len(),
		UptimeSeconds: e.clock.Now().Sub(e.start).Seconds(),
		QueueDepth:    e.queueLen.Load(),
	}
	if sm := e.obs.Metrics().Server; sm != nil {
		info.CacheHits = sm.CacheHits
		info.CacheMisses = sm.CacheMisses
		info.SharedFlights = sm.SharedFlights
		info.AdmissionRejected = sm.Rejected
		info.InFlight = sm.Inflight
		if cold := sm.CacheHits + sm.CacheMisses; cold > 0 {
			info.CacheHitRatio = float64(sm.CacheHits) / float64(cold)
		}
	}
	if len(snaps) > 1 {
		info.Epochs = epochVector(snaps)
	}
	items := make(map[int32]struct{})
	for _, sn := range snaps {
		info.Transactions += sn.idx.Len()
		info.Live += sn.idx.Live()
		info.Deleted += sn.idx.Deleted()
		info.IndexBytes += sn.idx.TotalBytes()
		for _, it := range sn.idx.Items() {
			items[it] = struct{}{}
		}
	}
	info.Items = len(items)
	if e.pager != nil {
		ps := e.pager.Stats()
		info.MemBudget = e.pager.Budget()
		info.ResidentBytes = ps.ResidentBytes + ps.ReservedBytes
		info.PagerHitRatio = ps.HitRatio()
		for _, sn := range snaps {
			h, c := sn.idx.TierCensus()
			info.SlicesHot += h
			info.SlicesCold += c
		}
	}
	return info
}
