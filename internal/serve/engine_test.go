package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bbsmine/internal/core"
	"bbsmine/internal/iostat"
	"bbsmine/internal/obs"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// lcg is a tiny deterministic generator so the tests never touch math/rand.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 17)
}

func (l *lcg) intn(n int) int { return int(l.next() % uint64(n)) }

// genTxns builds count transactions over a universe of v items, sizes
// between 4 and 4+spread.
func genTxns(seed uint64, count, v, spread int) [][]int32 {
	l := lcg(seed)
	out := make([][]int32, count)
	for i := range out {
		n := 4 + l.intn(spread)
		items := make([]int32, n)
		for j := range items {
			items[j] = int32(l.intn(v))
		}
		out[i] = items
	}
	return out
}

// fakeClock is a settable Clock.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time { return f.now }

// newTestEngine builds an in-memory engine over txs.
func newTestEngine(t *testing.T, txs [][]int32, m, k int, opts Options) *Engine {
	t.Helper()
	stats := &iostat.Stats{}
	idx := sigfile.New(sighash.NewFNV(m, k), stats)
	log := txdb.NewAppendLog(stats)
	for i, items := range txs {
		tx := txdb.NewTransaction(int64(i), items)
		if err := log.Append(tx); err != nil {
			t.Fatalf("seeding log: %v", err)
		}
		idx.Insert(tx.Items)
	}
	opts.Index = idx
	opts.Log = log
	e, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := e.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return e
}

func decodePatterns(t *testing.T, r *QueryResponse) []PatternJSON {
	t.Helper()
	ps, err := r.DecodePatterns()
	if err != nil {
		t.Fatalf("decode patterns: %v", err)
	}
	return ps
}

// renderFresh renders a direct core mine's patterns the way the engine
// would, so tests can compare server answers byte-for-byte.
func renderFresh(res *core.Result) string {
	return string(renderAnswer(QueryResponse{}, res).resp.Patterns)
}

func TestQueryCacheHitAndWorkerIndependence(t *testing.T) {
	reg := obs.New()
	e := newTestEngine(t, genTxns(1, 300, 50, 6), 256, 3, Options{Observe: reg})
	ctx := context.Background()

	cold, err := e.Query(ctx, QueryRequest{Scheme: "DFP", MinSupportCount: 5})
	if err != nil {
		t.Fatalf("cold query: %v", err)
	}
	if cold.Cached || cold.Shared {
		t.Fatalf("cold query reported cached=%v shared=%v", cold.Cached, cold.Shared)
	}
	if len(decodePatterns(t, cold)) == 0 {
		t.Fatal("cold query mined nothing; the dataset is too sparse for the test to mean anything")
	}

	hit, err := e.Query(ctx, QueryRequest{Scheme: "DFP", MinSupportCount: 5})
	if err != nil {
		t.Fatalf("cached query: %v", err)
	}
	if !hit.Cached {
		t.Fatal("identical query at the same epoch was not served from cache")
	}

	// A different Workers value must hit the same entry and return the
	// identical answer — Workers is not part of the cache key.
	other, err := e.Query(ctx, QueryRequest{Scheme: "DFP", MinSupportCount: 5, Workers: 4})
	if err != nil {
		t.Fatalf("workers=4 query: %v", err)
	}
	if !other.Cached {
		t.Fatal("query differing only in Workers missed the cache")
	}
	if string(other.Patterns) != string(cold.Patterns) {
		t.Fatal("workers=4 answer differs from workers=default answer")
	}

	m := reg.Metrics()
	if m.Server == nil {
		t.Fatal("no server metrics section after queries")
	}
	if m.Server.CacheHits < 2 || m.Server.CacheMisses < 1 {
		t.Fatalf("funnel off: hits=%d misses=%d", m.Server.CacheHits, m.Server.CacheMisses)
	}
}

func TestApplyBumpsEpochAndInvalidatesCache(t *testing.T) {
	e := newTestEngine(t, genTxns(2, 200, 40, 5), 256, 3, Options{})
	ctx := context.Background()
	req := QueryRequest{Scheme: "SFP", MinSupportCount: 4}

	before, err := e.Query(ctx, req)
	if err != nil {
		t.Fatalf("query before write: %v", err)
	}

	res, err := e.Apply(ctx, TxnsRequest{Insert: [][]int32{{1, 2, 3}, {1, 2, 3, 7}}})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if res.Epoch != before.Epoch+1 {
		t.Fatalf("epoch after one batch = %d, want %d", res.Epoch, before.Epoch+1)
	}
	if res.Inserted != 2 {
		t.Fatalf("inserted = %d, want 2", res.Inserted)
	}

	after, err := e.Query(ctx, req)
	if err != nil {
		t.Fatalf("query after write: %v", err)
	}
	if after.Cached {
		t.Fatal("query after an epoch bump was served from the stale cache entry")
	}
	if after.Epoch != res.Epoch {
		t.Fatalf("query ran at epoch %d, want %d", after.Epoch, res.Epoch)
	}

	// Deleting the two rows restores the original answer set at a new
	// epoch: position indexes are stable, the last two rows are ours.
	n := e.Stats().Transactions
	del, err := e.Apply(ctx, TxnsRequest{Delete: []int{n - 2, n - 1}})
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if del.Deleted != 2 || del.Epoch != res.Epoch+1 {
		t.Fatalf("delete result %+v, want 2 deletions at epoch %d", del, res.Epoch+1)
	}
	restored, err := e.Query(ctx, req)
	if err != nil {
		t.Fatalf("query after delete: %v", err)
	}
	if string(restored.Patterns) != string(before.Patterns) {
		t.Fatal("answer after insert+delete differs from the original answer")
	}
}

func TestApplyValidationIsAtomic(t *testing.T) {
	e := newTestEngine(t, genTxns(3, 50, 30, 4), 128, 3, Options{})
	ctx := context.Background()
	epoch := e.Epoch()

	// Bad delete position: nothing applies, the epoch stays put.
	_, err := e.Apply(ctx, TxnsRequest{Insert: [][]int32{{1, 2}}, Delete: []int{9999}})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("out-of-range delete returned %v, want ErrInvalid", err)
	}
	if e.Epoch() != epoch {
		t.Fatal("failed request bumped the epoch")
	}
	if got := e.Stats().Transactions; got != 50 {
		t.Fatalf("failed request inserted rows: %d transactions, want 50", got)
	}

	// Negative item: same story.
	_, err = e.Apply(ctx, TxnsRequest{Insert: [][]int32{{-1, 2}}})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative item returned %v, want ErrInvalid", err)
	}

	// Double delete of the same position, and deleting a dead row.
	if _, err := e.Apply(ctx, TxnsRequest{Delete: []int{0}}); err != nil {
		t.Fatalf("first delete: %v", err)
	}
	_, err = e.Apply(ctx, TxnsRequest{Delete: []int{0}})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("re-delete returned %v, want ErrInvalid", err)
	}
	_, err = e.Apply(ctx, TxnsRequest{Delete: []int{1, 1}})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("duplicate delete returned %v, want ErrInvalid", err)
	}
}

func TestQueryValidation(t *testing.T) {
	e := newTestEngine(t, genTxns(4, 40, 20, 4), 128, 3, Options{})
	ctx := context.Background()
	item := int32(3)
	for name, req := range map[string]QueryRequest{
		"no threshold":        {Scheme: "DFP"},
		"bad scheme":          {Scheme: "XXX", MinSupportCount: 2},
		"constrained dual":    {Scheme: "DFP", MinSupportCount: 2, ConstraintItem: &item},
		"bad fraction":        {Scheme: "SFS", MinSupportFrac: 1.5},
		"negative constraint": {Scheme: "SFS", MinSupportCount: 2, ConstraintItem: func() *int32 { v := int32(-2); return &v }()},
	} {
		if _, err := e.Query(ctx, req); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: got %v, want ErrInvalid", name, err)
		}
	}
}

func TestConstrainedQueryMatchesDirectMine(t *testing.T) {
	txs := genTxns(5, 250, 30, 6)
	e := newTestEngine(t, txs, 256, 3, Options{})
	ctx := context.Background()
	item := int32(7)

	got, err := e.Query(ctx, QueryRequest{Scheme: "SFP", MinSupportCount: 3, ConstraintItem: &item})
	if err != nil {
		t.Fatalf("constrained query: %v", err)
	}

	// Re-mine directly against a private snapshot clone.
	snap := e.shards[0].snap.Load()
	stats := &iostat.Stats{}
	store := snap.log.Clone()
	constraint, err := core.BuildConstraint(store, func(_ int, tx txdb.Transaction) bool {
		return tx.Contains([]txdb.Item{item})
	})
	if err != nil {
		t.Fatalf("building constraint: %v", err)
	}
	miner, err := core.NewMiner(snap.idx.QueryClone(stats), store, stats)
	if err != nil {
		t.Fatalf("NewMiner: %v", err)
	}
	want, err := miner.Mine(core.Config{MinSupport: 3, Scheme: core.SFP, Constraint: constraint})
	if err != nil {
		t.Fatalf("direct mine: %v", err)
	}
	if string(got.Patterns) != renderFresh(want) {
		t.Fatalf("constrained server answer differs from direct constrained mine (%d vs %d patterns)",
			len(decodePatterns(t, got)), len(want.Patterns))
	}
	if len(decodePatterns(t, got)) == 0 {
		t.Fatal("constrained mine found nothing; weaken the test dataset")
	}
}

func TestAdmissionQueueAndRejection(t *testing.T) {
	reg := obs.New()
	e := newTestEngine(t, genTxns(6, 60, 25, 4), 128, 3, Options{
		MaxInFlight: 1,
		MaxQueue:    1,
		Observe:     reg,
	})

	// Occupy the only in-flight slot directly.
	e.admitCh <- struct{}{}

	// First query queues; give it a context we control.
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	queued := make(chan error, 1)
	go func() {
		_, err := e.Query(ctx1, QueryRequest{Scheme: "SFS", MinSupportCount: 2})
		queued <- err
	}()
	waitFor(t, func() bool { return e.queueLen.Load() == 1 })

	// Second query finds the slot busy and the queue full: rejected now.
	_, err := e.Query(context.Background(), QueryRequest{Scheme: "SFS", MinSupportCount: 3})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-queue query returned %v, want ErrOverloaded", err)
	}

	// Abandon the queued query; it must come back with its context error.
	cancel1()
	select {
	case qerr := <-queued:
		if !errors.Is(qerr, context.Canceled) {
			t.Fatalf("queued query returned %v, want context.Canceled", qerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued query did not return after cancellation")
	}

	// Release the slot; a fresh query must now run normally.
	<-e.admitCh
	if _, err := e.Query(context.Background(), QueryRequest{Scheme: "SFS", MinSupportCount: 2}); err != nil {
		t.Fatalf("query after release: %v", err)
	}
	if reg.Metrics().Server.Rejected < 1 {
		t.Fatal("rejection not counted")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseRejectsWritesAndIsIdempotent(t *testing.T) {
	stats := &iostat.Stats{}
	idx := sigfile.New(sighash.NewFNV(128, 3), stats)
	log := txdb.NewAppendLog(stats)
	e, err := New(Options{Index: idx, Log: log})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Apply(context.Background(), TxnsRequest{Insert: [][]int32{{1, 2}}}); err != nil {
		t.Fatalf("apply before close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := e.Apply(context.Background(), TxnsRequest{Insert: [][]int32{{3}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close returned %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// Queries still work against the last snapshot.
	if _, err := e.Query(context.Background(), QueryRequest{Scheme: "SFS", MinSupportCount: 1}); err != nil {
		t.Fatalf("query after close: %v", err)
	}
}

func TestStatsUsesInjectedClock(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	e := newTestEngine(t, genTxns(7, 20, 10, 3), 128, 3, Options{Clock: clock})
	clock.now = clock.now.Add(90 * time.Second)
	s := e.Stats()
	if s.UptimeSeconds != 90 {
		t.Fatalf("uptime = %v, want 90", s.UptimeSeconds)
	}
	if s.Transactions != 20 || s.Live != 20 {
		t.Fatalf("stats shape off: %+v", s)
	}
}

func TestQueryCacheLRUEviction(t *testing.T) {
	c := newQueryCache(2, nil)
	res := renderAnswer(QueryResponse{}, &core.Result{})
	k := func(tau int) queryKey { return queryKey{tau: tau, constraint: -1} }

	for tau := 1; tau <= 3; tau++ {
		if _, _, leader := c.join(k(tau)); !leader {
			t.Fatalf("tau=%d: expected leadership on first join", tau)
		}
		c.finish(k(tau), res, nil)
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
	if got, _, _ := c.join(k(1)); got != nil {
		t.Fatal("oldest entry survived eviction")
	}
	c.finish(k(1), res, nil) // resolve the leadership the probe created
	if got, _, _ := c.join(k(3)); got == nil {
		t.Fatal("newest entry was evicted")
	}

	// A failed leader caches nothing and hands leadership to the next join.
	if _, _, leader := c.join(k(9)); !leader {
		t.Fatal("expected leadership for a fresh key")
	}
	c.finish(k(9), nil, fmt.Errorf("boom"))
	if got, _, leader := c.join(k(9)); got != nil || !leader {
		t.Fatalf("after failed leader: cached=%v leader=%v, want nil/true", got, leader)
	}
	c.finish(k(9), res, nil)
}

// TestEpochConsistencyUnderConcurrentWrites is the serving layer's
// determinism invariant: while a writer commits batches, every /mine
// answer must be internally consistent with a single epoch — byte-
// identical to a fresh mine over that epoch's snapshot, regardless of
// worker count, cache state or single-flight sharing. Run with -race.
func TestEpochConsistencyUnderConcurrentWrites(t *testing.T) {
	e := newTestEngine(t, genTxns(8, 300, 40, 6), 256, 3, Options{
		MaxInFlight: 4,
		MaxQueue:    64,
	})

	const (
		batches = 20
		readers = 4
		queries = 25
	)

	// The writer records every snapshot it publishes; it is the only
	// writer, so the captured sequence covers every epoch.
	snapshots := map[uint64]*snapshot{e.Epoch(): e.shards[0].snap.Load()}
	var smu sync.Mutex
	writerErr := make(chan error, 1)
	go func() {
		l := lcg(99)
		live := 300
		for i := 0; i < batches; i++ {
			req := TxnsRequest{Insert: genTxns(uint64(1000+i), 6, 40, 6)}
			if i%3 == 2 {
				req.Delete = []int{l.intn(live)} // may be dead already; retried below
			}
			res, err := e.Apply(context.Background(), req)
			if err != nil && errors.Is(err, ErrInvalid) {
				// Tombstoned twice by luck of the draw: drop the delete.
				res, err = e.Apply(context.Background(), TxnsRequest{Insert: req.Insert})
			}
			if err != nil {
				writerErr <- fmt.Errorf("batch %d: %w", i, err)
				return
			}
			live += res.Inserted
			smu.Lock()
			snapshots[res.Epoch] = e.shards[0].snap.Load()
			smu.Unlock()
		}
		writerErr <- nil
	}()

	type observed struct {
		epoch  uint64
		scheme core.Scheme
		tau    int
		body   string
	}
	answers := make([][]observed, readers)
	var wg sync.WaitGroup
	readerErrs := make([]error, readers)
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			l := lcg(uint64(7 + rd))
			for q := 0; q < queries; q++ {
				scheme := core.DFP
				name := "DFP"
				if l.intn(2) == 0 {
					scheme, name = core.SFS, "SFS"
				}
				tau := 4 + l.intn(3)
				resp, err := e.Query(context.Background(), QueryRequest{
					Scheme:          name,
					MinSupportCount: tau,
					Workers:         1 + l.intn(4),
				})
				if err != nil {
					readerErrs[rd] = fmt.Errorf("query %d: %w", q, err)
					return
				}
				answers[rd] = append(answers[rd], observed{
					epoch: resp.Epoch, scheme: scheme, tau: tau,
					body: string(resp.Patterns),
				})
			}
		}(rd)
	}
	wg.Wait()
	if err := <-writerErr; err != nil {
		t.Fatalf("writer: %v", err)
	}
	for rd, err := range readerErrs {
		if err != nil {
			t.Fatalf("reader %d: %v", rd, err)
		}
	}

	// Verify every answer against a fresh sequential mine at its epoch.
	type vkey struct {
		epoch  uint64
		scheme core.Scheme
		tau    int
	}
	verified := map[vkey]string{}
	total := 0
	for rd := range answers {
		for _, a := range answers[rd] {
			total++
			k := vkey{a.epoch, a.scheme, a.tau}
			want, ok := verified[k]
			if !ok {
				smu.Lock()
				snap := snapshots[a.epoch]
				smu.Unlock()
				if snap == nil {
					t.Fatalf("answer at epoch %d has no recorded snapshot", a.epoch)
				}
				stats := &iostat.Stats{}
				miner, err := core.NewMiner(snap.idx.QueryClone(stats), snap.log.Clone(), stats)
				if err != nil {
					t.Fatalf("NewMiner at epoch %d: %v", a.epoch, err)
				}
				res, err := miner.Mine(core.Config{MinSupport: a.tau, Scheme: a.scheme, Workers: 1})
				if err != nil {
					t.Fatalf("fresh mine at epoch %d: %v", a.epoch, err)
				}
				want = renderFresh(res)
				verified[k] = want
			}
			if a.body != want {
				t.Fatalf("answer at epoch %d (%s τ=%d) diverges from a fresh mine over that epoch's snapshot",
					a.epoch, a.scheme, a.tau)
			}
		}
	}
	if total != readers*queries {
		t.Fatalf("verified %d answers, want %d", total, readers*queries)
	}
}
