package serve

import (
	"context"
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"

	"bbsmine/internal/obs"
)

// A tiny budget against a few-thousand-transaction test index (~36 KiB of
// slice payload at 2400 rows: 120 non-empty slices of 300 bytes), so most
// slices spill cold across several packed pages while the frame pool holds
// two and must evict — the tiered machinery is fully exercised, not idle.
// A few hundred rows would not do: their whole cold tier packs into one
// page. Support thresholds scale with the rows.
const testMemBudget = 16 << 10

// TestTieredAnswersMatchResident pins the serving-layer face of the tiered
// invariant: an engine with -mem-budget (cold slices, shared frame pool)
// answers every query byte-identically to a
// resident engine over the same transactions — sharded and not — and its
// /stats report the pool.
func TestTieredAnswersMatchResident(t *testing.T) {
	txs := genTxns(33, 2400, 40, 6)
	resident := newTestEngine(t, txs, 256, 3, Options{})
	tiered := newTestEngine(t, txs, 256, 3, Options{
		MemBudget: testMemBudget,
		ColdDir:   t.TempDir(),
		Observe:   obs.New(),
	})
	tieredShd := newShardedTestEngine(t, txs, 256, 3, 4, Options{
		MemBudget: testMemBudget,
		ColdDir:   t.TempDir(),
	})
	ctx := context.Background()

	item := int32(5)
	for name, req := range map[string]QueryRequest{
		"DFP":         {Scheme: "DFP", MinSupportCount: 50},
		"SFS":         {Scheme: "SFS", MinSupportCount: 40},
		"SFP frac":    {Scheme: "SFP", MinSupportFrac: 0.02},
		"constrained": {Scheme: "SFP", MinSupportCount: 30, ConstraintItem: &item},
	} {
		want, err := resident.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s resident: %v", name, err)
		}
		got, err := tiered.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s tiered: %v", name, err)
		}
		if string(got.Patterns) != string(want.Patterns) {
			t.Errorf("%s: tiered answer differs from resident (%d vs %d patterns)",
				name, len(decodePatterns(t, got)), len(decodePatterns(t, want)))
		}
		gotShd, err := tieredShd.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s tiered sharded: %v", name, err)
		}
		if string(gotShd.Patterns) != string(want.Patterns) {
			t.Errorf("%s: tiered sharded answer differs from resident", name)
		}
	}

	st := tiered.Stats()
	if st.MemBudget != testMemBudget {
		t.Fatalf("stats mem_budget = %d, want %d", st.MemBudget, testMemBudget)
	}
	if st.SlicesCold == 0 {
		t.Fatalf("no cold slices under a %d-byte budget; the tiered path was never exercised", testMemBudget)
	}
	if st.ResidentBytes <= 0 {
		t.Fatalf("resident_bytes = %d after queries, want > 0", st.ResidentBytes)
	}
	if st.PagerHitRatio <= 0 {
		t.Fatalf("pager_hit_ratio = %v after repeated AND chains, want > 0", st.PagerHitRatio)
	}
	// What must show here is a cold tier of several pages;
	// TestReadOnlyTieredEngineStaysInBudget covers eviction and the bound.
	if ps := tiered.pager.Stats(); ps.Faults < 4 {
		t.Fatalf("cold tier faulted %d pages under a %d-byte budget, want several: %+v", ps.Faults, testMemBudget, ps)
	}

	// The resident engine reports none of it.
	rst := resident.Stats()
	if rst.MemBudget != 0 || rst.SlicesCold != 0 || rst.ResidentBytes != 0 {
		t.Fatalf("resident engine leaked tier stats: %+v", rst)
	}
}

// TestTieredWritesThawAndEvict drives writes through a tiered engine —
// inserts thaw mutated cold slices on the master while published snapshots
// keep serving the cold headers — and checks that post-write answers still
// match a resident engine seeing the same final state, that the pool
// evicted under pressure along the way, and that it ends inside its budget.
func TestTieredWritesThawAndEvict(t *testing.T) {
	txs := genTxns(34, 1600, 32, 5)
	reg := obs.New()
	tiered := newTestEngine(t, txs, 192, 3, Options{
		MemBudget: testMemBudget / 2,
		ColdDir:   t.TempDir(),
		Observe:   reg,
	})
	resident := newTestEngine(t, txs, 192, 3, Options{})
	ctx := context.Background()

	warm := QueryRequest{Scheme: "DFP", MinSupportCount: 40}
	if _, err := tiered.Query(ctx, warm); err != nil {
		t.Fatalf("warm query: %v", err)
	}

	extra := genTxns(35, 240, 32, 5)
	if _, err := tiered.Apply(ctx, TxnsRequest{Insert: extra, Delete: []int{3, 17}}); err != nil {
		t.Fatalf("tiered apply: %v", err)
	}
	if _, err := resident.Apply(ctx, TxnsRequest{Insert: extra, Delete: []int{3, 17}}); err != nil {
		t.Fatalf("resident apply: %v", err)
	}

	for _, req := range []QueryRequest{
		{Scheme: "DFP", MinSupportCount: 40},
		{Scheme: "SFS", MinSupportCount: 30},
	} {
		want, err := resident.Query(ctx, req)
		if err != nil {
			t.Fatalf("resident post-write: %v", err)
		}
		got, err := tiered.Query(ctx, req)
		if err != nil {
			t.Fatalf("tiered post-write: %v", err)
		}
		if string(got.Patterns) != string(want.Patterns) {
			t.Errorf("%s: tiered post-write answer differs from resident", req.Scheme)
		}
	}

	// Pager metrics flow through the obs registry the engine was given.
	m := reg.Metrics()
	if m.Pager == nil {
		t.Fatalf("obs registry has no pager section")
	}
	if m.Pager.HitRatio <= 0 {
		t.Fatalf("pager hit_ratio = %v, want > 0", m.Pager.HitRatio)
	}
	// The write burst thaws the cold slices it touches (mutation happens
	// resident), so no cold-census assertion here — what must hold is that
	// the cold path actually ran before the thaw.
	if m.Pager.Faults == 0 || m.Pager.Evictions == 0 {
		t.Fatalf("pager metrics report %d faults, %d evictions; the cold path never ran under pressure", m.Pager.Faults, m.Pager.Evictions)
	}
	if held := m.Pager.ResidentBytes + m.Pager.ReservedBytes; held > testMemBudget/2 {
		t.Fatalf("pool holds %d frame + %d reserved bytes under a %d-byte budget", m.Pager.ResidentBytes, m.Pager.ReservedBytes, testMemBudget/2)
	}
}

// TestReadOnlyTieredEngineStaysInBudget pins that -mem-budget is a real
// limit even when no write ever supersedes a snapshot: after four cold mines
// over one epoch, the frames the pool holds plus the hot tier's reservation
// fit the budget, the pool got there by evicting, and every answer equals a
// resident engine's. Nothing but a pin may keep a frame resident — a
// snapshot reading the cold tier needs the cold file open, not its pages.
func TestReadOnlyTieredEngineStaysInBudget(t *testing.T) {
	txs := genTxns(33, 2400, 40, 6)
	reqs := []QueryRequest{
		{Scheme: "DFP", MinSupportCount: 50},
		{Scheme: "SFS", MinSupportCount: 40},
		{Scheme: "SFP", MinSupportCount: 30},
		{Scheme: "DFS", MinSupportCount: 60},
	}
	for _, shards := range []int{1, 4} {
		resident := newShardedTestEngine(t, txs, 256, 3, shards, Options{})
		tiered := newShardedTestEngine(t, txs, 256, 3, shards, Options{
			MemBudget: testMemBudget,
			ColdDir:   t.TempDir(),
		})
		ctx := context.Background()
		before := tiered.EpochVector()
		for _, req := range reqs {
			want, err := resident.Query(ctx, req)
			if err != nil {
				t.Fatalf("%d shards, %s resident: %v", shards, req.Scheme, err)
			}
			got, err := tiered.Query(ctx, req)
			if err != nil {
				t.Fatalf("%d shards, %s tiered: %v", shards, req.Scheme, err)
			}
			if got.Cached || string(got.Patterns) != string(want.Patterns) {
				t.Errorf("%d shards, %s: cached=%v, answer equals the resident engine's: %v",
					shards, req.Scheme, got.Cached, string(got.Patterns) == string(want.Patterns))
			}
		}
		if after := tiered.EpochVector(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%d shards: epoch vector moved from %v to %v on a read-only engine", shards, before, after)
		}
		ps := tiered.pager.Stats()
		if ps.Evictions == 0 {
			t.Errorf("%d shards: no evictions after four cold mines under a %d-byte budget: %+v", shards, testMemBudget, ps)
		}
		if ps.ResidentBytes+ps.ReservedBytes > testMemBudget {
			t.Errorf("%d shards: pool holds %d frame + %d reserved bytes under a %d-byte budget",
				shards, ps.ResidentBytes, ps.ReservedBytes, testMemBudget)
		}
	}
}

// TestMemBudgetBoundsShardedEngineMine pins that a sharded engine's mines
// live inside -mem-budget: a mine reads the shard snapshots' own cold slices
// through the pool, so two cold mines at one epoch vector both fault (a
// resident merged copy of the index, cached per epoch vector, used to serve
// the second without touching the pool). The second runs at a lower
// threshold — longer chains, so it needs slices the first left cold. What
// the pool holds fits the budget after the mines and again after a write.
// Answers equal an untiered engine's throughout.
func TestMemBudgetBoundsShardedEngineMine(t *testing.T) {
	txs := genTxns(36, 16384, 40, 6)
	resident := newShardedTestEngine(t, txs, 256, 3, 2, Options{})
	var budget int64 // half the bytes the slices occupy
	for _, sn := range resident.loadSnaps() {
		budget += sn.idx.ResidentSliceBytes() / 2
	}
	tiered := newShardedTestEngine(t, txs, 256, 3, 2, Options{MemBudget: budget, ColdDir: t.TempDir()})
	ctx := context.Background()

	before := tiered.EpochVector()
	faults := int64(0)
	for i, req := range []QueryRequest{
		// The single filter sweeps every item, and each chain stops after its
		// rarest slice (the dual filter would skip every chain: no item's
		// exact count reaches |D|).
		{Scheme: "SFS", MinSupportCount: len(txs)},
		{Scheme: "DFP", MinSupportCount: 800},
	} {
		want, err := resident.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tiered.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cached || string(got.Patterns) != string(want.Patterns) {
			t.Errorf("mine %d: cached=%v, answer equals the untiered engine's: %v", i+1, got.Cached, string(got.Patterns) == string(want.Patterns))
		}
		ps := tiered.pager.Stats()
		if ps.Faults <= faults {
			t.Errorf("mine %d faulted nothing (%d faults before, %d after): it did not read through the pool", i+1, faults, ps.Faults)
		}
		faults = ps.Faults
	}
	if after := tiered.EpochVector(); !reflect.DeepEqual(after, before) {
		t.Fatalf("epoch vector moved from %v to %v between the mines", before, after)
	}
	if ps := tiered.pager.Stats(); ps.ResidentBytes+ps.ReservedBytes > budget {
		t.Errorf("after the mines the pool holds %d frame + %d reserved bytes under a %d-byte budget",
			ps.ResidentBytes, ps.ReservedBytes, budget)
	}

	if _, err := tiered.Apply(ctx, TxnsRequest{Insert: genTxns(37, 2, 40, 6)}); err != nil {
		t.Fatal(err)
	}
	if ps := tiered.pager.Stats(); ps.ResidentBytes+ps.ReservedBytes > budget || ps.Evictions == 0 {
		t.Errorf("after a write the pool holds %d frame + %d reserved bytes under a %d-byte budget (%d evictions)",
			ps.ResidentBytes, ps.ReservedBytes, budget, ps.Evictions)
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(ents)
}

// TestCloseReleasesColdFiles pins that Close closes every shard's cold
// file and hands the pool back: three mined and closed 4-shard tiered
// engines leave the process's descriptor count where it started.
func TestCloseReleasesColdFiles(t *testing.T) {
	txs := genTxns(33, 2400, 40, 6)
	openFDs(t) // the first directory read may open the runtime's poller
	before := openFDs(t)
	for i := 0; i < 3; i++ {
		e := newShardedTestEngine(t, txs, 256, 3, 4, Options{
			MemBudget: testMemBudget,
			ColdDir:   t.TempDir(),
		})
		if _, err := e.Query(context.Background(), QueryRequest{Scheme: "DFP", MinSupportCount: 50}); err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("engine %d: Close: %v", i, err)
		}
		if ps := e.pager.Stats(); ps.ResidentBytes != 0 || ps.ReservedBytes != 0 {
			t.Errorf("engine %d: pool holds %d frame + %d reserved bytes after Close", i, ps.ResidentBytes, ps.ReservedBytes)
		}
	}
	if after := openFDs(t); after != before {
		t.Errorf("open descriptors went from %d to %d over three closed tiered engines", before, after)
	}
}

// TestQueryRacingClose: a query that races Close on a tiered engine gets an
// answer or ErrClosed — never a panic from reading a closed cold file.
func TestQueryRacingClose(t *testing.T) {
	txs := genTxns(33, 2400, 40, 6)
	e := newShardedTestEngine(t, txs, 256, 3, 4, Options{
		MemBudget: testMemBudget,
		ColdDir:   t.TempDir(),
	})
	answered := make(chan struct{}) // closed once any query returns
	var once sync.Once
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Distinct thresholds miss the cache, so most queries mine.
				req := QueryRequest{Scheme: "SFS", MinSupportCount: 30 + (13*g+i)%60}
				_, err := e.Query(context.Background(), req)
				once.Do(func() { close(answered) })
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	<-answered
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("query racing Close: %v", err)
	}
}
