package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"time"

	"bbsmine"
	"bbsmine/internal/mining"
	"bbsmine/internal/txdb"
)

// The three mine workloads: one in-memory Database over the seed dataset,
// left dense, compressed, or tiered to half its slice bytes, driven through
// the public root API by rounds of {one DFP mine, one SFS mine, a batch of
// point Count queries}. One goroutine, Workers:1.

// appendBatches is how many timed Append batches one index build is cut
// into; a batch is the write op the mine workloads report.
const appendBatches = 20

// mineEnv is one set-up database.
type mineEnv struct {
	db  *bbsmine.Database
	txs []txdb.Transaction
	dir string // cold-file scratch of a tiered database

	items       int           // item occurrences stored
	compressDur time.Duration // SetCompression, mine-compressed only
	tierDur     time.Duration // Tier, mine-tiered only
}

func (e *mineEnv) close() {
	if e == nil {
		return
	}
	_ = e.db.Untier() // closes the cold files before their directory goes
	_ = e.db.Close()  // in-memory: nothing to flush
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

// setupMine generates the dataset, builds the index through Database.Append
// and applies the workload's storage policy. Each Append batch's wall time
// lands in batches.
func setupMine(cfg runConfig, batches *samples) (*mineEnv, error) {
	txs, err := genDataset(cfg.Size.D)
	if err != nil {
		return nil, err
	}
	env := &mineEnv{db: bbsmine.NewInMemory(bbsmine.Options{M: sigBits, K: sigHashes}), txs: txs}
	per := (len(txs) + appendBatches - 1) / appendBatches
	for lo := 0; lo < len(txs); lo += per {
		hi := min(lo+per, len(txs))
		start := time.Now()
		for _, tx := range txs[lo:hi] {
			if err := env.db.Append(tx.TID, tx.Items); err != nil {
				return nil, fmt.Errorf("building the index: %w", err)
			}
		}
		batches.add(time.Since(start))
	}
	for _, tx := range txs {
		env.items += len(tx.Items)
	}
	switch cfg.Workload {
	case wlCompressed:
		start := time.Now()
		env.db.SetCompression(true)
		env.compressDur = time.Since(start)
	case wlTiered:
		// A profiling mine ranks the slices by AND participation; Tier keeps
		// the hottest inside half the budget and pages the rest.
		profile := bbsmine.NewObserver()
		if _, err := env.db.Mine(bbsmine.MineOptions{MinSupportFrac: cfg.Size.TauFrac, Scheme: bbsmine.DFP, Workers: 1, Observe: profile}); err != nil {
			return nil, fmt.Errorf("profiling mine: %w", err)
		}
		if env.dir, err = scratchDir(cfg, "tier-"); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := env.db.Tier(env.db.IndexBytes()/2, env.dir, profile.SliceTouches()); err != nil {
			env.close()
			return nil, fmt.Errorf("tiering: %w", err)
		}
		env.tierDur = time.Since(start)
	}
	return env, nil
}

// indexBytes is what the index holds in memory: the resident slices plus,
// when tiered, the buffer pool's frames.
func (e *mineEnv) indexBytes() int64 {
	return e.db.ResidentIndexBytes() + e.db.TierStats().ResidentBytes
}

// countAnswer is a Count reply, remembered to check repeats against.
type countAnswer struct {
	est, exact int
	seen       bool
}

// mineRun drives rounds against one environment and checks every answer.
type mineRun struct {
	env  *mineEnv
	pool [][]int32
	per  int     // Count queries per round
	tau  float64 // minimum support fraction

	truth  truth
	want   map[bbsmine.Scheme][sha256.Size]byte // fingerprint of the verified answer
	counts []countAnswer                        // by pool index

	dfp, sfs, count, rounds samples
	tally                   tally

	rec    *recorder                       // nil: spans off
	traced map[bbsmine.Scheme][]tracedMine // per observed mine, in order
}

// tracedMine is one observed mine's registry snapshot plus the pool traffic
// it caused (the registry's pager section is cumulative).
type tracedMine struct {
	bbsmine.ObserverMetrics
	Faults, Hits int64
}

func newMineRun(env *mineEnv, cfg runConfig) (*mineRun, error) {
	want, err := exactFrequents(env.txs, mining.MinSupportCount(cfg.Size.TauFrac, len(env.txs)), true)
	if err != nil {
		return nil, err
	}
	pool := genCountPool(cfg.Seed, env.txs, cfg.Size.CountPool)
	return &mineRun{
		env: env, pool: pool, per: cfg.Size.CountsPerRound, tau: cfg.Size.TauFrac,
		truth:  want,
		want:   make(map[bbsmine.Scheme][sha256.Size]byte),
		counts: make([]countAnswer, len(pool)),
		traced: make(map[bbsmine.Scheme][]tracedMine),
	}, nil
}

// mine runs one full mine and checks it. With observe it attaches a fresh
// registry, bound to the database's I/O and pager counters, and keeps its
// snapshot. The first answer of a scheme is checked pattern by pattern
// against the oracle; later ones by fingerprint against the first.
func (m *mineRun) mine(scheme bbsmine.Scheme, observe bool, parent, op int) time.Duration {
	opts := bbsmine.MineOptions{MinSupportFrac: m.tau, Scheme: scheme, Workers: 1}
	if observe {
		opts.Observe = bbsmine.NewObserver()
		m.env.db.ResetStats()
		m.env.db.BindStats(opts.Observe)
		m.env.db.BindPager(opts.Observe)
	}
	pool := m.env.db.TierStats()
	id := m.rec.begin("bbsmine.Mine."+scheme.String(), parent, op)
	start := time.Now()
	res, err := m.env.db.Mine(opts)
	d := time.Since(start)
	m.rec.end(id)
	m.tally.attempted++
	if err != nil {
		m.tally.fail("%s mine: %v", scheme, err)
		return d
	}
	if observe {
		after := m.env.db.TierStats()
		m.traced[scheme] = append(m.traced[scheme], tracedMine{opts.Observe.Metrics(), after.Faults - pool.Faults, after.Hits - pool.Hits})
	}
	got := patternsOf(res)
	sum := hashPatterns(got)
	if want, ok := m.want[scheme]; ok {
		if sum != want {
			m.tally.fail("%s mine: answer differs from the verified one", scheme)
		}
		return d
	}
	if err := checkPatterns(got, m.truth); err != nil {
		m.tally.fail("%s mine: %v", scheme, err)
		return d
	}
	m.want[scheme] = sum
	return d
}

// countOne runs one point query and checks Lemma 4 (the estimate never
// undercounts) and that a repeated itemset gets the same answer.
func (m *mineRun) countOne(i int) time.Duration {
	start := time.Now()
	est, exact, err := m.env.db.Count(m.pool[i])
	d := time.Since(start)
	m.tally.attempted++
	switch prev := m.counts[i]; {
	case err != nil:
		m.tally.fail("Count(%v): %v", m.pool[i], err)
	case est < exact:
		m.tally.fail("Count(%v): estimate %d below exact %d", m.pool[i], est, exact)
	case prev.seen && (prev.est != est || prev.exact != exact):
		m.tally.fail("Count(%v): %d/%d, earlier %d/%d", m.pool[i], est, exact, prev.est, prev.exact)
	default:
		m.counts[i] = countAnswer{est: est, exact: exact, seen: true}
	}
	return d
}

// round runs round r; timed rounds keep their latencies.
func (m *mineRun) round(r int, timed, observe bool) {
	id := m.rec.begin("round", 0, r)
	start := time.Now()
	dfp := m.mine(bbsmine.DFP, observe, id, r)
	sfs := m.mine(bbsmine.SFS, observe, id, r)
	cid := m.rec.begin("bbsmine.Count.batch", id, r)
	first := r * m.per
	for i := 0; i < m.per; i++ {
		d := m.countOne((first + i) % len(m.pool))
		if timed {
			m.count.add(d)
		}
	}
	m.rec.end(cid)
	m.rec.end(id)
	if timed {
		m.dfp.add(dfp)
		m.sfs.add(sfs)
		m.rounds.add(time.Since(start))
	}
}

// window runs timed rounds from round number first until the deadline or
// the round cap and returns the next round number and the elapsed time.
func (m *mineRun) window(first int, seconds float64, maxRounds int, observe bool) (int, time.Duration) {
	start := time.Now()
	r := first
	for done := 0; ; done++ {
		if time.Since(start).Seconds() >= seconds || (maxRounds > 0 && done >= maxRounds) {
			break
		}
		m.round(r, true, observe)
		r++
	}
	return r, time.Since(start)
}

// finalChecks brute-forces every hundredth queried itemset, and fails a
// tiered run whose pool never faulted or evicted: it would have measured the
// resident path.
func (m *mineRun) finalChecks(workload string) {
	for i := 0; i < len(m.counts); i += 100 {
		if c := m.counts[i]; c.seen {
			if want := bruteCount(m.env.txs, m.pool[i]); c.exact != want {
				m.tally.fail("Count(%v): exact %d, a scan finds %d", m.pool[i], c.exact, want)
			}
		}
	}
	if workload != wlTiered {
		return
	}
	if ts := m.env.db.TierStats(); ts.Faults == 0 || ts.Evictions == 0 {
		m.tally.fail("tiered run saw %d faults and %d evictions: the budget never bit", ts.Faults, ts.Evictions)
	}
}

// heapLiveMB forces a collection and reads the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runMine is a mine workload with tracing off: several set-ups (setup_s is
// their median), one warm-up round, then the timed window.
func runMine(cfg runConfig) (*outcome, error) {
	var setups, batches samples
	var env *mineEnv
	for i := 0; i < cfg.Size.SetupRepeats; i++ {
		env.close()
		start := time.Now()
		var err error
		if env, err = setupMine(cfg, &batches); err != nil {
			return nil, err
		}
		setups.add(time.Since(start))
	}
	defer env.close()
	m, err := newMineRun(env, cfg)
	if err != nil {
		return nil, err
	}
	m.round(0, false, false)
	next, elapsed := m.window(1, cfg.Seconds, cfg.Size.MaxRounds, false)
	heap := heapLiveMB()
	m.finalChecks(cfg.Workload)

	rep := report{}
	rep.setMedian("setup_s", setups, 1e9)
	rep.setMedian("mine_dfp_ms_p50", m.dfp, 1e6)
	rep.setMedian("mine_sfs_ms_p50", m.sfs, 1e6)
	rep.setMedian("read_us_p50", m.count, 1e3)
	rep.setMedian("write_ms_p50", batches, 1e6)
	ops := (next - 1) * (2 + m.per)
	rep.setN("ops_per_s", float64(ops)/elapsed.Seconds(), ops)
	rep.set("index_bytes_per_item", float64(env.indexBytes())/float64(env.items))
	rep.set("heap_live_mb", heap)
	return &outcome{Report: rep, Tally: m.tally}, nil
}
