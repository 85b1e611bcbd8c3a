package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"bbsmine/internal/apriori"
	"bbsmine/internal/bitvec"
	"bbsmine/internal/core"
	"bbsmine/internal/fptree"
	"bbsmine/internal/iostat"
	"bbsmine/internal/mining"
	"bbsmine/internal/obs"
	"bbsmine/internal/pager"
	"bbsmine/internal/shard"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// The layer replays of a traced run: each times calls into one layer's
// public functions from outside, over an index and a store built from the
// seed dataset through the layers' own constructors and given the
// workload's storage policy. Nothing inside the program is instrumented.
// Every replay is a span under one "replay" root.

type replay struct {
	cfg    runConfig
	rep    report
	rec    *recorder
	parent int
	txs    []txdb.Transaction
	pool   [][]int32

	stats *iostat.Stats
	idx   *sigfile.BBS
	store *txdb.MemStore
	dir   string // scratch for cold files
}

// timed runs fn reps times under a span and returns the median wall time of
// one run in nanoseconds.
func (p *replay) timed(name string, reps int, fn func()) float64 {
	id := p.rec.begin(name, p.parent, 0)
	defer p.rec.end(id)
	var s samples
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		s.add(time.Since(start))
	}
	return s.median()
}

// runReplays builds the fixture and runs the replays the workload's layers
// call for.
func runReplays(cfg runConfig, rec *recorder, rep report, txs []txdb.Transaction, pool [][]int32) error {
	dir, err := scratchDir(cfg, "replay-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	p := &replay{cfg: cfg, rep: rep, rec: rec, txs: txs, pool: pool, dir: dir}
	p.parent = rec.begin("replay", 0, 0)
	defer rec.end(p.parent)

	p.build()
	p.denseKernels()
	switch cfg.Workload {
	case wlCompressed:
		p.compressedKernels()
		p.idx.SetCompression(true)
	case wlTiered:
		if err := p.pagerOps(); err != nil {
			return err
		}
		if err := p.tier(); err != nil {
			return err
		}
		defer func() { _ = p.idx.Untier() }()
	}
	p.indexOps()
	if err := p.storeOps(); err != nil {
		return err
	}
	if err := p.references(); err != nil {
		return err
	}
	if cfg.Workload == wlServe {
		return p.serveLayers()
	}
	return nil
}

// build constructs the fixture, timing the two write paths it goes through.
func (p *replay) build() {
	n := float64(len(p.txs))
	insert := p.timed("sigfile.Insert", 3, func() {
		p.stats = &iostat.Stats{}
		p.idx = sigfile.New(sighash.NewMD5(sigBits, sigHashes), p.stats)
		for _, tx := range p.txs {
			p.idx.Insert(tx.Items)
		}
	})
	p.rep.setN("sigfile.insert_us", insert/n/1e3, 3)
	appendNs := p.timed("txdb.Append", 3, func() {
		p.store = txdb.NewMemStore(p.stats)
		for _, tx := range p.txs {
			_ = p.store.Append(tx) // a MemStore rejects only unsorted items; these came from the generator
		}
	})
	p.rep.setN("txdb.append_us", appendNs/n/1e3, 3)
}

// kernelSlices is how many of the index's slices the kernel replays use.
const kernelSlices = 128

// denseKernels times Vector.AndCount over the index's real slices with a
// plain and a summarized accumulator. Each accumulator is a subset of the
// slice it is AND-ed with, so it never changes and every repetition does
// the same work.
func (p *replay) denseKernels() {
	m := min(kernelSlices, p.idx.M())
	vecs := make([]*bitvec.Vector, m)
	plain := make([]*bitvec.Vector, m)
	sparse := make([]*bitvec.Vector, m)
	var plainWords, sparseWords int
	for i := range vecs {
		vecs[i] = p.idx.ResultSlice(i).Clone()
		vecs[i].Grow(p.idx.Len()) // slices grow lazily; the kernels want equal lengths
	}
	for i := range vecs {
		plain[i] = vecs[i].Clone()
		w, _ := plain[i].WordStats()
		plainWords += w
		sparse[i] = vecs[i].Clone()
		sparse[i].AndCount(vecs[(i+1)%m])
		sparse[i].Summarize()
		w, _ = sparse[i].WordStats()
		sparseWords += w
	}
	const reps = 200
	dense := p.timed("bitvec.AndCount.dense", reps, func() {
		for i, v := range vecs {
			plain[i].AndCount(v)
		}
	})
	p.rep.setN("bitvec.and_dense_ns_per_word", dense/float64(plainWords), reps)
	if sparseWords > 0 {
		summarized := p.timed("bitvec.AndCount.summarized", reps, func() {
			for i, v := range vecs {
				sparse[i].AndCount(v)
			}
		})
		p.rep.setN("bitvec.and_summarized_ns_per_word", summarized/float64(sparseWords), reps)
	}
}

// compressedKernels times Slice.AndCountInto over the index's slices under
// the encodings the adaptive policy picks for them.
func (p *replay) compressedKernels() {
	byEnc := make(map[bitvec.Encoding][]*bitvec.Slice)
	accs := make(map[bitvec.Encoding][]*bitvec.Vector)
	for i := 0; i < p.idx.M(); i++ {
		v := p.idx.ResultSlice(i).Clone()
		v.Grow(p.idx.Len())
		s := bitvec.DenseSliceOf(v.Clone()).Recompress(p.idx.Len(), true)
		if enc := s.Encoding(); enc != bitvec.EncDense && len(byEnc[enc]) < kernelSlices {
			byEnc[enc] = append(byEnc[enc], s)
			accs[enc] = append(accs[enc], v)
		}
	}
	const reps = 100
	for enc, name := range map[bitvec.Encoding]string{bitvec.EncSparse: "sparse", bitvec.EncRLE: "rle"} {
		slices, acc := byEnc[enc], accs[enc]
		if len(slices) == 0 {
			continue
		}
		ns := p.timed("bitvec.AndCountInto."+name, reps, func() {
			for i, s := range slices {
				s.AndCountInto(acc[i])
			}
		})
		p.rep.setN("bitvec.and_"+name+"_enc_ns_per_and", ns/float64(len(slices)), reps)
	}
}

// pagerOps times File.Page+Release on a resident and on a non-resident page
// of a cold file four times the pool's size.
func (p *replay) pagerOps() error {
	const poolPages, filePages = 64, 256
	pg := pager.New(poolPages * pager.PageSize)
	path := filepath.Join(p.dir, "pager.cold")
	w, err := pager.Create(path)
	if err != nil {
		return fmt.Errorf("pager replay: %w", err)
	}
	if _, err := w.Append(make([]byte, filePages*pager.PageSize)); err != nil {
		w.Abort()
		return fmt.Errorf("pager replay: %w", err)
	}
	if err := w.Seal(); err != nil {
		return fmt.Errorf("pager replay: %w", err)
	}
	f, err := pg.OpenCold(path)
	if err != nil {
		return fmt.Errorf("pager replay: %w", err)
	}
	defer func() { _ = f.Close() }()
	var pageErr error
	touch := func(k int64) {
		if _, err := f.Page(k); err != nil {
			pageErr = err
			return
		}
		f.Release(k)
	}
	const reps = 50
	hit := p.timed("pager.Page.hit", reps, func() {
		for i := 0; i < filePages; i++ {
			touch(0)
		}
	})
	// A sequential sweep of a file larger than the pool never finds its page:
	// CLOCK evicted it a quarter of a sweep ago.
	fault := p.timed("pager.Page.fault", reps, func() {
		for k := int64(0); k < filePages; k++ {
			touch(k)
		}
	})
	if pageErr != nil {
		return fmt.Errorf("pager replay: %w", pageErr)
	}
	p.rep.setN("pager.hit_ns", hit/filePages, reps)
	p.rep.setN("pager.fault_ns", fault/filePages, reps)
	return nil
}

// tier splits the fixture's index like the workload's, then times an AND
// against a cold slice whose page is resident and one whose page is not.
func (p *replay) tier() error {
	miner, err := core.NewMiner(p.idx, p.store, p.stats)
	if err != nil {
		return fmt.Errorf("tier replay: %w", err)
	}
	profile := obs.New()
	tau := mining.MinSupportCount(p.cfg.Size.TauFrac, len(p.txs))
	if _, err := miner.Mine(core.Config{MinSupport: tau, Scheme: core.DFP, Workers: 1, Observe: profile}); err != nil {
		return fmt.Errorf("tier replay profiling mine: %w", err)
	}
	budget := p.idx.TotalBytes() / 2
	pg := pager.New(budget)
	if err := p.idx.Tier(pg, filepath.Join(p.dir, "slices.cold"), budget/2, profile.SliceTouches()); err != nil {
		return fmt.Errorf("tier replay: %w", err)
	}
	// A slice is cold when AND-ing it moves the pool's counters.
	acc := p.idx.NewResult()
	var cold []int
	for i := 0; i < p.idx.M(); i++ {
		before := pg.Stats()
		p.idx.AndSlice(acc, i)
		if after := pg.Stats(); after.Hits+after.Faults != before.Hits+before.Faults {
			cold = append(cold, i)
		}
	}
	if len(cold) == 0 {
		return nil
	}
	const reps = 20
	// The sample's pages fit the pool, so once brought in they stay.
	sample := cold[:min(len(cold), 32)]
	for _, i := range sample {
		p.idx.AndSlice(acc, i)
	}
	hit := p.timed("bitvec.AndCountInto.cold_hit", reps, func() {
		for _, i := range sample {
			p.idx.AndSlice(acc, i)
		}
	})
	// A sweep of every cold slice overruns the pool: each AND faults.
	fault := p.timed("bitvec.AndCountInto.cold_fault", reps, func() {
		for _, i := range cold {
			p.idx.AndSlice(acc, i)
		}
	})
	p.rep.setN("bitvec.and_cold_hit_ns_per_and", hit/float64(len(sample)), reps)
	p.rep.setN("bitvec.and_cold_fault_ns_per_and", fault/float64(len(cold)), reps)
	return nil
}

// indexOps times the sigfile entry points the miners and Count go through,
// on the index under the workload's storage policy.
func (p *replay) indexOps() {
	h := p.idx.Hasher()
	items := p.idx.Items()
	for _, it := range items {
		h.Positions(it) // Count and the miners see a warm position cache
	}
	const reps = 20
	pos := p.timed("sighash.Positions", reps, func() {
		for _, it := range items {
			h.Positions(it)
		}
	})
	p.rep.setN("sighash.positions_ns_per_item", pos/float64(len(items)), reps)

	dst := p.idx.NewResult()
	var buf []int
	queries := p.pool[:min(len(p.pool), 1000)]
	count := p.timed("sigfile.CountIntoBuf", reps, func() {
		for _, q := range queries {
			p.idx.CountIntoBuf(dst, q, &buf)
		}
	})
	p.rep.setN("sigfile.count_into_ns", count/float64(len(queries)), reps)

	acc := p.idx.NewResult()
	and := p.timed("sigfile.AndSlice", reps, func() {
		for i := 0; i < p.idx.M(); i++ {
			p.idx.AndSlice(acc, i)
		}
	})
	p.rep.setN("sigfile.and_slice_ns", and/float64(p.idx.M()), reps)
}

// storeOps times the transaction store's probe and scan paths.
func (p *replay) storeOps() error {
	rng := rand.New(rand.NewSource(p.cfg.Seed))
	positions := make([]int, 2000)
	for i := range positions {
		positions[i] = rng.Intn(p.store.Len())
	}
	var opErr error
	const reps = 20
	get := p.timed("txdb.Get", reps, func() {
		for _, pos := range positions {
			if _, err := p.store.Get(pos); err != nil {
				opErr = err
			}
		}
	})
	scan := p.timed("txdb.Scan", reps, func() {
		if err := p.store.Scan(func(int, txdb.Transaction) bool { return true }); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return fmt.Errorf("store replay: %w", opErr)
	}
	p.rep.setN("txdb.get_us", get/float64(len(positions))/1e3, reps)
	p.rep.setN("txdb.scan_ns_per_tx", scan/float64(p.store.Len()), reps)
	return nil
}

// references times the two scan-based miners the paper compares against.
func (p *replay) references() error {
	tau := mining.MinSupportCount(p.cfg.Size.TauFrac, len(p.txs))
	var opErr error
	const reps = 3
	fp := p.timed("fptree.Mine", reps, func() {
		if _, err := fptree.Mine(p.store, fptree.Config{MinSupport: tau}); err != nil {
			opErr = err
		}
	})
	ap := p.timed("apriori.Mine", reps, func() {
		if _, err := apriori.Mine(p.store, apriori.Config{MinSupport: tau}); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return fmt.Errorf("reference miners: %w", opErr)
	}
	p.rep.setN("fptree.mine_ms", fp/1e6, reps)
	p.rep.setN("apriori.mine_ms", ap/1e6, reps)
	return nil
}

// serveLayers times what a served write costs below the engine: the COW
// snapshot a commit publishes, and the sharded database's append, fan-out
// count and merged-view rebuild.
func (p *replay) serveLayers() error {
	extra := p.txs[:min(len(p.txs), 100)]
	var snap samples
	id := p.rec.begin("sigfile.Snapshot", p.parent, 0)
	for _, tx := range extra {
		p.idx.Insert(tx.Items)
		start := time.Now()
		p.idx.Snapshot()
		snap.add(time.Since(start))
	}
	p.rec.end(id)
	p.rep.setMedian("sigfile.snapshot_us", snap, 1e3)

	sdb, err := shard.NewMem(sighash.NewMD5(sigBits, sigHashes), 2, &iostat.Stats{})
	if err != nil {
		return fmt.Errorf("shard replay: %w", err)
	}
	var opErr error
	appendNs := p.timed("shard.Append", 1, func() {
		for _, tx := range p.txs {
			if err := sdb.Append(tx); err != nil {
				opErr = err
			}
		}
	})
	p.rep.setN("shard.append_us", appendNs/float64(len(p.txs))/1e3, 1)

	var merged samples
	id = p.rec.begin("shard.Merged", p.parent, 0)
	for _, tx := range extra[:min(len(extra), 20)] {
		if err := sdb.Append(tx); err != nil {
			opErr = err
		}
		start := time.Now()
		if _, _, err := sdb.Merged(); err != nil {
			opErr = err
		}
		merged.add(time.Since(start))
	}
	p.rec.end(id)
	p.rep.setMedian("shard.merged_ms", merged, 1e6)

	queries := p.pool[:min(len(p.pool), 500)]
	const reps = 5
	count := p.timed("shard.Count", reps, func() {
		for _, q := range queries {
			if _, _, err := sdb.Count(q); err != nil {
				opErr = err
			}
		}
	})
	if opErr != nil {
		return fmt.Errorf("shard replay: %w", opErr)
	}
	p.rep.setN("shard.count_us", count/float64(len(queries))/1e3, reps)
	return nil
}
