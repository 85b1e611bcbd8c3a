package core

import (
	"runtime"
	"sort"
	"sync"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/mining"
	"bbsmine/internal/txdb"
)

// The parallel mining engine. Filtering is embarrassingly parallel below
// the root of the enumeration: the subtree under each surviving level-1
// extension depends only on its own residual vector, the later root
// extensions' (its alphabet, read and never written) and the read-only
// level-1 arrays, never on what a sibling's subtree computes (the paper's
// GenerateAndFilter removes an item from I only for its own subtree). The
// engine therefore expands the root sequentially, turns every descending
// extension into a subtree task, and runs the tasks on a bounded worker pool;
// refinement fans out the same way (probe fetches split by position range,
// scan verification sharded across per-worker counters).
//
// Determinism: subtree tasks share no mutable state, every Result counter
// is a sum of per-task counts, and partial results are merged in the
// sequential enumeration order — so Workers: N produces a Result identical
// to Workers: 1, byte for byte, for every scheme. Only the interleaving of
// iostat charges differs; their totals are equal as well.

// probeFanOutMin is the number of surviving bits below which a probe is not
// worth fanning out: fetching a handful of transactions costs less than the
// goroutine handoff.
const probeFanOutMin = 256

// scanChunk is the number of transactions handed to a counting worker at a
// time during parallel SequentialScan verification.
const scanChunk = 512

// workerCount resolves Config.Workers: 0 (or negative) means one worker per
// available CPU.
func (c Config) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// subtreeResult accumulates one subtree's contribution to the Result,
// funnel split included, so telemetry merges by seq exactly like the
// Result counters.
type subtreeResult struct {
	accepted  []Pattern
	uncertain []Pattern

	err error // what the subtree's run latched: cancellation or a failed probe

	candidates     int
	falseDrops     int
	certain        int
	probedPatterns int

	certActual   int64
	certEst      int64
	uncertainCnt int64
	nonFreq      int64
}

// filterParallel is the workers > 1 path of filter, entered with the root's
// extensions evaluated (the level-1 candidates recorded exactly as the
// sequential pass does): every descending one roots a subtree task — the
// later extensions are its alphabet — mined on the worker pool, and the
// partial results merge in enumeration order. The root residuals are shared
// read-only operands for the duration (a task reads its own as the parent and
// every later one as a sibling), so filter releases them after the pool has
// drained.
func (r *run) filterParallel(exts []ext) {
	var tasks []int // tasks[seq] indexes the root extension of the seq-th subtree
	for si := range exts {
		if exts[si].descend {
			tasks = append(tasks, si)
		}
	}
	if len(tasks) == 0 {
		return
	}

	// Dispatch the heaviest-looking subtrees first (the level-1 estimate is
	// a cheap proxy for subtree size) so a large subtree never ends up last
	// on an otherwise idle pool. The dispatch order is pure scheduling; the
	// merge below restores enumeration order.
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return exts[tasks[order[a]]].est > exts[tasks[order[b]]].est
	})

	results := make([]subtreeResult, len(tasks))
	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(r.workers, len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr := r.workerRun()
			wr.buf = r.vecs.Get()
			if wr.chain {
				wr.accs = r.idx.NewAccs()
			}
			for seq := range queue {
				results[seq] = wr.mineSubtree(seq, exts[tasks[seq]:])
			}
			r.vecs.Put(wr.buf)
			wr.flushKernel() // commutative sums; per-worker flush keeps totals exact
		}()
	}
	for _, seq := range order {
		queue <- seq
	}
	close(queue)
	wg.Wait()

	for i := range results {
		res := &results[i]
		r.latch(res.err)
		r.accepted = append(r.accepted, res.accepted...)
		r.uncertain = append(r.uncertain, res.uncertain...)
		r.candidates += res.candidates
		r.falseDrops += res.falseDrops
		r.certain += res.certain
		r.probedPatterns += res.probedPatterns
		r.certActual += res.certActual
		r.certEst += res.certEst
		r.uncertainCnt += res.uncertainCnt
		r.nonFreq += res.nonFreq
	}
}

// workerRun clones the run for one pool worker: shared read-only context
// (miner, index, config, alphabet arrays, vector pool) plus a private path
// and private extension buffers, so the worker's AND hot path stays
// allocation-free across the tasks it processes. A worker that enumerates
// is lent an evaluation buffer (buf) by its caller, and gets chain
// accumulators of its own if it evaluates slice chains.
func (r *run) workerRun() *run {
	return &run{
		m:              r.m,
		idx:            r.idx,
		cfg:            r.cfg,
		tau:            r.tau,
		workers:        r.workers,
		vecs:           r.vecs,
		done:           r.done,
		items:          r.items,
		est1:           r.est1,
		act1:           r.act1,
		chain:          r.chain,
		rootVec:        r.rootVec,
		rootEst:        r.rootEst,
		disableProbing: r.disableProbing,
		inWorker:       true,
		itemset:        make([]txdb.Item, 0, pathCap),
		obs:            r.obs,
		traceSubtree:   -1,
	}
}

// mineSubtree runs the sequential enumeration over the seq-th subtree, rooted
// at exts[0] with exts[1:] as its alphabet: the path is seeded with the
// root's level-1 item and node recurses exactly as the sequential engine
// would from that point.
func (w *run) mineSubtree(seq int, exts []ext) subtreeResult {
	w.accepted, w.uncertain = nil, nil
	w.candidates, w.falseDrops, w.certain, w.probedPatterns = 0, 0, 0, 0
	w.certActual, w.certEst, w.uncertainCnt, w.nonFreq = 0, 0, 0, 0
	w.err = nil
	w.traceSubtree = seq

	root := &exts[0]
	w.itemset = append(w.itemset[:0], w.items[root.gi])
	w.node(exts[1:], root.vec, root.est, root.count, root.flag)
	w.itemset = w.itemset[:0]
	w.traceSubtree = -1

	return subtreeResult{
		accepted:       w.accepted,
		uncertain:      w.uncertain,
		err:            w.err,
		candidates:     w.candidates,
		falseDrops:     w.falseDrops,
		certain:        w.certain,
		probedPatterns: w.probedPatterns,
		certActual:     w.certActual,
		certEst:        w.certEst,
		uncertainCnt:   w.uncertainCnt,
		nonFreq:        w.nonFreq,
	}
}

// phase3Outcome is one candidate's fate in the adaptive postprocessing pass:
// its full-resolution estimate (below τ: pruned) and, for a probe scheme's
// survivor, the exact count its probe returned.
type phase3Outcome struct {
	est   int
	exact int
}

// reverify runs the adaptive mode's postprocessing pass (phase 3 of
// mineAdaptive) over the phase-2 run's uncertain candidates. One worker runs
// it inline on r; more share the candidates over a queue, each on its own
// workerRun. Outcomes are recorded by candidate position and consumed in
// order by the caller, so accepted patterns, false drops, probe counts and
// trace events are the same for every worker count.
func (r *run) reverify(cands []Pattern) []phase3Outcome {
	outs := make([]phase3Outcome, len(cands))
	workers := min(r.workers, len(cands))
	if workers <= 1 {
		i := -1
		r.reverifyFrom(cands, outs, func() (int, bool) { i++; return i, i < len(cands) })
		return outs
	}
	queue := make(chan int)
	var wg sync.WaitGroup
	runs := make([]*run, workers)
	for w := range runs {
		runs[w] = r.workerRun()
		wg.Add(1)
		go func(wr *run) {
			defer wg.Done()
			wr.reverifyFrom(cands, outs, func() (int, bool) { i, ok := <-queue; return i, ok })
		}(runs[w])
	}
	for i := range cands {
		queue <- i
	}
	close(queue)
	wg.Wait()
	for _, wr := range runs {
		r.latch(wr.err)
	}
	return outs
}

// reverifyFrom is the body of the pass: it drains next, re-estimating each
// candidate against the miner's full index (not the MemBBS the run filtered
// against; Fold keeps the length, so the run's pool fits both) and, for the
// probe schemes, probing a survivor at once.
func (w *run) reverifyFrom(cands []Pattern, outs []phase3Outcome, next func() (int, bool)) {
	w.buf, w.accs = w.vecs.Get(), w.m.idx.NewAccs()
	defer func() {
		w.vecs.Put(w.buf)
		w.buf, w.accs = nil, nil
	}()
	var posBuf []int // reused across candidates; CountIntoBuf grows it once
	for i, ok := next(); ok; i, ok = next() {
		if w.cancelled() {
			continue // drain; mineAdaptive surfaces the error after the pass
		}
		c := cands[i]
		est := w.m.idx.CountIntoBuf(w.buf, w.accs, c.Items, &posBuf)
		if w.cfg.Constraint != nil && est > 0 {
			est = w.buf.AndCount(w.cfg.Constraint)
		}
		outs[i].est = est
		if est >= w.tau && w.cfg.Scheme.probes() {
			outs[i].exact = w.probeExact(w.buf, c.Items)
		}
	}
}

// probeParallel is probeExact with the fetches fanned out: the result
// vector is split into word-aligned position ranges, one per worker, and
// the per-range exact counts are summed. Fetch order within the file stays
// ascending per worker, preserving the elevator-sweep access pattern the
// cost model assumes; the total is independent of the split. A failed fetch
// stops its range and is returned instead of the count; of several, the
// lowest range's wins.
func probeParallel(m *Miner, vec *bitvec.Vector, itemset []txdb.Item, workers int) (int, error) {
	n := vec.Len()
	span := (n/workers + 64) &^ 63 // word-aligned chunk, ≥ 64 bits
	counts := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*span, (w+1)*span
		if lo >= n {
			break
		}
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			exact := 0
			for i, ok := vec.NextSet(lo); ok && i < hi; i, ok = vec.NextSet(i + 1) {
				tx, err := m.store.Get(i)
				m.stats.AddProbe()
				if err != nil {
					errs[w] = probeErr(i, err)
					break
				}
				if tx.Contains(itemset) {
					exact++
				}
			}
			counts[w] = exact
		}(w, lo, hi)
	}
	wg.Wait()
	exact := 0
	for w, c := range counts {
		if errs[w] != nil {
			return 0, errs[w]
		}
		exact += c
	}
	return exact, nil
}

// batchSupport answers exact-support lookups for one SequentialScan batch.
// The sequential path is a single mining.Counter; the parallel path keeps
// one counter per worker over the same candidates, counts disjoint chunks
// of the scan, and sums per-worker supports — the totals are identical.
type batchSupport struct {
	counters []*mining.Counter
}

// Support returns the batch-wide exact support of a candidate.
func (b *batchSupport) Support(items []txdb.Item) int {
	sup := 0
	for _, c := range b.counters {
		sup += c.Support(items)
	}
	return sup
}

// countBatchParallel runs the verification pass for one batch with the scan
// as producer and the workers counting disjoint transaction chunks against
// per-worker counters.
func (m *Miner) countBatchParallel(candidates []Pattern, workers int) (*batchSupport, error) {
	counters := make([]*mining.Counter, workers)
	for w := range counters {
		counters[w] = mining.NewCounter()
		for _, c := range candidates {
			counters[w].Add(c.Items)
		}
	}

	chunks := make(chan []txdb.Transaction, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(counter *mining.Counter) {
			defer wg.Done()
			for chunk := range chunks {
				for _, tx := range chunk {
					counter.CountTransaction(tx.Items)
				}
			}
		}(counters[w])
	}

	chunk := make([]txdb.Transaction, 0, scanChunk)
	err := m.store.Scan(func(pos int, tx txdb.Transaction) bool {
		if m.idx.IsLive(pos) {
			chunk = append(chunk, tx)
			if len(chunk) == scanChunk {
				chunks <- chunk
				chunk = make([]txdb.Transaction, 0, scanChunk)
			}
		}
		return true
	})
	if len(chunk) > 0 {
		chunks <- chunk
	}
	close(chunks)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return &batchSupport{counters: counters}, nil
}
