package core

import (
	"fmt"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/obs"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// DualFilter flags, per paper Fig. 3.
const (
	flagNonFrequent   = -1 // itemset is not frequent (exact knowledge)
	flagUncertain     = 0  // frequent per BBS estimate only
	flagCertainActual = 1  // frequent with 100% guarantee, count is actual
	flagCertainEst    = 2  // frequent with 100% guarantee, count is estimate
)

// run carries the state of one filtering pass. A run is single-goroutine:
// the parallel engine (parallel.go) gives every worker its own run via
// workerRun, sharing only the read-only fields (miner, index, config, the
// level-1 alphabet arrays) and the concurrency-safe vector pool.
type run struct {
	m   *Miner
	idx *sigfile.View // the index filtered against (the full BBS or a MemBBS)
	cfg Config
	tau int

	workers int          // resolved parallelism; 1 = the seed's sequential path
	vecs    *bitvec.Pool // residual-vector pool shared across workers

	// done caches cfg.Ctx.Done() so the cancellation poll on the hot paths
	// is one nil check plus (when serving) one channel select; nil when the
	// run is uncancellable. err latches the wrapped cancellation error, or
	// the first probe fetch that failed, and short-circuits the rest of the
	// enumeration.
	done <-chan struct{}
	err  error

	items []txdb.Item // level-1 est-survivors, ascending; the global alphabet
	est1  []int       // BBS estimate of each alphabet item's support
	act1  []int       // exact support of each alphabet item (dual filter info)

	// chain selects evalChain over evalSibling below level 1 (the
	// NoIncrementalAnd and NoEarlyExit ablations); pos is its position scratch.
	chain bool
	pos   []int

	// buf is the evaluation buffer. An extension that reaches τ takes it as
	// its residual and a fresh one comes from the pool.
	buf *bitvec.Vector
	// exts[d] is the extension buffer every node at depth d reuses (some 97%
	// of evaluations are filtered, so sizing one per node to its alphabet is
	// nearly all waste). A node's children read exts[d][si+1:] as their
	// alphabets while writing exts[d+1].
	exts [][]ext

	rootVec *bitvec.Vector // level-0 residual (all ones, or the constraint)
	rootEst int

	itemset []txdb.Item // current path

	// disableProbing makes the probe schemes collect uncertain candidates
	// instead of probing, which is how the adaptive three-phase mode runs
	// its filtering phase against the coarse MemBBS.
	disableProbing bool

	// inWorker marks worker clones; it disables the nested fan-out of
	// probeExact (a worker's probes run sequentially — the concurrency
	// already comes from the other workers).
	inWorker bool

	accepted  []Pattern
	uncertain []Pattern // two-phase schemes: needs refinement

	candidates     int
	falseDrops     int
	certain        int
	probedPatterns int

	// Telemetry. obs caches cfg.Observe so hot paths test one pointer; nil
	// means every telemetry line below is skipped. kern batches kernel
	// tallies in plain ints, flushed by flushKernel (end of the sequential
	// pass, or per worker). The funnel split mirrors the Result counters and
	// rides the same seq-ordered merge, so its totals are deterministic.
	// traceSubtree stamps emitted events with the enumeration seq of the
	// subtree being mined (-1 at the root).
	obs          *obs.Registry
	kern         obs.KernelSample
	certActual   int64 // dual filter flag 1 certificates
	certEst      int64 // dual filter flag 2 certificates
	uncertainCnt int64 // candidates deferred to refinement
	nonFreq      int64 // dual filter flag -1 prunes
	traceSubtree int

	// accs are the slice chain's accumulators, one part-length vector per
	// part of the index: the run's own for as long as it evaluates chains (a
	// run needs one set for its lifetime, so there is nothing to pool).
	accs []*bitvec.Vector
}

func newRun(m *Miner, idx *sigfile.View, cfg Config) *run {
	var done <-chan struct{}
	if cfg.Ctx != nil {
		done = cfg.Ctx.Done()
	}
	return &run{
		done:         done,
		m:            m,
		idx:          idx,
		cfg:          cfg,
		tau:          cfg.MinSupport,
		workers:      cfg.workerCount(),
		vecs:         bitvec.NewPool(idx.Len()),
		chain:        cfg.NoIncrementalAnd || cfg.NoEarlyExit,
		itemset:      make([]txdb.Item, 0, pathCap),
		obs:          cfg.Observe,
		traceSubtree: -1,
	}
}

// cancelled polls the run's cancellation signal. The first observed
// cancellation latches a wrapped Ctx.Err() into r.err; every subsequent
// call is then a single comparison. An uncancellable run pays one nil
// check.
func (r *run) cancelled() bool {
	if r.err != nil {
		return true
	}
	if r.done == nil {
		return false
	}
	select {
	case <-r.done:
		r.err = fmt.Errorf("core: mining cancelled: %w", r.cfg.Ctx.Err())
		return true
	default:
		return false
	}
}

// latch records err as the run's error unless one is already latched (nil
// latches nothing); from then on cancelled reports true and the enumeration
// unwinds.
func (r *run) latch(err error) {
	if r.err == nil {
		r.err = err
	}
}

// probeErr wraps a failed probe fetch. A transaction that cannot be read
// cannot be counted: counting it as a non-match would lower the exact
// support and prune a frequent subtree, so the run fails instead.
func probeErr(pos int, err error) error {
	return fmt.Errorf("core: probing transaction %d: %w", pos, err)
}

// flushKernel moves the batched kernel tallies into the registry in one
// atomic burst. Addition commutes, so flushing per worker instead of per
// evaluation keeps the totals deterministic while avoiding atomic traffic
// on the AND path.
func (r *run) flushKernel() {
	if r.obs == nil {
		return
	}
	r.obs.AddKernel(r.kern)
	r.kern = obs.KernelSample{}
}

// pathCap is the initial capacity of a run's itemset: evalChain and
// evaluateCandidate append the extension item past the path's length without
// keeping the result, which allocates only when the path has no room.
const pathCap = 16

// ext is one evaluated extension of the current itemset: an alphabet item
// whose estimated support with the itemset reached τ. Every ext stays in
// the sibling subtrees' alphabets (the paper's GenerateAndFilter removes an
// item from I only for its own subtree); exts that additionally survived
// the scheme's checks descend into subtrees of their own.
//
// vec is the extension's residual, parent ∧ slices(item). Every ext keeps
// one, descending or not — a dual-filter flag -1 or a failed probe stops the
// chain, but the item stays in its earlier siblings' alphabets, where the
// residual is the operand their subtrees AND against — until descend has
// passed it.
type ext struct {
	gi      int // index into run.items / est1 / act1
	est     int
	count   int // dual filter: the count CheckCount (or a probe) settled on
	flag    int
	vec     *bitvec.Vector
	descend bool
}

// root returns the level-0 residual vector — the live rows, optionally
// restricted by the constraint — and its count.
func (r *run) root() (*bitvec.Vector, int) {
	v := r.idx.NewResult()
	est := r.idx.Live()
	if r.cfg.Constraint != nil {
		est = v.AndCount(r.cfg.Constraint)
	}
	return v, est
}

// filter runs the filtering pass: a level-1 sweep over every item in the
// index establishes the global alphabet (items whose 1-itemset estimate
// reaches τ — by the monotonicity of slice intersection, Lemmas 3/4, no
// other item can occur in any candidate), then the depth-first enumeration
// of paper Figs. 2/4 proceeds over conditional alphabets: the extensions of
// an itemset are exactly its parent's surviving extensions, which is the
// same enumeration with the guaranteed-failing evaluations skipped.
//
// The sweep is the only place the enumeration reads the index. It keeps each
// survivor's residual R_i = root ∧ slices(i), and from there on an extension
// is evaluated against a sibling's residual (evalSibling): at a node with
// residual P, sibling j owns R_j = P ∧ slices(j) and child i has R_i ⊆ P, so
// R_i ∧ slices(j) = R_i ∧ P ∧ slices(j) = R_i ∧ R_j, bit for bit —
// CountItemSet's intersection from two resident vectors, whatever storage
// the slices themselves sit in.
//
// With workers > 1 the enumeration below level 1 fans out across the worker
// pool (filterParallel); the result is identical to the sequential pass.
func (r *run) filter() {
	sweepTick := r.obs.Tick()
	seeds := r.sweep()
	r.obs.PhaseDone(obs.PhaseLevel1, sweepTick)

	enumTick := r.obs.Tick()
	if r.err == nil {
		// The survivors are the root's extensions, already evaluated.
		for i := range seeds {
			r.evaluateCandidate(&seeds[i], r.rootEst, 0, flagCertainActual, 0)
		}
		if r.workers > 1 {
			r.filterParallel(seeds)
		} else {
			r.descend(seeds)
		}
	}
	// descend released what it passed; the parallel engine's root residuals
	// stayed shared operands to the end, a cancelled sweep's were never used.
	for i := range seeds {
		r.vecs.Put(seeds[i].vec)
	}
	r.vecs.Put(r.buf)
	r.buf, r.accs = nil, nil
	r.obs.PhaseDone(obs.PhaseEnumerate, enumTick)
	r.flushKernel()
}

// sweep is the level-1 pass: it evaluates every item of the index against
// the root, fills the alphabet arrays (items/est1/act1 — what CheckCount
// consults for I1 = {i} at any depth) and returns the survivors with their
// residuals: the root's extensions, evaluated but not yet admitted.
func (r *run) sweep() []ext {
	r.rootVec, r.rootEst = r.root()
	r.buf = r.vecs.Get()
	r.accs = r.idx.NewAccs()
	var seeds []ext
	for _, it := range r.idx.Items() { // ascending — the canonical level-1 order
		if r.cancelled() {
			break
		}
		est := r.evalChain(r.rootVec, r.rootEst, it)
		if est >= r.tau {
			seeds = append(seeds, ext{gi: len(r.items), est: est, vec: r.buf})
			r.buf = r.vecs.Get()
			r.items = append(r.items, it)
			r.est1 = append(r.est1, est)
			r.act1 = append(r.act1, r.idx.ExactCount(it))
		}
	}
	return seeds
}

// evalSibling computes est(r.itemset ∪ {j}) into r.buf as one AND of two
// resident residuals: parentVec, the current itemset's, and sib, the one the
// parent node left sibling j with (see filter for why that is the slice
// intersection) — one n-bit AND in the paper's cost model, charged as one.
// The verdict equals the slice chain's: a chain's partial counts are ≥ the
// full intersection's, so it ends below τ iff this count is below τ and
// completes with this count otherwise.
//
//lint:hotpath
func (r *run) evalSibling(parentVec, sib *bitvec.Vector) int {
	r.m.stats.AddCountCall()
	r.m.stats.AddSliceAnd()
	r.buf.CopyFrom(parentVec)
	if r.obs != nil {
		// One AND under the kernel the parent residual's mode selects; its
		// source, a sibling's residual, counts as the dense words it is.
		words, sparse := r.buf.WordStats()
		r.kern.CountAnd(words, sparse, int(bitvec.EncDense))
		r.kern.Evals++
		r.kern.PosCacheHits++
		r.obs.ObserveAndDepth(1)
	}
	return r.buf.AndCount(sib)
}

// evalChain is the slice-chain evaluator, the paper's CountItemSet as
// written: AND the slices the item's signature selects into a copy of the
// parent's residual, rarest first, and stop once the count falls below τ.
// The level-1 sweep evaluates with it, and so do the ablation knobs below
// level 1 — NoIncrementalAnd restarts from the root over every member's
// slices (the tests' oracle for evalSibling), NoEarlyExit runs each chain to
// its end, NoSliceOrdering keeps ascending position order.
//
// The chain reads the index's parts in place: the parent's residual is split
// into the per-part accumulators, each position is AND-ed into all of them
// before the next (the summed count is the single index's at every step, so
// the exit and the verdict are too), and a chain that reaches τ lays them
// into r.buf in block order; below τ the caller discards the evaluation.
func (r *run) evalChain(parentVec *bitvec.Vector, parentEst int, it txdb.Item) int {
	r.m.stats.AddCountCall()
	est, members := parentEst, append(r.itemset, it)
	if r.cfg.NoIncrementalAnd {
		parentVec, est = r.rootVec, r.rootEst
	} else {
		members = members[len(r.itemset):]
	}
	r.pos = sighash.AppendSignatureBits(r.pos[:0], r.idx.Hasher(), members)
	if !r.cfg.NoSliceOrdering {
		r.idx.OrderRarestFirst(r.pos)
	}
	r.idx.Split(r.accs, parentVec)
	done := 0
	for _, p := range r.pos {
		if r.obs != nil {
			r.idx.TallyAnd(&r.kern, r.accs, p)
		}
		est = r.idx.AndSlice(r.accs, p)
		done++
		if est < r.tau && !r.cfg.NoEarlyExit {
			break
		}
	}
	if r.obs != nil {
		r.kern.Evals++
		r.kern.PosCacheMisses++
		if done < len(r.pos) {
			r.kern.EarlyExits++
		}
		r.obs.ObserveAndDepth(int64(done))
	}
	if est >= r.tau {
		r.idx.Join(r.buf, r.accs)
	}
	return est
}

// node processes one itemset (the current r.itemset): evaluate every
// alphabet extension, record candidates per the scheme, then recurse into
// the extensions that survived, each seeing the later extensions as its
// alphabet (paper Figs. 2/4: I ← I − {i}, recurse on the remaining I). The
// alphabet is the later part of the parent node's extensions, residuals
// included.
func (r *run) node(alphabet []ext, parentVec *bitvec.Vector, parentEst, parentCount, parentFlag int) {
	if len(alphabet) == 0 || r.cancelled() {
		return
	}
	if r.cfg.MaxLen > 0 && len(r.itemset) >= r.cfg.MaxLen {
		return
	}
	r.descend(r.expandNode(alphabet, parentVec, parentEst, parentCount, parentFlag))
}

// descend recurses into the extensions that survived the scheme's checks, in
// order, and releases every extension's residual as it passes: by then the
// earlier siblings' subtrees — the only other readers — are done.
func (r *run) descend(exts []ext) {
	for si := range exts {
		e := &exts[si]
		if e.descend {
			r.itemset = append(r.itemset, r.items[e.gi])
			if r.obs.Tracing() {
				r.obs.Emit(obs.Event{Kind: "descend", Subtree: r.traceSubtree,
					Depth: len(r.itemset), Items: snapshot(r.itemset), Est: e.est})
			}
			r.node(exts[si+1:], e.vec, e.est, e.count, e.flag)
			r.itemset = r.itemset[:len(r.itemset)-1]
		}
		r.vecs.Put(e.vec)
		e.vec = nil
	}
}

// expandNode evaluates every alphabet extension of the current itemset and
// applies the scheme-specific candidate handling; it is the first half of
// node.
func (r *run) expandNode(alphabet []ext, parentVec *bitvec.Vector, parentEst, parentCount, parentFlag int) []ext {
	depth := len(r.itemset)
	for len(r.exts) <= depth {
		r.exts = append(r.exts, nil)
	}
	exts := r.exts[depth][:0]
	for i := range alphabet {
		sib := &alphabet[i]
		var est int
		if r.chain {
			est = r.evalChain(parentVec, parentEst, r.items[sib.gi])
		} else {
			est = r.evalSibling(parentVec, sib.vec)
		}
		if est < r.tau {
			if r.obs.Tracing() {
				r.obs.Emit(obs.Event{Kind: "verdict", Verdict: "below_tau", Subtree: r.traceSubtree,
					Depth: depth + 1, Items: append(snapshot(r.itemset), r.items[sib.gi]), Est: est})
			}
			continue // filtered out; gone from every subtree (monotonicity)
		}
		exts = append(exts, ext{gi: sib.gi, est: est, vec: r.buf})
		r.buf = r.vecs.Get()
		r.evaluateCandidate(&exts[len(exts)-1], parentEst, parentCount, parentFlag, depth)
	}
	r.exts[depth] = exts
	return exts
}

// evaluateCandidate records an extension that reached τ as a candidate
// (r.itemset ∪ alphabet item) and applies the scheme-specific handling,
// deciding acceptance and descent.
func (r *run) evaluateCandidate(e *ext, parentEst, parentCount, parentFlag, depth int) {
	r.candidates++
	r.m.stats.AddCandidate()
	itemset := append(r.itemset, r.items[e.gi])
	probing := r.cfg.Scheme.probes() && !r.disableProbing

	switch {
	case !r.cfg.Scheme.dualFilter() && !probing:
		// SFS: accept provisionally (estimate as support); SequentialScan
		// verifies later. The chain effect runs free.
		r.uncertain = append(r.uncertain, Pattern{Items: snapshot(itemset), Support: e.est})
		r.uncertainCnt++
		e.descend = true
		if r.obs.Tracing() {
			r.obs.Emit(obs.Event{Kind: "verdict", Verdict: "uncertain", Subtree: r.traceSubtree,
				Depth: len(itemset), Items: snapshot(itemset), Est: e.est})
		}

	case !r.cfg.Scheme.dualFilter():
		// SFP: probe immediately; a failed probe stops the chain here.
		exact := r.probeExact(e.vec, itemset)
		if exact >= r.tau {
			r.accepted = append(r.accepted, Pattern{Items: snapshot(itemset), Support: exact, Exact: true})
			e.descend = true
		} else {
			r.falseDrops++
			r.m.stats.AddFalseDrop()
		}
		r.traceVerdict(itemset, e.est, exact)

	default:
		// DFS / DFP: consult CheckCount (paper Fig. 3).
		flag, count := r.checkCount(e.gi, parentEst, parentCount, parentFlag, e.est, depth)
		e.flag, e.count = flag, count
		if r.obs.Tracing() {
			r.obs.Emit(obs.Event{Kind: "checkcount", Flag: obs.FlagName(flag), Subtree: r.traceSubtree,
				Depth: len(itemset), Items: snapshot(itemset), Est: e.est, Count: count})
		}
		switch {
		case flag == flagNonFrequent:
			// Exact knowledge: not frequent. The chain stops; the item
			// still appears in sibling alphabets, as in the paper.
			r.nonFreq++

		case flag == flagCertainActual || flag == flagCertainEst:
			r.certain++
			if flag == flagCertainActual {
				r.certActual++
			} else {
				r.certEst++
			}
			r.accepted = append(r.accepted, Pattern{
				Items:   snapshot(itemset),
				Support: count,
				Exact:   flag == flagCertainActual,
			})
			e.descend = true

		case probing:
			// DFP: probe the uncertain node now; its exact count re-enters
			// CheckCount for the whole subtree.
			exact := r.probeExact(e.vec, itemset)
			if exact >= r.tau {
				r.accepted = append(r.accepted, Pattern{Items: snapshot(itemset), Support: exact, Exact: true})
				e.flag, e.count = flagCertainActual, exact
				e.descend = true
			} else {
				r.falseDrops++
				r.m.stats.AddFalseDrop()
			}
			r.traceVerdict(itemset, e.est, exact)

		default:
			// DFS: keep as uncertain, refine later, but keep exploring.
			r.uncertain = append(r.uncertain, Pattern{Items: snapshot(itemset), Support: e.est})
			r.uncertainCnt++
			e.descend = true
		}
	}
	if e.descend {
		// This residual seeds a whole subtree of ANDs; if it has gone
		// sparse, pay one sweep now so they all run the sparse kernel.
		e.vec.MaybeSummarize(e.est)
	}
}

// traceVerdict emits the accepted/false_drop event for a probe-settled
// candidate.
func (r *run) traceVerdict(itemset []txdb.Item, est, exact int) {
	if !r.obs.Tracing() {
		return
	}
	verdict := "accepted"
	if exact < r.tau {
		verdict = "false_drop"
	}
	r.obs.Emit(obs.Event{Kind: "verdict", Verdict: verdict, Subtree: r.traceSubtree,
		Depth: len(itemset), Items: snapshot(itemset), Est: est, Exact: exact})
}

// checkCount implements algorithm CheckCount (paper Fig. 3) for
// I1 = {items[gi]} and I2 = the current itemset.
//
//	flag -1: itemset ∪ {i} is not frequent (exact)
//	flag  0: frequent per estimate, uncertain
//	flag  1: frequent with 100% guarantee, count is actual
//	flag  2: frequent with 100% guarantee, count is an estimate
func (r *run) checkCount(gi, parentEst, parentCount, parentFlag, childEst, depth int) (int, int) {
	est1, act1 := r.est1[gi], r.act1[gi]
	if depth == 0 { // I2 = NULL: exact 1-itemset knowledge decides alone.
		if act1 < r.tau {
			return flagNonFrequent, act1
		}
		return flagCertainActual, act1
	}
	if parentFlag == flagCertainActual {
		switch {
		case est1 == act1 && parentCount == parentEst:
			// Corollary 1: both sides exact ⇒ the union's estimate is exact.
			return flagCertainActual, childEst
		case est1 == act1 && childEst-(parentEst-parentCount) >= r.tau:
			// Lemma 5 lower bound with I1 exact.
			return flagCertainEst, childEst
		case parentEst == parentCount && childEst-(est1-act1) >= r.tau:
			// Lemma 5 lower bound with I2 exact.
			return flagCertainEst, childEst
		}
	}
	return flagUncertain, childEst
}

// probeExact fetches the transactions marked in vec and counts those that
// actually contain the itemset (algorithm Probe, Section 3.2). Outside the
// worker pool, a probe with enough surviving bits fans its fetches out
// across the configured workers; inside a worker it stays sequential (the
// concurrency already comes from the sibling subtrees).
func (r *run) probeExact(vec *bitvec.Vector, itemset []txdb.Item) int {
	r.probedPatterns++
	if r.workers > 1 && !r.inWorker && vec.CountUpTo(probeFanOutMin) >= probeFanOutMin {
		exact, err := probeParallel(r.m, vec, itemset, r.workers)
		r.latch(err)
		if r.obs.Tracing() {
			// probeParallel leaves vec untouched, so its popcount is the
			// fetch count; the sweep is tracing-only.
			r.obs.Emit(obs.Event{Kind: "probe", Subtree: r.traceSubtree, Depth: len(itemset),
				Items: snapshot(itemset), Fetched: vec.Count(), Exact: exact})
		}
		return exact
	}
	exact, fetched := 0, 0
	vec.ForEachSet(func(pos int) bool {
		// Poll cancellation between fetch batches so a probe over a dense
		// result vector cannot stall a cancelled request.
		if fetched&1023 == 1023 && r.cancelled() {
			return false
		}
		tx, err := r.m.store.Get(pos)
		r.m.stats.AddProbe()
		fetched++
		if err != nil {
			r.latch(probeErr(pos, err))
			return false
		}
		if tx.Contains(itemset) {
			exact++
		}
		return true
	})
	if r.obs.Tracing() {
		r.obs.Emit(obs.Event{Kind: "probe", Subtree: r.traceSubtree, Depth: len(itemset),
			Items: snapshot(itemset), Fetched: fetched, Exact: exact})
	}
	return exact
}

func snapshot(items []txdb.Item) []txdb.Item {
	return append([]txdb.Item(nil), items...)
}
