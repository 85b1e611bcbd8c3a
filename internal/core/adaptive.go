package core

import (
	"fmt"

	"bbsmine/internal/obs"
)

// mineAdaptive is the paper's three-phase filtering for memory-constrained
// systems (Section 3.1, "Adaptive Filtering"):
//
//  1. Preprocessing — fold the BBS into a MemBBS that fits the budget by
//     rehashing slice p onto slice p mod keep.
//  2. Filtering — run the configured filter against the MemBBS. Estimates
//     are coarser, so the candidate set is a larger superset, but the
//     no-false-miss property survives the fold, and so do the dual
//     filter's certificates (Lemma 5 holds against any sound estimate).
//  3. Postprocessing — one pass over the original BBS re-estimates every
//     still-uncertain candidate and prunes those below τ, before the normal
//     refinement runs on the survivors.
func (m *Miner) mineAdaptive(cfg Config) (*Result, error) {
	keep := int(cfg.MemoryBudget / m.idx.SliceBytes())
	// Sanity floor: a MemBBS narrower than a few times the signature
	// density has no pruning power — folded slices saturate, every estimate
	// approaches |D|, and filtering degenerates into enumerating the
	// powerset of the frequent items. The binding case is the *heaviest*
	// transaction, whose ~k·|items| positions can cover most of a narrow
	// fold and survive every itemset's AND, so the floor is 4× the largest
	// per-transaction signature footprint (and at least 4× the average).
	floor := 4 * m.idx.Hasher().K() * m.idx.MaxTransactionItems()
	if f := int(4*m.idx.AverageSignatureBits()) + 1; f > floor {
		floor = f
	}
	if keep < floor {
		keep = floor
	}
	if keep > m.idx.M() {
		keep = m.idx.M()
	}
	// The full index cannot stay resident under this budget: it is streamed
	// (once by the fold, once by the postprocessing pass) and evicted.
	m.idx.EvictCache()
	foldTick := cfg.Observe.Tick()
	memIdx, err := m.idx.Fold(keep)
	if err != nil {
		return nil, fmt.Errorf("core: building MemBBS: %w", err)
	}
	cfg.Observe.PhaseDone(obs.PhaseFold, foldTick)

	// Phase 2 runs two-phase style even for the probe schemes: candidates
	// found against the MemBBS must be re-checked against the real BBS
	// before any probing, otherwise the coarse estimates would trigger a
	// storm of random I/O — the exact situation the three-phase design
	// exists to avoid.
	phaseCfg := cfg
	phaseCfg.MemoryBudget = 0
	r := newRun(m, memIdx, phaseCfg)
	r.disableProbing = true
	r.filter()
	if r.err != nil {
		return nil, r.err
	}

	res := &Result{
		Candidates: r.candidates,
		Certain:    r.certain,
	}
	accepted := r.accepted

	// Phase 3: verify uncertain candidates against the full-resolution BBS —
	// the second (and last) pass over the original index. Probe schemes
	// refine each survivor immediately (holding one residual vector at a
	// time); scan schemes batch the survivors for sequential verification.
	m.idx.ChargeFullRead()
	reverifyTick := cfg.Observe.Tick()
	outs := r.reverify(r.uncertain)
	if r.err != nil {
		return nil, r.err
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	var survivors []Pattern
	for i, c := range r.uncertain {
		o := outs[i]
		switch {
		case o.est < cfg.MinSupport:
			traceReverify(cfg.Observe, c, o.est, "pruned")
		case !cfg.Scheme.probes():
			survivors = append(survivors, c)
			traceReverify(cfg.Observe, c, o.est, "survivor")
		case o.exact >= cfg.MinSupport:
			res.ProbedPatterns++
			accepted = append(accepted, Pattern{Items: c.Items, Support: o.exact, Exact: true})
			traceReverify(cfg.Observe, c, o.est, "accepted")
		default:
			res.ProbedPatterns++
			res.FalseDrops++
			m.stats.AddFalseDrop()
			traceReverify(cfg.Observe, c, o.est, "false_drop")
		}
	}
	cfg.Observe.PhaseDone(obs.PhaseReverify, reverifyTick)
	if len(survivors) > 0 {
		verified, drops, err := m.sequentialScan(survivors, cfg)
		if err != nil {
			return nil, err
		}
		res.FalseDrops += drops
		accepted = append(accepted, verified...)
	}

	res.Patterns = accepted
	sortPatterns(res.Patterns)
	r.publishFunnel(res)
	return res, nil
}

// traceReverify emits one adaptive phase-3 outcome.
func traceReverify(o *obs.Registry, c Pattern, est int, verdict string) {
	if !o.Tracing() {
		return
	}
	o.Emit(obs.Event{Kind: "reverify", Verdict: verdict, Subtree: -1,
		Depth: len(c.Items), Items: c.Items, Est: est})
}
