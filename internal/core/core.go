// Package core implements the paper's contribution: the four filter-and-
// refine frequent-pattern mining algorithms built on the BBS index.
//
//   - SFS — SingleFilter + SequentialScan (two distinct phases)
//   - SFP — SingleFilter + Probe (phases integrated)
//   - DFS — DualFilter + SequentialScan (two distinct phases)
//   - DFP — DualFilter + Probe (phases integrated; the paper's winner)
//
// Filtering enumerates itemsets depth-first over the item order (paper
// Fig. 2/4), estimating supports with CountItemSet on the BBS. Items whose
// level-1 estimate is below τ are excluded from the item order up front: by
// the monotonicity of slice intersection (Lemma 3/4), no superset can reach
// τ, so the pruning is semantics-preserving. That level-1 sweep is the only
// time a mine reads the index: it keeps each survivor's residual (the root ∧
// the item's slices), and below it an extension is evaluated as one AND of
// two resident residuals — the current itemset's and the one the extension
// item was left with as a sibling at the parent node — the same slice
// intersection bit for bit (see run.filter). The tests check every
// evaluation against the slice chain that Count and the adaptive
// re-verification run (sigfile.View.CountIntoBuf).
//
// The index is a sigfile.View: one part, or the N shards of a sharded
// database read in place. Only the slice chain sees the parts; everything it
// leaves behind is a block-order vector.
//
// The dual filter tracks a (flag, count) pair per itemset, per the paper's
// CheckCount (Fig. 3), certifying most candidates as frequent — often with
// exact counts — without touching the database.
//
// Refinement removes false drops: SequentialScan verifies candidates in
// batches with full database passes; Probe fetches only the transactions
// whose bits survive the slice intersection. The probe-based schemes
// integrate refinement into filtering, stopping chains of false drops
// early; when a probe answers a DualFilter-uncertain node, its exact count
// re-enters the CheckCount machinery, which is why DFP probes so rarely.
//
// # Concurrency model
//
// Mining runs on a bounded worker pool sized by Config.Workers (default:
// one worker per CPU). The enumeration fans out at the root — every
// surviving level-1 extension's subtree is an independent task, since a
// subtree depends only on its own residual vector and the read-only level-1
// alphabet — and so do the probes (fetches split by position range) and the
// adaptive re-verification (candidates shared over a queue). The level-1
// sweep and SequentialScan stay on the calling goroutine: a scan batch is
// one pass counted by one mining.Counter. Workers share nothing mutable
// except the concurrency-safe vector pool and the atomic iostat counters;
// the root's residuals are shared read-only operands, and each worker keeps
// a private evaluation buffer and extension buffers so the AND hot path
// stays allocation-free.
//
// The engine is deterministic: partial results merge in the sequential
// enumeration order and every Result counter is a sum over independent
// subtrees, so a run with Workers: N returns a Result identical — byte for
// byte — to the same run with Workers: 1, for all four schemes. A Miner
// serves one Mine call at a time; the parallelism is inside the call, not
// across calls.
package core

import (
	"context"
	"fmt"
	"sort"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/iostat"
	"bbsmine/internal/mining"
	"bbsmine/internal/obs"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/txdb"
)

// Scheme selects one of the paper's four algorithms.
type Scheme int

// The four filter-and-refine algorithms of Section 3.3.
const (
	SFS Scheme = iota // SingleFilter + SequentialScan
	SFP               // SingleFilter + Probe
	DFS               // DualFilter + SequentialScan
	DFP               // DualFilter + Probe
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case SFS:
		return "SFS"
	case SFP:
		return "SFP"
	case DFS:
		return "DFS"
	case DFP:
		return "DFP"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// dualFilter reports whether the scheme runs the dual filter.
func (s Scheme) dualFilter() bool { return s == DFS || s == DFP }

// probes reports whether the scheme refines by probing.
func (s Scheme) probes() bool { return s == SFP || s == DFP }

// Config controls one mining run.
type Config struct {
	// Ctx, when non-nil, cancels the run: the enumeration, refinement and
	// verification loops poll it at their batch boundaries and Mine returns
	// an error wrapping Ctx.Err(). A server uses this to bound per-request
	// work; nil (the default) never cancels and costs nothing on the hot
	// path.
	Ctx context.Context
	// MinSupport is the absolute support threshold τ (count, not fraction).
	MinSupport int
	// Scheme selects the algorithm; the zero value is SFS.
	Scheme Scheme
	// MemoryBudget, when positive and smaller than the BBS, triggers the
	// paper's adaptive three-phase filtering (fold the BBS into a
	// memory-resident MemBBS, filter there, verify against the full BBS).
	// It also batches SequentialScan refinement.
	MemoryBudget int64
	// Constraint optionally restricts mining to the transactions whose bit
	// is set (paper Section 3.4). Only the single-filter schemes support
	// constrained mining: the dual filter's exact 1-itemset counts are
	// unconstrained and its certificates would be unsound.
	Constraint *bitvec.Vector
	// MaxLen bounds pattern length; 0 means unbounded.
	MaxLen int
	// Workers bounds the worker pool that mines the level-1 subtrees,
	// fans out large probes and re-verifies adaptive candidates. 0 (the
	// default) uses one worker per available CPU (runtime.GOMAXPROCS(0));
	// 1 forces the sequential engine. The level-1 sweep and SequentialScan
	// run on one goroutine whatever the value. The Result is identical for
	// every value — see the package documentation's determinism guarantee.
	Workers int

	// Observe, when non-nil, receives the run's telemetry: the
	// filter-and-refine funnel, AND-kernel work, phase timings, cache hit
	// rates and (if a tracer is attached) sampled structured events. Nil
	// disables observability entirely; every hook site then costs one
	// predictable branch. Telemetry never changes the Result — the
	// determinism tests run with it on.
	Observe *obs.Registry
}

// Pattern is one mined itemset. Support is exact when Exact is true;
// otherwise it is the BBS estimate, which never undercounts (Lemma 4) —
// this happens only for DualFilter patterns certified via the Lemma 5
// lower bound (flag 2).
type Pattern struct {
	Items   []txdb.Item
	Support int
	Exact   bool
}

// Result is the outcome of a mining run, with the bookkeeping the paper's
// evaluation reports.
type Result struct {
	// Patterns is the final answer set in canonical order.
	Patterns []Pattern
	// Candidates is the number of itemsets that passed filtering.
	Candidates int
	// FalseDrops is the number of candidates refinement found infrequent.
	FalseDrops int
	// Certain is the number of patterns the dual filter certified without
	// refinement (flag 1 or 2) — the paper's "80–90% of the candidate
	// frequent patterns can be determined without probing the database".
	Certain int
	// ProbedPatterns is the number of candidate itemsets verified by
	// probing.
	ProbedPatterns int
}

// FalseDropRatio returns FDR = false drops / |frequent patterns| (paper
// Section 4), or 0 when nothing was mined.
func (r *Result) FalseDropRatio() float64 {
	if len(r.Patterns) == 0 {
		return 0
	}
	return float64(r.FalseDrops) / float64(len(r.Patterns))
}

// Frequents converts the result to the shared mining representation.
func (r *Result) Frequents() []mining.Frequent {
	out := make([]mining.Frequent, len(r.Patterns))
	for i, p := range r.Patterns {
		out[i] = mining.Frequent{Items: p.Items, Support: p.Support}
	}
	return out
}

// Miner binds a BBS index to its backing transaction store. The index's
// ordinal positions must correspond to the store's: position i of the view's
// block order is transaction i of the store.
type Miner struct {
	idx   *sigfile.View
	store txdb.Store
	stats *iostat.Stats
}

// NewMiner returns a miner over one index and its store: a view of one part.
// A nil stats falls back to the index's sink.
func NewMiner(idx *sigfile.BBS, store txdb.Store, stats *iostat.Stats) (*Miner, error) {
	v, err := sigfile.NewView([]*sigfile.BBS{idx})
	if err != nil {
		return nil, err
	}
	return NewViewMiner(v, store, stats)
}

// NewViewMiner returns a miner over a view and the store in the view's block
// order (txdb.Concat of the parts' stores). A nil stats falls back to the
// view's sink.
func NewViewMiner(idx *sigfile.View, store txdb.Store, stats *iostat.Stats) (*Miner, error) {
	if idx.Len() != store.Len() {
		return nil, fmt.Errorf("core: index covers %d transactions, store has %d", idx.Len(), store.Len())
	}
	if stats == nil {
		stats = idx.Stats()
	}
	return &Miner{idx: idx, store: store, stats: stats}, nil
}

// Index returns the view the miner reads.
func (m *Miner) Index() *sigfile.View { return m.idx }

// Store returns the underlying transaction store.
func (m *Miner) Store() txdb.Store { return m.store }

// Stats returns the accounting sink.
func (m *Miner) Stats() *iostat.Stats { return m.stats }

// ctxErr polls the run's context without blocking: nil while the run may
// continue, a wrapped Ctx.Err() once it is cancelled. The cold paths call
// this directly; the enumeration uses the cached Done channel in run.
func (c Config) ctxErr() error {
	if c.Ctx == nil {
		return nil
	}
	select {
	case <-c.Ctx.Done():
		return fmt.Errorf("core: mining cancelled: %w", c.Ctx.Err())
	default:
		return nil
	}
}

// Mine runs the configured scheme and returns the frequent patterns.
func (m *Miner) Mine(cfg Config) (*Result, error) {
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	if cfg.MinSupport <= 0 {
		return nil, fmt.Errorf("core: MinSupport must be positive, got %d", cfg.MinSupport)
	}
	if cfg.Constraint != nil {
		if cfg.Scheme.dualFilter() {
			return nil, fmt.Errorf("core: constrained mining requires a single-filter scheme (SFS or SFP), got %s", cfg.Scheme)
		}
		if cfg.Constraint.Len() != m.idx.Len() {
			return nil, fmt.Errorf("core: constraint length %d != index length %d", cfg.Constraint.Len(), m.idx.Len())
		}
	}
	// Propagate the memory budget into the store's buffer-cache model and
	// reset residency, so each run's probe accounting starts cold.
	if limiter, ok := m.store.(txdb.CacheLimiter); ok {
		limiter.SetCacheLimit(cfg.MemoryBudget)
	}
	// Attach telemetry to the index for the duration of the run, so the
	// bulk estimate paths (adaptive phase 3, fold) account themselves.
	if cfg.Observe != nil {
		m.idx.SetObserver(cfg.Observe)
		defer m.idx.SetObserver(nil)
	}
	mineTick := cfg.Observe.Tick()
	var res *Result
	var err error
	if cfg.MemoryBudget > 0 && m.idx.TotalBytes() > cfg.MemoryBudget {
		res, err = m.mineAdaptive(cfg)
	} else {
		res, err = m.mineResident(cfg, m.idx)
	}
	cfg.Observe.PhaseDone(obs.PhaseMine, mineTick)
	return res, err
}

// mineResident runs filtering (and, for the probe schemes, integrated
// refinement) against a memory-resident index, then refines leftovers.
func (m *Miner) mineResident(cfg Config, idx *sigfile.View) (*Result, error) {
	// Fault the index into the buffer pool (cold pages only — a persistent
	// index stays resident across mining sessions); every slice AND
	// afterwards is an in-memory bitwise operation.
	idx.ChargeColdRead()
	r := newRun(m, idx, cfg)
	r.filter()
	if r.err != nil {
		return nil, r.err
	}

	res := &Result{
		Candidates:     r.candidates,
		FalseDrops:     r.falseDrops,
		Certain:        r.certain,
		ProbedPatterns: r.probedPatterns,
	}

	// Two-phase schemes verify their uncertain candidates now.
	if !cfg.Scheme.probes() && len(r.uncertain) > 0 {
		verified, drops, err := m.sequentialScan(r.uncertain, cfg)
		if err != nil {
			return nil, err
		}
		res.FalseDrops += drops
		r.accepted = append(r.accepted, verified...)
	}
	res.Patterns = r.accepted
	sortPatterns(res.Patterns)
	r.publishFunnel(res)
	return res, nil
}

// publishFunnel folds the finished run's accounting into the telemetry
// registry: the funnel split carried through the (seq-ordered) merge, plus
// pool traffic. Called once per run, after the Result is final, so the
// totals are deterministic regardless of worker count.
func (r *run) publishFunnel(res *Result) {
	o := r.cfg.Observe
	if o == nil {
		return
	}
	verified := int64(0)
	for i := range res.Patterns {
		if res.Patterns[i].Exact {
			verified++
		}
	}
	o.AddFunnel(obs.Funnel{
		Candidates:      int64(res.Candidates),
		CertifiedActual: r.certActual,
		CertifiedEst:    r.certEst,
		Uncertain:       r.uncertainCnt,
		Level1Skipped:   r.skipped,
		ProbedPatterns:  int64(res.ProbedPatterns),
		FalseDrops:      int64(res.FalseDrops),
		Verified:        verified,
		Patterns:        int64(len(res.Patterns)),
	})
	gets, misses := r.vecs.Counters()
	o.AddPool(gets, misses)
}

// sortPatterns puts patterns into canonical (length, lexicographic) order.
func sortPatterns(ps []Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if len(a.Items) != len(b.Items) {
			return len(a.Items) < len(b.Items)
		}
		for k := range a.Items {
			if a.Items[k] != b.Items[k] {
				return a.Items[k] < b.Items[k]
			}
		}
		return false
	})
}
