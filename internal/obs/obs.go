// Package obs is the mining telemetry layer: a race-safe registry of
// counters, histograms and phase timers, plus a sampled structured-event
// tracer (trace.go) and an expvar/Prometheus/pprof exposition surface
// (http.go).
//
// The design follows two rules the engine cannot bend:
//
//   - Zero cost when disabled. Every Registry method is safe on a nil
//     receiver and returns immediately, so an uninstrumented run pays one
//     predictable branch per hook site — no interface dispatch, no
//     allocation, no atomic traffic. The hot loops (sigfile.CountIntoBuf,
//     core.evalExtension) additionally batch their tallies in plain
//     per-goroutine integers and flush them to the registry in one atomic
//     burst per call or per subtree.
//
//   - Determinism preserved. The engine guarantees Workers:N == Workers:1
//     byte for byte; telemetry must not perturb that, and its own totals
//     must be deterministic too. Counters only ever accumulate sums over
//     the same work items regardless of scheduling (addition commutes), and
//     the funnel split is carried through the parallel engine's
//     subtreeResult merge, in enumeration (seq) order, exactly like the
//     Result counters. The TestParallelDeterminism suite runs with tracing
//     enabled to pin this.
//
// internal/core and internal/sigfile never call time.Now or expvar
// directly (the bbslint obsdiscipline analyzer enforces it): wall-clock
// intervals go through Tick/PhaseDone, whose Tick is zero — and therefore
// free — on a nil registry.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"bbsmine/internal/iostat"
)

// Phase identifies one timed stage of a mining run.
type Phase int

// The mining phases, in rough execution order. PhaseMine wraps the whole
// call; the others nest inside it (so their durations overlap PhaseMine's,
// not each other's).
const (
	PhaseMine       Phase = iota // the whole Mine call
	PhaseLevel1                  // level-1 sweep establishing the alphabet
	PhaseEnumerate               // depth-first candidate enumeration
	PhaseScanRefine              // SequentialScan verification
	PhaseFold                    // adaptive: folding the BBS into a MemBBS
	PhaseReverify                // adaptive: phase-3 re-estimation + probes
	numPhases
)

// String returns the snake_case phase name used in metric keys and traces.
func (p Phase) String() string {
	switch p {
	case PhaseMine:
		return "mine"
	case PhaseLevel1:
		return "level1"
	case PhaseEnumerate:
		return "enumerate"
	case PhaseScanRefine:
		return "scan_refine"
	case PhaseFold:
		return "fold"
	case PhaseReverify:
		return "reverify"
	default:
		return "unknown"
	}
}

// Tick marks the start of a timed interval. The zero Tick (what a nil
// registry hands out) is inert: PhaseDone ignores it, so instrumented code
// never branches on whether timing is on.
type Tick struct{ t time.Time }

// Funnel is one run's contribution to the filter-and-refine funnel, the
// paper's core accounting: candidates in at the top, certificates and false
// drops out at the bottom. Plain value struct; the engine accumulates one
// per run (merged across workers by seq) and hands it to Registry.AddFunnel
// in a single call.
type Funnel struct {
	Candidates      int64 // itemsets whose estimate reached τ
	CertifiedActual int64 // dual filter flag 1: certain, count exact
	CertifiedEst    int64 // dual filter flag 2: certain via Lemma 5 bound
	Uncertain       int64 // flag 0 (or single filter): needs refinement
	Level1Skipped   int64 // dual filter: items whose exact count is below τ, never ANDed (Fig. 3's flag -1)
	ProbedPatterns  int64 // candidates settled by probing
	FalseDrops      int64 // candidates refinement found infrequent
	Verified        int64 // patterns in the answer with exact supports
	Patterns        int64 // patterns in the final answer
}

// Add accumulates g into f.
func (f *Funnel) Add(g Funnel) {
	f.Candidates += g.Candidates
	f.CertifiedActual += g.CertifiedActual
	f.CertifiedEst += g.CertifiedEst
	f.Uncertain += g.Uncertain
	f.Level1Skipped += g.Level1Skipped
	f.ProbedPatterns += g.ProbedPatterns
	f.FalseDrops += g.FalseDrops
	f.Verified += g.Verified
	f.Patterns += g.Patterns
}

// KernelSample is a batch of AND-kernel tallies, accumulated in plain
// integers on the hot path and flushed to the registry in one AddKernel
// call. Evals counts itemset evaluations (one per CountItemSet-equivalent);
// the words/ANDs split tracks which kernel ran and how much of the vector
// it actually visited.
//
// A mine evaluates in two ways and both report here. A slice chain
// (sigfile.CountIntoBuf, and in core the level-1 sweep and the ablation
// knobs) ANDs index slices into an accumulator: one Ands{Sparse,Dense} and
// one AndsEnc* tally per slice AND-ed, an EarlyExit when the chain stopped
// short. Below level 1 core evaluates an extension as one AND of two resident
// residuals: one Eval, one AND tallied under the kernel the parent residual's
// mode selects (its nonzero words when summarized, all its words otherwise),
// its source counted as dense words — the sibling's residual is exactly that
// — and never an EarlyExit, there being no chain to leave. None of this
// depends on how the index stores its slices, so a resident, a compressed
// and a tiered index report the same Evals, ANDs, EarlyExits and position
// split for the same data; only the AndsEnc* split of the slice chains
// follows the storage.
type KernelSample struct {
	Evals       int64 // itemset evaluations (AND loops started)
	EarlyExits  int64 // slice chains cut short below τ (or at zero)
	AndsSparse  int64 // ANDs run by the summary-guided kernel
	AndsDense   int64 // ANDs run by the dense unrolled kernel
	WordsSparse int64 // backing words visited by sparse ANDs
	WordsDense  int64 // backing words visited by dense ANDs

	// The position split: where an evaluation's operands came from. A hit
	// needed no slice positions at all — the operand was a sibling's residual,
	// cached by the parent node; a miss derived the item's positions from the
	// hasher and read the index's slices. Hits + misses = core's Evals.
	PosCacheHits   int64 // evaluations against a cached sibling residual
	PosCacheMisses int64 // evaluations that consulted the hasher and the index

	// Per-encoding split of the same ANDs along the *storage* axis: which
	// representation the source was in (the Ands{Sparse,Dense} pair above
	// splits by the accumulator's kernel instead). On an uncompressed index
	// AndsEncDense equals AndsSparse+AndsDense and AndsEncSparse is zero.
	AndsEncDense  int64 // ANDs whose source was dense words (a slice or a residual)
	AndsEncSparse int64 // ANDs over a sorted position-list slice
}

func (k *KernelSample) add(g KernelSample) {
	k.Evals += g.Evals
	k.EarlyExits += g.EarlyExits
	k.AndsSparse += g.AndsSparse
	k.AndsDense += g.AndsDense
	k.WordsSparse += g.WordsSparse
	k.WordsDense += g.WordsDense
	k.PosCacheHits += g.PosCacheHits
	k.PosCacheMisses += g.PosCacheMisses
	k.AndsEncDense += g.AndsEncDense
	k.AndsEncSparse += g.AndsEncSparse
}

// CountEncoding tallies one AND against the source slice's encoding tag
// (bitvec.Encoding values: 0 dense, 1 sparse; 2 is the retired run-length
// tag, which no slice carries). Taking the raw tag keeps obs free of a
// bitvec import.
func (k *KernelSample) CountEncoding(enc int) {
	if enc == 1 {
		k.AndsEncSparse++
	} else {
		k.AndsEncDense++
	}
}

// CountAnd tallies one AND about to run: sparse says which kernel the
// accumulator's mode selects (bitvec.Vector.WordStats), words how many
// backing words that kernel visits, enc the source's encoding tag.
func (k *KernelSample) CountAnd(words int, sparse bool, enc int) {
	if sparse {
		k.AndsSparse++
		k.WordsSparse += int64(words)
	} else {
		k.AndsDense++
		k.WordsDense += int64(words)
	}
	k.CountEncoding(enc)
}

// FunnelStats holds the registry's funnel counters.
type FunnelStats struct {
	candidates      atomic.Int64
	certifiedActual atomic.Int64
	certifiedEst    atomic.Int64
	uncertain       atomic.Int64
	level1Skipped   atomic.Int64
	probedPatterns  atomic.Int64
	falseDrops      atomic.Int64
	verified        atomic.Int64
	patterns        atomic.Int64
	scanBatches     atomic.Int64
	scanTx          atomic.Int64
	scanMatches     atomic.Int64
}

// KernelStats holds the registry's AND-kernel counters.
type KernelStats struct {
	evals          atomic.Int64
	earlyExits     atomic.Int64
	andsSparse     atomic.Int64
	andsDense      atomic.Int64
	wordsSparse    atomic.Int64
	wordsDense     atomic.Int64
	posCacheHits   atomic.Int64
	posCacheMisses atomic.Int64
	andsEncDense   atomic.Int64
	andsEncSparse  atomic.Int64
}

// IndexStats holds the index-storage gauges: the logical (all-dense) slice
// footprint, the resident footprint under the current encodings, and the
// per-encoding slice census. Gauges, not counters — each publish overwrites.
type IndexStats struct {
	sliceLogicalBytes  atomic.Int64
	sliceResidentBytes atomic.Int64
	slicesDense        atomic.Int64
	slicesSparse       atomic.Int64
}

// CacheStats holds the registry's pool/cache counters.
type CacheStats struct {
	poolGets   atomic.Int64
	poolMisses atomic.Int64
}

// sliceTouchTally tallies per-slice AND participation: counts[p] is how
// many AND chains slice p was selected into. The tiered storage ranks
// slices by these counts to pick the pinned hot tier, so the counters are
// per-registry, not global, and reset with it. One lock per evaluation —
// the same batch granularity as AddKernel — keeps the hot path off
// per-slice atomics. (Mutex-guarded rather than atomic, unlike the *Stats
// structs: the counts array reallocates as it grows.)
type sliceTouchTally struct {
	mu     sync.Mutex
	counts []uint64 // guarded by mu
}

// PhaseStats holds cumulative wall time and call counts per phase.
type PhaseStats struct {
	ns    [numPhases]atomic.Int64
	calls [numPhases]atomic.Int64
}

// Registry accumulates one or more mining runs' telemetry. The zero value
// is ready to use; a nil *Registry is the disabled state and every method
// no-ops on it. A Registry may be shared by concurrent goroutines of one
// run and — except for SetTracer/BindIO, which must happen before the run —
// by concurrent runs.
type Registry struct {
	funnel     FunnelStats
	kernel     KernelStats
	index      IndexStats
	cache      CacheStats
	phases     PhaseStats
	server     ServerStats
	shards     shardStats
	stageHists stageStats // serving SLO histograms (stage.go)

	mineLatency HistStats // whole-Mine wall time, ns
	andDepth    HistStats // slice positions AND-ed per evaluation
	batchSize   HistStats // operations per committed write batch

	io          *iostat.Stats       // optional: folded into Metrics snapshots
	tracer      *Tracer             // optional: sampled structured events
	touches     sliceTouchTally     // per-slice AND participation (tiering input)
	pagerSource func() PagerMetrics // optional: buffer-pool gauges (SetPagerSource)
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// BindIO attaches an iostat sink whose page/probe counters are folded into
// every Metrics snapshot. Call before the run; not synchronized.
func (r *Registry) BindIO(s *iostat.Stats) {
	if r == nil {
		return
	}
	r.io = s
}

// Tick starts a timed interval; free (zero) on a nil registry.
func (r *Registry) Tick() Tick {
	if r == nil {
		return Tick{}
	}
	return Tick{t: time.Now()}
}

// PhaseDone records the interval from at to now under the phase. A zero
// Tick — from a nil registry, or a registry attached mid-run — is ignored.
func (r *Registry) PhaseDone(p Phase, at Tick) {
	if r == nil || at.t.IsZero() {
		return
	}
	d := time.Since(at.t).Nanoseconds()
	r.phases.ns[p].Add(d)
	r.phases.calls[p].Add(1)
	if p == PhaseMine {
		r.mineLatency.Observe(d)
	}
	r.Emit(Event{Kind: "phase", Phase: p.String(), DurNs: d})
}

// AddFunnel folds one run's funnel accounting into the registry.
func (r *Registry) AddFunnel(f Funnel) {
	if r == nil {
		return
	}
	r.funnel.candidates.Add(f.Candidates)
	r.funnel.certifiedActual.Add(f.CertifiedActual)
	r.funnel.certifiedEst.Add(f.CertifiedEst)
	r.funnel.uncertain.Add(f.Uncertain)
	r.funnel.level1Skipped.Add(f.Level1Skipped)
	r.funnel.probedPatterns.Add(f.ProbedPatterns)
	r.funnel.falseDrops.Add(f.FalseDrops)
	r.funnel.verified.Add(f.Verified)
	r.funnel.patterns.Add(f.Patterns)
}

// AddKernel flushes a batch of kernel tallies.
func (r *Registry) AddKernel(k KernelSample) {
	if r == nil {
		return
	}
	r.kernel.evals.Add(k.Evals)
	r.kernel.earlyExits.Add(k.EarlyExits)
	r.kernel.andsSparse.Add(k.AndsSparse)
	r.kernel.andsDense.Add(k.AndsDense)
	r.kernel.wordsSparse.Add(k.WordsSparse)
	r.kernel.wordsDense.Add(k.WordsDense)
	r.kernel.posCacheHits.Add(k.PosCacheHits)
	r.kernel.posCacheMisses.Add(k.PosCacheMisses)
	r.kernel.andsEncDense.Add(k.AndsEncDense)
	r.kernel.andsEncSparse.Add(k.AndsEncSparse)
}

// SetIndexStorage publishes the index's storage gauges: logical is the
// all-dense slice footprint in bytes, resident the bytes actually held under
// the current encodings, and dense/sparse the per-encoding slice census.
// Call whenever the storage shape changes (attach, SetCompression, Fold);
// each call overwrites the previous gauge values.
func (r *Registry) SetIndexStorage(logical, resident int64, dense, sparse int) {
	if r == nil {
		return
	}
	r.index.sliceLogicalBytes.Store(logical)
	r.index.sliceResidentBytes.Store(resident)
	r.index.slicesDense.Store(int64(dense))
	r.index.slicesSparse.Store(int64(sparse))
}

// ObserveChain records one finished slice chain (sigfile's CountIntoBuf): k
// carries the per-AND tallies, pos the slice positions the chain selected and
// done how many of them it AND-ed before stopping. Every selected slice
// counts as touched, whether or not the early exit cut the ANDs short — the
// selection is what the hot tier wants to predict.
func (r *Registry) ObserveChain(k KernelSample, pos []int, done int) {
	k.Evals = 1
	if done < len(pos) {
		k.EarlyExits = 1
	}
	r.TouchSlices(pos)
	r.AddKernel(k)
	r.ObserveAndDepth(int64(done))
}

// ObserveAndDepth records how many slice positions one evaluation AND-ed
// before returning (early exit included).
func (r *Registry) ObserveAndDepth(n int64) {
	if r == nil {
		return
	}
	r.andDepth.Observe(n)
}

// AddPool records vector-pool traffic: gets handed out, of which misses
// were fresh allocations.
func (r *Registry) AddPool(gets, misses int64) {
	if r == nil {
		return
	}
	r.cache.poolGets.Add(gets)
	r.cache.poolMisses.Add(misses)
}

// AddScanBatch records one SequentialScan verification batch: tx
// transactions scanned, matches candidate hits counted.
func (r *Registry) AddScanBatch(tx, matches int64) {
	if r == nil {
		return
	}
	r.funnel.scanBatches.Add(1)
	r.funnel.scanTx.Add(tx)
	r.funnel.scanMatches.Add(matches)
}

// TouchSlices records one evaluation's AND-chain membership: each slice
// position in pos participated in one chain. One lock per evaluation (the
// AddKernel batch granularity); the counts array grows lazily to the
// highest position seen.
func (r *Registry) TouchSlices(pos []int) {
	if r == nil || len(pos) == 0 {
		return
	}
	r.touches.mu.Lock()
	for _, p := range pos {
		if p >= len(r.touches.counts) {
			grown := make([]uint64, p+1)
			copy(grown, r.touches.counts)
			r.touches.counts = grown
		}
		r.touches.counts[p]++
	}
	r.touches.mu.Unlock()
}

// SliceTouches returns a copy of the per-slice AND-participation counts
// (index = slice position). Nil when nothing was recorded. The tiering
// pass ranks slices by these to choose the pinned hot tier.
func (r *Registry) SliceTouches() []uint64 {
	if r == nil {
		return nil
	}
	r.touches.mu.Lock()
	defer r.touches.mu.Unlock()
	if len(r.touches.counts) == 0 {
		return nil
	}
	out := make([]uint64, len(r.touches.counts))
	copy(out, r.touches.counts)
	return out
}

// SetPagerSource registers a provider of buffer-pool gauges, folded into
// every Metrics snapshot once set. The provider pattern (like BindIO)
// keeps obs free of a pager import; call before the run, not synchronized.
func (r *Registry) SetPagerSource(fn func() PagerMetrics) {
	if r == nil {
		return
	}
	r.pagerSource = fn
}

// FunnelMetrics is the funnel section of a Metrics snapshot.
type FunnelMetrics struct {
	Candidates      int64 `json:"candidates"`
	CertifiedActual int64 `json:"certified_actual"`
	CertifiedEst    int64 `json:"certified_est"`
	Uncertain       int64 `json:"uncertain"`
	Level1Skipped   int64 `json:"level1_skipped"`
	ProbedPatterns  int64 `json:"probed_patterns"`
	FalseDrops      int64 `json:"false_drops"`
	Verified        int64 `json:"verified"`
	Patterns        int64 `json:"patterns"`
	ScanBatches     int64 `json:"scan_batches"`
	ScanTx          int64 `json:"scan_tx"`
	ScanMatches     int64 `json:"scan_matches"`
}

// KernelMetrics is the AND-kernel section of a Metrics snapshot.
type KernelMetrics struct {
	Evals          int64 `json:"evals"`
	EarlyExits     int64 `json:"early_exits"`
	AndsSparse     int64 `json:"ands_sparse"`
	AndsDense      int64 `json:"ands_dense"`
	WordsSparse    int64 `json:"words_sparse"`
	WordsDense     int64 `json:"words_dense"`
	PosCacheHits   int64 `json:"pos_cache_hits"`
	PosCacheMisses int64 `json:"pos_cache_misses"`
	AndsEncDense   int64 `json:"ands_enc_dense"`
	AndsEncSparse  int64 `json:"ands_enc_sparse"`
	// AndsEncRLE is always zero: run-length slices are retired. The field
	// stays because bbsperf (bench/) still reads it.
	AndsEncRLE int64 `json:"ands_enc_rle"`
}

// IndexMetrics is the index-storage section of a Metrics snapshot. Present
// only once SetIndexStorage has published gauges.
type IndexMetrics struct {
	SliceLogicalBytes  int64 `json:"slice_logical_bytes"`
	SliceResidentBytes int64 `json:"slice_resident_bytes"`
	SlicesDense        int64 `json:"slices_dense"`
	SlicesSparse       int64 `json:"slices_sparse"`
	// SlicesRLE is always zero: run-length slices are retired. The field
	// stays because bbsperf (bench/) still reads it.
	SlicesRLE int64 `json:"slices_rle"`
}

// CacheMetrics is the pool section of a Metrics snapshot.
type CacheMetrics struct {
	PoolGets   int64 `json:"pool_gets"`
	PoolMisses int64 `json:"pool_misses"`
}

// PhaseMetrics is one phase's cumulative timing.
type PhaseMetrics struct {
	Ns    int64 `json:"ns"`
	Calls int64 `json:"calls"`
}

// IOMetrics mirrors iostat.Snapshot with metric-friendly key names.
type IOMetrics struct {
	DBSeqPages     int64 `json:"db_seq_pages"`
	DBRandPages    int64 `json:"db_rand_pages"`
	DBScans        int64 `json:"db_scans"`
	Probes         int64 `json:"probes"`
	SlicePageReads int64 `json:"slice_page_reads"`
	SliceAnds      int64 `json:"slice_ands"`
	CountCalls     int64 `json:"count_calls"`
	Candidates     int64 `json:"candidates"`
	FalseDrops     int64 `json:"false_drops"`

	PageCacheHits      int64 `json:"page_cache_hits"`
	PageCacheEvictions int64 `json:"page_cache_evictions"`
	PageCacheResident  int64 `json:"page_cache_resident"`
}

// PagerMetrics is the buffer-pool section of a Metrics snapshot — and the
// value the SetPagerSource provider returns, so the pool's gauges are
// defined once here (obs stays free of a pager import). Present only when
// a pager source is registered (tiered storage on).
type PagerMetrics struct {
	ResidentBytes int64   `json:"resident_bytes"`
	ReservedBytes int64   `json:"reserved_bytes"`
	Faults        int64   `json:"faults"`
	Hits          int64   `json:"hits"`
	Evictions     int64   `json:"evictions"`
	HitRatio      float64 `json:"hit_ratio"`
	SlicesHot     int64   `json:"slices_hot"`
	SlicesCold    int64   `json:"slices_cold"`
}

// Metrics is a point-in-time snapshot of everything the registry holds,
// shaped for JSON (and, flattened, for the Prometheus text exposition).
type Metrics struct {
	Funnel      FunnelMetrics           `json:"funnel"`
	Kernel      KernelMetrics           `json:"kernel"`
	Index       *IndexMetrics           `json:"index,omitempty"`
	Cache       CacheMetrics            `json:"cache"`
	Phases      map[string]PhaseMetrics `json:"phases,omitempty"`
	MineLatency HistMetrics             `json:"mine_latency_ns"`
	AndDepth    HistMetrics             `json:"and_depth"`
	Server      *ServerMetrics          `json:"server,omitempty"`
	IO          *IOMetrics              `json:"io,omitempty"`
	Pager       *PagerMetrics           `json:"pager,omitempty"`
	Trace       *TraceMetrics           `json:"trace,omitempty"`
}

// Metrics returns a snapshot of the registry. Safe during a run; each
// counter is read atomically (the set is not one consistent cut, which is
// fine for monitoring — read after the run for exact totals).
func (r *Registry) Metrics() Metrics {
	if r == nil {
		return Metrics{}
	}
	m := Metrics{
		Funnel: FunnelMetrics{
			Candidates:      r.funnel.candidates.Load(),
			CertifiedActual: r.funnel.certifiedActual.Load(),
			CertifiedEst:    r.funnel.certifiedEst.Load(),
			Uncertain:       r.funnel.uncertain.Load(),
			Level1Skipped:   r.funnel.level1Skipped.Load(),
			ProbedPatterns:  r.funnel.probedPatterns.Load(),
			FalseDrops:      r.funnel.falseDrops.Load(),
			Verified:        r.funnel.verified.Load(),
			Patterns:        r.funnel.patterns.Load(),
			ScanBatches:     r.funnel.scanBatches.Load(),
			ScanTx:          r.funnel.scanTx.Load(),
			ScanMatches:     r.funnel.scanMatches.Load(),
		},
		Kernel: KernelMetrics{
			Evals:          r.kernel.evals.Load(),
			EarlyExits:     r.kernel.earlyExits.Load(),
			AndsSparse:     r.kernel.andsSparse.Load(),
			AndsDense:      r.kernel.andsDense.Load(),
			WordsSparse:    r.kernel.wordsSparse.Load(),
			WordsDense:     r.kernel.wordsDense.Load(),
			PosCacheHits:   r.kernel.posCacheHits.Load(),
			PosCacheMisses: r.kernel.posCacheMisses.Load(),
			AndsEncDense:   r.kernel.andsEncDense.Load(),
			AndsEncSparse:  r.kernel.andsEncSparse.Load(),
		},
		Cache: CacheMetrics{
			PoolGets:   r.cache.poolGets.Load(),
			PoolMisses: r.cache.poolMisses.Load(),
		},
		MineLatency: r.mineLatency.Metrics(),
		AndDepth:    r.andDepth.Metrics(),
		Server:      r.serverMetrics(),
	}
	if logical := r.index.sliceLogicalBytes.Load(); logical > 0 {
		m.Index = &IndexMetrics{
			SliceLogicalBytes:  logical,
			SliceResidentBytes: r.index.sliceResidentBytes.Load(),
			SlicesDense:        r.index.slicesDense.Load(),
			SlicesSparse:       r.index.slicesSparse.Load(),
		}
	}
	for p := Phase(0); p < numPhases; p++ {
		calls := r.phases.calls[p].Load()
		if calls == 0 {
			continue
		}
		if m.Phases == nil {
			m.Phases = make(map[string]PhaseMetrics, int(numPhases))
		}
		m.Phases[p.String()] = PhaseMetrics{Ns: r.phases.ns[p].Load(), Calls: calls}
	}
	if r.io != nil {
		s := r.io.Snapshot()
		m.IO = &IOMetrics{
			DBSeqPages:     s.DBSeqPages,
			DBRandPages:    s.DBRandPages,
			DBScans:        s.DBScans,
			Probes:         s.Probes,
			SlicePageReads: s.SlicePageReads,
			SliceAnds:      s.SliceAnds,
			CountCalls:     s.CountCalls,
			Candidates:     s.Candidates,
			FalseDrops:     s.FalseDrops,

			PageCacheHits:      s.PageCacheHits,
			PageCacheEvictions: s.PageCacheEvictions,
			PageCacheResident:  s.PageCacheResident,
		}
	}
	if src := r.pagerSource; src != nil {
		pm := src()
		m.Pager = &pm
	}
	if t := r.tracer; t != nil {
		tm := t.metrics()
		m.Trace = &tm
	}
	return m
}
