package exp

// Machine-readable benchmark output for bbsbench -json: one record per BBS
// scheme over the default Quest workload, carrying the wall time, the work
// counters that the hot-path optimizations move (count calls, slice ANDs,
// probes) and the filter-and-refine funnel the paper's evaluation reports
// (candidates, certificates by flag, false drops). CI runs this once per
// push so the numbers stay honest, and checks the funnel against the
// paper's Corollary 1 ordering (DFP false drops ≤ SFS false drops).

import (
	"fmt"

	"bbsmine/internal/core"
	"bbsmine/internal/iostat"
	"bbsmine/internal/obs"
	"bbsmine/internal/pager"
	"bbsmine/internal/shard"
	"bbsmine/internal/txdb"
)

// BenchRecord is one scheme's measurement.
type BenchRecord struct {
	Scheme     string `json:"scheme"`
	Tau        int    `json:"tau"`
	WallNs     int64  `json:"wall_ns"`
	CountCalls int64  `json:"count_calls"`
	SliceAnds  int64  `json:"slice_ands"`
	Probes     int64  `json:"probes"`
	Patterns   int    `json:"patterns"`
	Shards     int    `json:"shards"` // index layout under measurement; the answer is identical for every value

	// The funnel, from the run's telemetry registry.
	Candidates      int64 `json:"candidates"`
	CertifiedActual int64 `json:"certified_actual"`
	CertifiedEst    int64 `json:"certified_est"`
	Uncertain       int64 `json:"uncertain"`
	FalseDrops      int64 `json:"false_drops"`
	ProbedPatterns  int64 `json:"probed_patterns"`

	// Kernel split: how much vector work the sparse mode saved.
	WordsSparse int64 `json:"words_sparse"`
	WordsDense  int64 `json:"words_dense"`
	EarlyExits  int64 `json:"early_exits"`

	// Storage shape of the mined index. SliceBytes is the resident slice
	// payload under the current encodings; CompressionRatio is the logical
	// (all-dense) footprint divided by SliceBytes, so 1.0 means dense and
	// bigger means smaller. The ands_enc_* trio splits the same slice ANDs
	// counted above by the source slice's encoding.
	Compress          bool    `json:"compress"`
	SliceBytes        int64   `json:"slice_bytes"`
	SliceLogicalBytes int64   `json:"slice_logical_bytes"`
	CompressionRatio  float64 `json:"compression_ratio"`
	AndsEncDense      int64   `json:"ands_enc_dense,omitempty"`
	AndsEncSparse     int64   `json:"ands_enc_sparse,omitempty"`
	AndsEncRLE        int64   `json:"ands_enc_rle,omitempty"`

	// Tiered-leg pool gauges (-mem-budget runs only): the byte budget, the
	// frame + hot-reservation bytes resident after the timed run, the
	// fault/hit/eviction traffic the run generated, and the hot/cold slice
	// census. Resident legs report all-zero.
	Tiered             bool    `json:"tiered,omitempty"`
	MemBudget          int64   `json:"mem_budget,omitempty"`
	PagerResidentBytes int64   `json:"pager_resident_bytes,omitempty"`
	PagerFaults        int64   `json:"pager_faults,omitempty"`
	PagerHits          int64   `json:"pager_hits,omitempty"`
	PagerEvictions     int64   `json:"pager_evictions,omitempty"`
	PagerHitRatio      float64 `json:"pager_hit_ratio,omitempty"`
	SlicesHot          int     `json:"slices_hot,omitempty"`
	SlicesCold         int     `json:"slices_cold,omitempty"`

	// Cumulative per-phase wall time, ns, keyed by phase name.
	PhaseNs map[string]int64 `json:"phase_ns,omitempty"`
}

// BenchJSON times the four BBS schemes over the params' workload and returns
// one record per scheme, in SFS/DFS/SFP/DFP order. Runs are observed: each
// record carries the scheme's funnel and kernel telemetry.
func BenchJSON(p Params) ([]BenchRecord, error) {
	txs, err := p.dataset(p.D, p.V, p.T)
	if err != nil {
		return nil, err
	}
	tau := p.Tau(len(txs))

	if p.Shards < 1 {
		p.Shards = 1
	}
	records := make([]BenchRecord, 0, 4)
	for _, name := range []string{"SFS", "DFS", "SFP", "DFP"} {
		met, err := runObserved(name, txs, tau, p)
		if err != nil {
			return nil, err
		}
		rec := BenchRecord{
			Scheme:            name,
			Tau:               tau,
			WallNs:            met.Wall.Nanoseconds(),
			CountCalls:        met.Snapshot.CountCalls,
			SliceAnds:         met.Snapshot.SliceAnds,
			Probes:            met.Snapshot.Probes,
			Patterns:          met.Patterns,
			Shards:            p.Shards,
			Compress:          met.Compressed,
			SliceBytes:        met.SliceResidentBytes,
			SliceLogicalBytes: met.SliceLogicalBytes,
		}
		if met.SliceResidentBytes > 0 {
			rec.CompressionRatio = float64(met.SliceLogicalBytes) / float64(met.SliceResidentBytes)
		}
		if met.Tiered {
			rec.Tiered = true
			rec.MemBudget = met.TierBudget
			rec.PagerResidentBytes = met.PagerResidentBytes
			rec.PagerFaults = met.PagerFaults
			rec.PagerHits = met.PagerHits
			rec.PagerEvictions = met.PagerEvictions
			rec.PagerHitRatio = met.PagerHitRatio
			rec.SlicesHot = met.SlicesHot
			rec.SlicesCold = met.SlicesCold
		}
		if o := met.Obs; o != nil {
			rec.Candidates = o.Funnel.Candidates
			rec.CertifiedActual = o.Funnel.CertifiedActual
			rec.CertifiedEst = o.Funnel.CertifiedEst
			rec.Uncertain = o.Funnel.Uncertain
			rec.FalseDrops = o.Funnel.FalseDrops
			rec.ProbedPatterns = o.Funnel.ProbedPatterns
			rec.WordsSparse = o.Kernel.WordsSparse
			rec.WordsDense = o.Kernel.WordsDense
			rec.EarlyExits = o.Kernel.EarlyExits
			rec.AndsEncDense = o.Kernel.AndsEncDense
			rec.AndsEncSparse = o.Kernel.AndsEncSparse
			rec.AndsEncRLE = o.Kernel.AndsEncRLE
			if len(o.Phases) > 0 {
				rec.PhaseNs = make(map[string]int64, len(o.Phases))
				for name, ph := range o.Phases {
					rec.PhaseNs[name] = ph.Ns
				}
			}
		}
		records = append(records, rec)
	}
	return records, nil
}

// runObserved mines one BBS scheme over an N-sharded in-memory database
// (N = 1: unsharded) read in place through its view, keeping the best of
// p.Repeat attempts, each under a fresh telemetry registry. Patterns and
// funnel are the same for every N; what changes is the layout under
// measurement (per-shard slices and ANDs, concatenated store).
func runObserved(name string, txs []txdb.Transaction, tau int, p Params) (Metrics, error) {
	scheme, ok := bbsScheme(name)
	if !ok {
		return Metrics{}, fmt.Errorf("exp: %q is not a BBS scheme", name)
	}
	var best Metrics
	for r := 0; r < max(p.Repeat, 1); r++ {
		var stats iostat.Stats
		sdb, err := buildDB(txs, p.M, p.K, p.Shards, &stats)
		if err != nil {
			return Metrics{}, err
		}
		if p.Compress {
			sdb.SetCompression(true)
		}
		var pg *pager.Pager
		if p.MemBudget > 0 {
			if pg, err = tierDB(sdb, &stats, scheme, tau, p); err != nil {
				return Metrics{}, err
			}
		}
		met, err := timeBBSMine(name, scheme, sdb, &stats, tau, 0, p.Workers, true, pg)
		if err != nil {
			return Metrics{}, err
		}
		if r == 0 || met.Total() < best.Total() {
			best = met
		}
	}
	return best, nil
}

// tierDB re-platforms a built bench database on a fresh buffer pool of
// p.MemBudget bytes, as a deployment would: a profiling mine (off the clock)
// collects per-slice AND participation, the shards are tiered — the hottest
// slices pinned inside half the budget, the rest in each shard's cold file
// under p.TierDir — and the store's page residency moves onto the same pool
// when the store supports it. Returns the pool for the timed run's gauges.
func tierDB(sdb *shard.DB, stats *iostat.Stats, scheme core.Scheme, tau int, p Params) (*pager.Pager, error) {
	if p.TierDir == "" {
		return nil, fmt.Errorf("exp: tiered run needs a scratch dir for cold files")
	}
	idx, store, err := sdb.Merged()
	if err != nil {
		return nil, err
	}
	miner, err := core.NewViewMiner(idx, store, stats)
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	if _, err := miner.Mine(core.Config{MinSupport: tau, Scheme: scheme, Workers: p.Workers, Observe: reg}); err != nil {
		return nil, fmt.Errorf("exp: tier profiling run: %w", err)
	}
	pg := pager.New(p.MemBudget)
	if err := sdb.Tier(pg, p.TierDir, p.MemBudget/2, reg.SliceTouches()); err != nil {
		return nil, err
	}
	// A concatenation of several stores deliberately stays off the pager (its
	// page numbering overlaps across parts), so the assertion failing is fine.
	if pb, ok := store.(txdb.PagerBacked); ok {
		pb.AttachPager(pg.Virtual("txdb"))
	}
	return pg, nil
}

// CheckCompression gates the compressed bench leg against its dense twin:
// for every scheme present in both sets, the mining answer and all the
// work counters the storage layer must not change — patterns, count calls,
// slice ANDs, probes, early exits and the whole funnel — have to match
// exactly, and each compressed record must reach minRatio bytes saved
// (logical / resident). A compressed run that drifts on any counter means
// a kernel produced different bits; a ratio below the floor means the
// adaptive encoder stopped earning its keep.
func CheckCompression(dense, compressed []BenchRecord, minRatio float64) error {
	denseBy := make(map[string]BenchRecord, len(dense))
	for _, r := range dense {
		denseBy[r.Scheme] = r
	}
	checked := 0
	for _, c := range compressed {
		d, ok := denseBy[c.Scheme]
		if !ok {
			continue
		}
		checked++
		type pair struct {
			name string
			d, c int64
		}
		for _, p := range []pair{
			{"tau", int64(d.Tau), int64(c.Tau)},
			{"patterns", int64(d.Patterns), int64(c.Patterns)},
			{"count_calls", d.CountCalls, c.CountCalls},
			{"slice_ands", d.SliceAnds, c.SliceAnds},
			{"probes", d.Probes, c.Probes},
			{"early_exits", d.EarlyExits, c.EarlyExits},
			{"candidates", d.Candidates, c.Candidates},
			{"certified_actual", d.CertifiedActual, c.CertifiedActual},
			{"certified_est", d.CertifiedEst, c.CertifiedEst},
			{"uncertain", d.Uncertain, c.Uncertain},
			{"false_drops", d.FalseDrops, c.FalseDrops},
			{"probed_patterns", d.ProbedPatterns, c.ProbedPatterns},
		} {
			if p.d != p.c {
				return fmt.Errorf("compressed %s diverged from dense: %s %d != %d",
					c.Scheme, p.name, p.c, p.d)
			}
		}
		if minRatio > 0 && c.CompressionRatio < minRatio {
			return fmt.Errorf("compressed %s ratio %.2fx below the %.2fx floor (resident %d of %d logical bytes)",
				c.Scheme, c.CompressionRatio, minRatio, c.SliceBytes, c.SliceLogicalBytes)
		}
	}
	if checked == 0 {
		return fmt.Errorf("compression check had no scheme in common between the dense and compressed records")
	}
	return nil
}

// CheckTiered gates the tiered bench leg against its resident twin: for
// every scheme present in both sets, the mining answer and all the work
// counters that storage must not change — patterns, count calls, slice
// ANDs, probes, early exits and the whole funnel — have to match exactly
// (tiering moves bytes, never bits), and each tiered record must show the
// machinery actually ran: cold slices in the census, fault traffic, and a
// non-zero hit ratio. With requireEvictions set, the pool must also have
// reclaimed frames — the budget was genuinely below the working set, not
// just below the slice total. A counter drifting means a cold kernel
// produced different bits; an idle pool means the leg measured the
// resident path with extra steps.
func CheckTiered(resident, tiered []BenchRecord, requireEvictions bool) error {
	residentBy := make(map[string]BenchRecord, len(resident))
	for _, r := range resident {
		residentBy[r.Scheme] = r
	}
	checked := 0
	for _, c := range tiered {
		d, ok := residentBy[c.Scheme]
		if !ok {
			continue
		}
		checked++
		type pair struct {
			name string
			d, c int64
		}
		for _, p := range []pair{
			{"tau", int64(d.Tau), int64(c.Tau)},
			{"patterns", int64(d.Patterns), int64(c.Patterns)},
			{"count_calls", d.CountCalls, c.CountCalls},
			{"slice_ands", d.SliceAnds, c.SliceAnds},
			{"probes", d.Probes, c.Probes},
			{"early_exits", d.EarlyExits, c.EarlyExits},
			{"candidates", d.Candidates, c.Candidates},
			{"certified_actual", d.CertifiedActual, c.CertifiedActual},
			{"certified_est", d.CertifiedEst, c.CertifiedEst},
			{"uncertain", d.Uncertain, c.Uncertain},
			{"false_drops", d.FalseDrops, c.FalseDrops},
			{"probed_patterns", d.ProbedPatterns, c.ProbedPatterns},
		} {
			if p.d != p.c {
				return fmt.Errorf("tiered %s diverged from resident: %s %d != %d",
					c.Scheme, p.name, p.c, p.d)
			}
		}
		if !c.Tiered {
			return fmt.Errorf("tiered leg %s carries no tier record (tiered=false)", c.Scheme)
		}
		if c.SlicesCold == 0 {
			return fmt.Errorf("tiered %s spilled no slices under a %d-byte budget; the cold tier is idle", c.Scheme, c.MemBudget)
		}
		if c.PagerFaults == 0 {
			return fmt.Errorf("tiered %s faulted no pages; the cold path never ran", c.Scheme)
		}
		if c.PagerHitRatio <= 0 {
			return fmt.Errorf("tiered %s pool hit ratio is 0 over %d faults; frames never re-served a page", c.Scheme, c.PagerFaults)
		}
		if requireEvictions && c.PagerEvictions == 0 {
			return fmt.Errorf("tiered %s evicted no frames; the budget never put the pool under pressure", c.Scheme)
		}
	}
	if checked == 0 {
		return fmt.Errorf("tiered check had no scheme in common between the resident and tiered records")
	}
	return nil
}

// CheckFunnel validates the paper's Corollary 1 ordering over a set of
// bench records: the dual filter never produces more false drops than the
// single filter, so DFP's false-drop count must not exceed SFS's (and
// DFS's must not exceed SFS's either). Returns nil when the invariant
// holds or the schemes are absent.
func CheckFunnel(records []BenchRecord) error {
	byScheme := make(map[string]BenchRecord, len(records))
	for _, r := range records {
		byScheme[r.Scheme] = r
	}
	sfs, okSFS := byScheme["SFS"]
	if !okSFS {
		return nil
	}
	for _, dual := range []string{"DFS", "DFP"} {
		d, ok := byScheme[dual]
		if !ok {
			continue
		}
		if d.FalseDrops > sfs.FalseDrops {
			return fmt.Errorf("funnel invariant violated (Corollary 1): %s false_drops=%d > SFS false_drops=%d",
				dual, d.FalseDrops, sfs.FalseDrops)
		}
	}
	return nil
}
