package main

import (
	"runtime"
	"syscall"
	"time"

	"bbsmine"
)

// traceMine is a mine workload's traced run. Half the window runs rounds
// with tracing off, half with a registry attached to every mine and spans
// around every call; the difference between their round times is the
// tracing overhead. The layer replays follow, then the cost model: the
// traced DFP mine's work counters times the replays' unit costs, against
// that mine's wall time.
func traceMine(cfg runConfig) (*outcome, error) {
	var batches samples
	env, err := setupMine(cfg, &batches)
	if err != nil {
		return nil, err
	}
	defer env.close()
	m, err := newMineRun(env, cfg)
	if err != nil {
		return nil, err
	}
	m.round(0, false, false)

	half := 0 // the deadline alone ends each half
	if cfg.Size.MaxRounds > 0 {
		half = max(cfg.Size.MaxRounds/2, 1)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	next, _ := m.window(1, cfg.Seconds/4, half, false)
	runtime.ReadMemStats(&after)
	plain := m.rounds
	plainMines := 2 * len(plain)
	m.dfp, m.sfs, m.rounds = nil, nil, nil

	m.rec = newRecorder()
	m.window(next, cfg.Seconds/4, half, true)
	m.finalChecks(cfg.Workload)

	rep := report{}
	// The two schemes the rounds leave out, for the four-scheme row.
	var sfp, dfs samples
	for i := 0; i < 3; i++ {
		sfp.add(m.mine(bbsmine.SFP, true, 0, 0))
		dfs.add(m.mine(bbsmine.DFS, true, 0, 0))
	}
	rep.setTail("bbsmine.count_us_p90", m.count, 90, 1e3)
	rep.setMedian("core.mine_ms.DFP", m.dfp, 1e6)
	rep.setMedian("core.mine_ms.SFS", m.sfs, 1e6)
	rep.setMedian("core.mine_ms.SFP", sfp, 1e6)
	rep.setMedian("core.mine_ms.DFS", dfs, 1e6)
	if p := plain.median(); p > 0 {
		rep.setN("trace.overhead_pct", (m.rounds.median()-p)/p*100, len(m.rounds))
	}
	if plainMines > 0 {
		rep.set("proc.allocs_per_mine", float64(after.Mallocs-before.Mallocs)/float64(plainMines))
	}

	ts := env.db.TierStats()
	rep.set("pager.faults", float64(ts.Faults))
	rep.set("pager.hits", float64(ts.Hits))
	rep.set("pager.evictions", float64(ts.Evictions))
	rep.set("pager.hit_ratio", ts.HitRatio)
	rep.set("pager.resident_bytes", float64(ts.ResidentBytes))
	rep.set("sigfile.slices_hot", float64(ts.SlicesHot))
	rep.set("sigfile.slices_cold", float64(ts.SlicesCold))
	rep.set("sigfile.slice_bytes", float64(env.db.ResidentIndexBytes()))
	rep.set("sigfile.compression_ratio", float64(env.db.IndexBytes())/float64(max(env.db.ResidentIndexBytes()+ts.ColdBytes, 1)))
	rep.set("sigfile.set_compression_ms", float64(env.compressDur.Nanoseconds())/1e6)
	rep.set("sigfile.tier_ms", float64(env.tierDur.Nanoseconds())/1e6)

	if err := runReplays(cfg, m.rec, rep, env.txs, m.pool); err != nil {
		return nil, err
	}
	if dfp := m.traced[bbsmine.DFP]; len(dfp) > 0 {
		coreCounts(rep, dfp[0].ObserverMetrics, m.dfp.median(), dfp[0].Faults, dfp[0].Hits)
	}
	if sfs := m.traced[bbsmine.SFS]; len(sfs) > 0 {
		rep.set("core.phase_ms.scan_refine", float64(sfs[0].Phases["scan_refine"].Ns)/1e6)
	}
	if err := finishTrace(cfg, rep, m.rec); err != nil {
		return nil, err
	}
	return &outcome{Report: rep, Tally: m.tally}, nil
}

// finishTrace adds the rows every traced run ends with — the DFP mine against
// FP-growth and the process's own costs — and writes the span file.
func finishTrace(cfg runConfig, rep report, rec *recorder) error {
	if fp := rep.value("fptree.mine_ms"); fp > 0 {
		rep.set("core.dfp_over_fpgrowth", rep.value("core.mine_ms.DFP")/fp)
	}
	procMetrics(rep)
	return rec.write(cfg.SpanPath, cfg.Workload, cfg.Seed)
}

// coreCounts reports one traced DFP mine's work and funnel counters — they
// depend on the data alone, so every run of a seed and every storage policy
// must report the same ones — and what they explain of the mine's wall time.
func coreCounts(rep report, m bbsmine.ObserverMetrics, wallNs float64, faults, hits int64) {
	k, f := m.Kernel, m.Funnel
	rep.set("core.evals", float64(k.Evals))
	rep.set("core.slice_ands", float64(k.AndsSparse+k.AndsDense))
	rep.set("core.early_exits", float64(k.EarlyExits))
	rep.set("core.words_dense", float64(k.WordsDense))
	rep.set("core.words_sparse", float64(k.WordsSparse))
	rep.set("core.ands_enc_dense", float64(k.AndsEncDense))
	rep.set("core.ands_enc_sparse", float64(k.AndsEncSparse))
	rep.set("core.ands_enc_rle", float64(k.AndsEncRLE))
	rep.set("core.poscache_hit_ratio", ratio(k.PosCacheHits, k.PosCacheHits+k.PosCacheMisses))
	rep.set("core.candidates", float64(f.Candidates))
	rep.set("core.false_drops", float64(f.FalseDrops))
	rep.set("core.certified_ratio", ratio(f.CertifiedActual+f.CertifiedEst, f.Candidates))
	rep.set("bitvec.pool_miss_ratio", ratio(m.Cache.PoolMisses, m.Cache.PoolGets))
	rep.set("core.phase_ms.level1", float64(m.Phases["level1"].Ns)/1e6)
	rep.set("core.phase_ms.enumerate", float64(m.Phases["enumerate"].Ns)/1e6)
	if m.Index != nil {
		rep.set("sigfile.slices_dense", float64(m.Index.SlicesDense))
		rep.set("sigfile.slices_sparse", float64(m.Index.SlicesSparse))
		rep.set("sigfile.slices_rle", float64(m.Index.SlicesRLE))
	}
	var probes, pageReads int64
	if m.IO != nil {
		probes, pageReads = m.IO.Probes, m.IO.DBSeqPages+m.IO.DBRandPages
	}
	rep.set("core.probes", float64(probes))
	rep.set("txdb.page_reads", float64(pageReads))
	if k.Evals > 0 {
		rep.set("core.ns_per_eval", wallNs/float64(k.Evals))
	}
	if words := k.WordsDense + k.WordsSparse; words > 0 {
		rep.set("core.ns_per_word", wallNs/float64(words))
	}

	// The cost model. The word counters split ANDs by the accumulator's
	// kernel, the encoding counters by the source slice; a compressed or cold
	// source is charged per AND, and the word costs apply to the share of
	// ANDs whose source was dense. Cold ANDs are charged through the pool's
	// counters: at this scale a slice is one page, so a page request is an AND.
	ands := float64(k.AndsEncDense + k.AndsEncSparse + k.AndsEncRLE)
	if wallNs <= 0 || ands == 0 {
		return
	}
	denseShare := max(float64(k.AndsEncDense-faults-hits), 0) / ands
	explained := denseShare*(float64(k.WordsDense)*rep.value("bitvec.and_dense_ns_per_word")+
		float64(k.WordsSparse)*rep.value("bitvec.and_summarized_ns_per_word")) +
		float64(k.AndsEncSparse)*rep.value("bitvec.and_sparse_enc_ns_per_and") +
		float64(k.AndsEncRLE)*rep.value("bitvec.and_rle_enc_ns_per_and") +
		float64(faults)*rep.value("bitvec.and_cold_fault_ns_per_and") +
		float64(hits)*rep.value("bitvec.and_cold_hit_ns_per_and") +
		float64(probes)*rep.value("txdb.get_us")*1e3
	rep.set("core.residual_pct", (wallNs-explained)/wallNs*100)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// procMetrics reports the process's CPU time, GC pauses and peak RSS.
func procMetrics(rep report) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("proc.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		rep.set("proc.cpu_s", cpu.Seconds())
		rep.set("proc.rss_peak_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
}
