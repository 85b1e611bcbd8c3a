package main

// traceServe is serve-mixed's traced run: a quarter window against an engine
// with no registry, then a quarter window against a fresh engine with one —
// both walk the plan from its start, so the cold-mine latencies compare —
// with every reply's Server-Timing header parsed into stage timings and
// spans. The layer replays follow.
func traceServe(cfg runConfig) (*outcome, error) {
	quarter := cfg
	quarter.Seconds = cfg.Seconds / 4
	if cfg.Size.MaxRequests > 0 {
		quarter.Size.MaxRequests = max(cfg.Size.MaxRequests/2, 1)
	}

	plain, err := serveOnce(quarter, false, nil)
	if err != nil {
		return nil, err
	}
	plainReqs, _, _ := plain.led.result()
	plainMiss := latenciesOf(plainReqs).missAll

	rec := newRecorder()
	r, err := serveOnce(quarter, true, rec)
	if err != nil {
		return nil, err
	}
	stats := r.stats
	reqs, _, tally := r.led.result()
	l := latenciesOf(reqs)

	rep := report{}
	if p := plainMiss.median(); p > 0 {
		rep.setN("trace.overhead_pct", (l.missAll.median()-p)/p*100, len(l.missAll))
	}
	rep.setMedian("serve.read_miss_ms_p50", l.missAll, 1e6)
	rep.setTail("serve.read_ms_p90", l.reads, 90, 1e6)
	rep.setTail("serve.write_ms_p90", l.writes, 90, 1e6)
	rep.set("serve.cache_hit_ratio", stats.CacheHitRatio)
	rep.set("serve.shared_flights", float64(stats.SharedFlights))
	rep.set("serve.admission_rejected", float64(stats.AdmissionRejected))
	rep.set("sigfile.slice_bytes", float64(stats.IndexBytes))
	rep.set("sigfile.compression_ratio", 1)

	// Server-side stage medians over the requests that entered the stage, and
	// what the client saw on top of the server's own total.
	stage := make(map[string]samples)
	var overhead samples
	mineByShape := make(map[int]samples)
	for _, q := range reqs {
		for name, ms := range q.stages {
			stage[name] = append(stage[name], ms)
		}
		if total, ok := q.stages["total"]; ok {
			overhead = append(overhead, float64(q.took.Nanoseconds())/1e6-total)
		}
		if q.cold {
			mineByShape[q.shape] = append(mineByShape[q.shape], q.stages["mine"])
		}
	}
	for _, name := range []string{"queue", "cache", "bind", "mine", "render"} {
		rep.setMedian("serve.stage_ms_p50."+name, stage[name], 1)
	}
	rep.setMedian("serve.commit_ms_p50", stage["commit"], 1)
	rep.setMedian("serve.http_overhead_ms_p50", overhead, 1)
	for shape, s := range r.shapes {
		if s.TauFrac == cfg.Size.TauFrac && s.Constraint < 0 {
			rep.setMedian("core.mine_ms."+s.Scheme, mineByShape[shape], 1)
		}
	}

	pool := genCountPool(cfg.Seed, r.env.txs, cfg.Size.CountPool)
	if err := runReplays(cfg, rec, rep, r.env.txs, pool); err != nil {
		return nil, err
	}
	// The engine's registry sums every cold mine of the window, so on this
	// workload the core.* counts are totals and move with the window's length.
	m := r.env.reg.Metrics()
	coreCounts(rep, m, float64(m.Phases["mine"].Ns), 0, 0)
	rep.set("core.phase_ms.scan_refine", float64(m.Phases["scan_refine"].Ns)/1e6)
	if err := finishTrace(cfg, rep, rec); err != nil {
		return nil, err
	}
	return &outcome{Report: rep, Tally: tally}, nil
}

// serveOnce sets a server up, runs the workload against it and stops it.
func serveOnce(cfg runConfig, observe bool, rec *recorder) (*serveRun, error) {
	env, err := setupServe(cfg, observe)
	if err != nil {
		return nil, err
	}
	return serveOn(env, cfg, rec)
}
