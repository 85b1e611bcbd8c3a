// Command bbsd serves a BBS index over HTTP: a long-lived daemon with
// snapshot-isolated mining queries, batched writes and an epoch-keyed
// query cache.
//
// Start it on a database directory (created if missing; the index and the
// transaction log persist there):
//
//	bbsd -db dataset/ -addr 127.0.0.1:8344
//
// -shards N serves the database as N horizontal shards, each with its own
// index, data file and commit loop; writes to different shards commit
// concurrently and queries mine the shards in place, with answers identical
// to an unsharded server. Opening a flat directory with -shards N migrates
// it in place; once sharded, the directory remembers its count.
//
// Endpoints:
//
//	POST /mine   {"scheme":"DFP","minsup":0.003}            → frequent patterns
//	POST /txns   {"insert":[[3,17,29]],"delete":[12]}        → batched writes
//	GET  /stats                                              → snapshot summary
//	GET  /metrics, /debug/vars, /debug/pprof/*               → observability
//
// SIGINT/SIGTERM drain gracefully: the listener stops, in-flight requests
// finish, queued writes commit, the data file syncs and the index saves.
//
// Every request is traceable: bbsd accepts (or mints) an X-Request-ID,
// echoes it, and reports the request's stage decomposition in a
// Server-Timing header. -reqlog FILE writes one JSON line per request
// (id, class, verdict, epoch vector, per-stage ns); -trace FILE writes
// sampled trace events — the mining kinds plus request, apply and commit —
// sharing the request ID, so one slow request reconstructs end to end
// across the shards. Per-class and per-stage latency histograms with
// p50/p95/p99/p99.9 appear on /metrics, and /stats reports cache hit
// ratio, single-flight joins, admission rejections and queue depth.
//
// -bench skips serving: it seeds the paper's default dataset into a
// scratch directory, measures cold-versus-cached /mine latency over real
// HTTP and appends the records to -bench-out. With -shards N it also
// measures the sharded server: /txns write throughput into N commit loops
// plus cold and cached /mine latency over the shards.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"bbsmine/internal/exp"
	"bbsmine/internal/iostat"
	"bbsmine/internal/obs"
	"bbsmine/internal/serve"
	"bbsmine/internal/serve/client"
	"bbsmine/internal/shard"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

const dataFile = "transactions.txdb"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bbsd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bbsd", flag.ContinueOnError)
	var (
		dir    = fs.String("db", "", "database directory (required unless -bench; created if missing)")
		m      = fs.Int("m", 1600, "signature bits for a new index")
		k      = fs.Int("k", 4, "hash functions per item for a new index")
		shards = fs.Int("shards", 0, "shard the database N ways (0 = whatever the directory already is; migrates a flat directory in place)")
		addr   = fs.String("addr", "127.0.0.1:8344", "listen address")

		compress = fs.Bool("compress", false, "adaptive per-slice compression (dense/sparse); answers are byte-identical, the index just gets smaller")

		workers     = fs.Int("workers", 0, "default mining worker pool per query (0 = one per CPU)")
		cacheN      = fs.Int("cache", 128, "query cache capacity in results")
		maxInflight = fs.Int("max-inflight", 2, "concurrent cold mines")
		maxQueue    = fs.Int("max-queue", 8, "cold mines allowed to queue before rejection")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-mine deadline (0 = unbounded)")
		pageCache   = fs.Int64("page-cache", 64<<20, "data-file page cache bound in bytes (superseded by -mem-budget)")
		memBudget   = fs.Int64("mem-budget", 0, "tier the served index to this byte budget: hot slices stay pinned, cold slices fault from per-shard cold files, and slice frames plus data-file pages share one pool (0 = fully resident)")

		reqlogPath = fs.String("reqlog", "", "write one JSON line per served request (id, class, verdict, stage timings) to this file")
		tracePath  = fs.String("trace", "", "write sampled trace events (mining + request/apply/commit) to this file")
		traceEvery = fs.Int("trace-every", 1, "keep every N-th trace event")

		bench       = fs.Bool("bench", false, "run the server benchmark instead of serving")
		benchOut    = fs.String("bench-out", "BENCH_results.json", "append server bench records to this file")
		benchScale  = fs.Float64("bench-scale", 1.0, "scale factor on the bench dataset size")
		benchCached = fs.Int("bench-cached", 20, "cached-query repetitions in -bench")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *bench {
		return runBench(*benchOut, *benchScale, *benchCached, *workers, *shards, *compress)
	}
	if *dir == "" {
		return fmt.Errorf("-db is required")
	}

	// The request log and trace sinks outlive the engine: their files are
	// opened (and deferred closed) before openEngine so the engine's own
	// deferred cleanup — which still writes final commit events during the
	// drain — runs first.
	opts := serve.Options{
		Workers:        *workers,
		CacheEntries:   *cacheN,
		MaxInFlight:    *maxInflight,
		MaxQueue:       *maxQueue,
		RequestTimeout: *timeout,
		PageCacheLimit: *pageCache,
		MemBudget:      *memBudget,
		ColdDir:        *dir, // cold files are derived data; they live beside the index
	}
	if *reqlogPath != "" {
		f, err := os.Create(*reqlogPath)
		if err != nil {
			return fmt.Errorf("opening request log: %w", err)
		}
		defer f.Close()
		opts.RequestLog = obs.NewRequestLog(f)
	}
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("opening trace file: %w", err)
		}
		defer f.Close()
		traceFile = f
	}

	engine, reg, cleanup, err := openEngine(*dir, *m, *k, *shards, *compress, opts)
	if err != nil {
		return err
	}
	defer cleanup()
	if traceFile != nil {
		reg.SetTracer(obs.NewTracer(traceFile, *traceEvery))
	}
	reg.Publish("bbsd")

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}
	srv := &http.Server{Handler: engine.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if serveErr := srv.Serve(ln); serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
			errCh <- serveErr
			return
		}
		errCh <- nil
	}()
	info := engine.Stats()
	fmt.Fprintf(os.Stderr, "bbsd: serving %d transactions in %d shard(s) on http://%s\n", info.Transactions, info.Shards, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		// Graceful drain: stop the listener, let in-flight requests finish,
		// then flush the engine (queued writes commit, file syncs, index
		// saves).
		fmt.Fprintln(os.Stderr, "bbsd: draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "bbsd: shutdown:", err)
		}
		if err := engine.Close(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "bbsd: stopped")
		return nil
	case err := <-errCh:
		closeErr := engine.Close()
		if err != nil {
			return err
		}
		return closeErr
	}
}

// openEngine opens (or creates) the database directory through the shard
// layer — the same layout and recovery path the bbsmine library uses,
// including the flat-to-sharded migration when -shards asks for one — and
// wires a serving engine over its parts: each shard's index, data file and
// an in-memory append log loaded from it. The returned cleanup closes what
// engine.Close does not own (the data files).
func openEngine(dir string, m, k, shards int, compress bool, opts serve.Options) (*serve.Engine, *obs.Registry, func(), error) {
	stats := &iostat.Stats{}
	sdb, err := shard.Open(dir, m, k, shards, stats)
	if err != nil {
		return nil, nil, nil, err
	}
	if compress {
		// Re-encode whatever the directory held before serving starts; the
		// commit loops then append under the chosen encodings (with the
		// hysteresis promotion as shards densify).
		sdb.SetCompression(true)
	}
	fail := func(err error) (*serve.Engine, *obs.Registry, func(), error) {
		_ = sdb.Close()
		return nil, nil, nil, err
	}
	parts := make([]serve.ShardOptions, sdb.Shards())
	for s := range parts {
		file := sdb.File(s)
		log, err := txdb.LoadAppendLog(file, stats)
		if err != nil {
			return fail(fmt.Errorf("loading shard %d's log: %w", s, err))
		}
		parts[s] = serve.ShardOptions{
			Index:     sdb.Index().Part(s),
			Log:       log,
			File:      file,
			IndexPath: sdb.IndexPath(s),
		}
	}
	reg := obs.New()
	opts.Shards = parts
	opts.Observe = reg
	engine, err := serve.New(opts)
	if err != nil {
		return fail(err)
	}
	cleanup := func() {
		if err := sdb.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bbsd: closing data files:", err)
		}
	}
	return engine, reg, cleanup, nil
}

// serverBenchRecord is one server-side measurement appended to the bench
// JSON next to the per-scheme records; the scheme name is namespaced so
// the funnel checks ignore it.
type serverBenchRecord struct {
	Scheme    string  `json:"scheme"`
	Tau       int     `json:"tau"`
	WallNs    int64   `json:"wall_ns"`
	P50Ns     int64   `json:"p50_ns,omitempty"`
	P99Ns     int64   `json:"p99_ns,omitempty"`
	Patterns  int     `json:"patterns"`
	Epoch     uint64  `json:"epoch"`
	Shards    int     `json:"shards,omitempty"`
	Ops       int     `json:"ops,omitempty"`
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	Speedup   float64 `json:"-"` // emitted by MarshalJSON only when meaningful
}

// MarshalJSON keeps Speedup out of the cold record (it is meaningful only
// on the cached one).
func (r serverBenchRecord) MarshalJSON() ([]byte, error) {
	type plain serverBenchRecord
	if r.Speedup == 0 {
		return json.Marshal(struct {
			plain
			Speedup *float64 `json:"speedup,omitempty"`
		}{plain: plain(r)})
	}
	return json.Marshal(struct {
		plain
		Speedup float64 `json:"speedup"`
	}{plain: plain(r), Speedup: r.Speedup})
}

// mineLatencies runs one cold /mine and cachedReps cached hits, returning
// the cold response plus the cold and cached-percentile latencies.
func mineLatencies(ctx context.Context, c *client.Client, req serve.QueryRequest, cachedReps int) (cold *serve.QueryResponse, coldNs, p50, p99 int64, err error) {
	start := time.Now()
	cold, err = c.Mine(ctx, req)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("cold mine: %w", err)
	}
	coldNs = time.Since(start).Nanoseconds()
	if cold.Cached {
		return nil, 0, 0, 0, fmt.Errorf("first bench query was served from cache")
	}
	lat := make([]int64, 0, cachedReps)
	for i := 0; i < cachedReps; i++ {
		s := time.Now()
		hit, err := c.Mine(ctx, req)
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("cached mine %d: %w", i, err)
		}
		if !hit.Cached {
			return nil, 0, 0, 0, fmt.Errorf("cached mine %d missed the cache", i)
		}
		lat = append(lat, time.Since(s).Nanoseconds())
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return cold, coldNs, lat[len(lat)/2], lat[(len(lat)*99)/100], nil
}

// runBench seeds the paper's default dataset into a scratch database,
// serves it on a loopback port and measures one cold /mine followed by
// repeated cached hits, all over real HTTP. With shards > 1 it then raises
// a sharded server, measures /txns write throughput into the N commit
// loops, re-measures /mine over the shards and checks the sharded
// answer byte-identical to the unsharded one.
func runBench(out string, scale float64, cachedReps, workers, shards int, compress bool) error {
	p := exp.Defaults(scale)
	txs, err := p.Dataset()
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "bbsd-bench-")
	if err != nil {
		return fmt.Errorf("creating scratch dir: %w", err)
	}
	defer func() { _ = os.RemoveAll(dir) }()

	stats := &iostat.Stats{}
	file, err := txdb.WriteAll(filepath.Join(dir, dataFile), stats, txs)
	if err != nil {
		return err
	}
	index := sigfile.New(sighash.NewMD5(p.M, p.K), stats)
	for _, tx := range txs {
		index.Insert(tx.Items)
	}
	if compress {
		index.SetCompression(true)
	}
	log, err := txdb.LoadAppendLog(file, stats)
	if err != nil {
		_ = file.Close()
		return err
	}
	reg := obs.New()
	engine, err := serve.New(serve.Options{
		Index:   index,
		Log:     log,
		File:    file,
		Workers: workers,
		Observe: reg,
	})
	if err != nil {
		_ = file.Close()
		return err
	}
	defer func() { _ = file.Close() }()
	defer func() { _ = engine.Close() }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("bench listen: %w", err)
	}
	srv := &http.Server{Handler: engine.Handler()}
	go func() { _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()

	c := client.New("http://" + ln.Addr().String())
	ctx := context.Background()
	req := serve.QueryRequest{Scheme: "DFP", MinSupportFrac: p.TauFrac}

	cold, coldNs, p50, p99, err := mineLatencies(ctx, c, req, cachedReps)
	if err != nil {
		return err
	}
	coldPatterns, err := cold.DecodePatterns()
	if err != nil {
		return fmt.Errorf("cold mine: %w", err)
	}

	records := []serverBenchRecord{
		{Scheme: "DFP-server-cold", Tau: cold.Tau, WallNs: coldNs, Patterns: len(coldPatterns), Epoch: cold.Epoch},
		{Scheme: "DFP-server-cached", Tau: cold.Tau, WallNs: p50, P50Ns: p50, P99Ns: p99,
			Patterns: len(coldPatterns), Epoch: cold.Epoch, Speedup: float64(coldNs) / float64(p50)},
	}
	fmt.Printf("bbsd bench: D=%d τ=%d patterns=%d cold=%.2fms cached p50=%.3fms p99=%.3fms speedup=%.0fx\n",
		len(txs), cold.Tau, len(coldPatterns),
		float64(coldNs)/1e6, float64(p50)/1e6, float64(p99)/1e6, float64(coldNs)/float64(p50))
	if coldNs < 10*p50 {
		fmt.Fprintf(os.Stderr, "bbsd: warning: cached speedup %.1fx is below the 10x target\n", float64(coldNs)/float64(p50))
	}

	if shards > 1 {
		srecs, err := benchSharded(ctx, p, txs, workers, shards, cachedReps, compress, cold.Patterns)
		if err != nil {
			return err
		}
		records = append(records, srecs...)
	}
	return appendBenchRecords(out, records)
}

// benchSharded raises an N-shard server on a scratch directory, streams the
// dataset in over /txns (the write-throughput measurement: every batch fans
// out across the N commit loops), then measures cold and cached /mine over
// the shards. The sharded cold answer must be byte-identical to the
// unsharded server's (want) — the scatter-gather determinism guarantee,
// checked over real HTTP.
func benchSharded(ctx context.Context, p exp.Params, txs []txdb.Transaction, workers, shards, cachedReps int, compress bool, want json.RawMessage) ([]serverBenchRecord, error) {
	dir, err := os.MkdirTemp("", "bbsd-bench-shard-")
	if err != nil {
		return nil, fmt.Errorf("creating sharded scratch dir: %w", err)
	}
	defer func() { _ = os.RemoveAll(dir) }()

	engine, _, cleanup, err := openEngine(dir, p.M, p.K, shards, compress, serve.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	defer func() { _ = engine.Close() }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("sharded bench listen: %w", err)
	}
	srv := &http.Server{Handler: engine.Handler()}
	go func() { _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()

	c := client.New("http://" + ln.Addr().String())
	const batch = 256
	var lastEpoch uint64
	start := time.Now()
	for i := 0; i < len(txs); i += batch {
		end := i + batch
		if end > len(txs) {
			end = len(txs)
		}
		req := serve.TxnsRequest{Insert: make([][]int32, 0, end-i)}
		for _, tx := range txs[i:end] {
			req.Insert = append(req.Insert, tx.Items)
		}
		res, err := c.Txns(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("sharded insert batch at %d: %w", i, err)
		}
		lastEpoch = res.Epoch
	}
	insertNs := time.Since(start).Nanoseconds()

	cold, coldNs, p50, p99, err := mineLatencies(ctx, c, serve.QueryRequest{Scheme: "DFP", MinSupportFrac: p.TauFrac}, cachedReps)
	if err != nil {
		return nil, fmt.Errorf("sharded: %w", err)
	}
	if !bytes.Equal(cold.Patterns, want) {
		return nil, fmt.Errorf("sharded answer differs from the unsharded one (%d vs %d pattern bytes)", len(cold.Patterns), len(want))
	}
	coldPatterns, err := cold.DecodePatterns()
	if err != nil {
		return nil, fmt.Errorf("sharded cold mine: %w", err)
	}

	opsPerSec := float64(len(txs)) / (float64(insertNs) / 1e9)
	fmt.Printf("bbsd bench sharded(%d): insert=%d txns in %.2fms (%.0f ops/s) cold=%.2fms cached p50=%.3fms p99=%.3fms (answers byte-identical)\n",
		shards, len(txs), float64(insertNs)/1e6, opsPerSec,
		float64(coldNs)/1e6, float64(p50)/1e6, float64(p99)/1e6)
	return []serverBenchRecord{
		{Scheme: "DFP-server-sharded-insert", WallNs: insertNs, Epoch: lastEpoch, Shards: shards,
			Ops: len(txs), OpsPerSec: opsPerSec},
		{Scheme: "DFP-server-sharded-cold", Tau: cold.Tau, WallNs: coldNs, Patterns: len(coldPatterns),
			Epoch: cold.Epoch, Shards: shards},
		{Scheme: "DFP-server-sharded-cached", Tau: cold.Tau, WallNs: p50, P50Ns: p50, P99Ns: p99,
			Patterns: len(coldPatterns), Epoch: cold.Epoch, Shards: shards, Speedup: float64(coldNs) / float64(p50)},
	}, nil
}

// appendBenchRecords merges the server records into the existing bench
// JSON (an array of per-scheme records), replacing earlier server records
// with the same scheme name so reruns do not accumulate.
func appendBenchRecords(path string, records []serverBenchRecord) error {
	var existing []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &existing); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("reading %s: %w", path, err)
	}

	replaced := make(map[string]bool, len(records))
	for _, r := range records {
		replaced[r.Scheme] = true
	}
	merged := make([]json.RawMessage, 0, len(existing)+len(records))
	for _, raw := range existing {
		var probe struct {
			Scheme string `json:"scheme"`
		}
		if err := json.Unmarshal(raw, &probe); err == nil && replaced[probe.Scheme] {
			continue
		}
		merged = append(merged, raw)
	}
	for _, r := range records {
		raw, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("encoding bench record: %w", err)
		}
		merged = append(merged, raw)
	}
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
