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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bbsmine/internal/iostat"
	"bbsmine/internal/obs"
	"bbsmine/internal/serve"
	"bbsmine/internal/shard"
	"bbsmine/internal/txdb"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bbsd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bbsd", flag.ContinueOnError)
	var (
		dir    = fs.String("db", "", "database directory (required; created if missing)")
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
		memBudget   = fs.Int64("mem-budget", 0, "tier the served index to this byte budget: hot slices stay pinned, cold slices fault from per-shard cold files, and slice frames plus transaction pages share one pool (0 = fully resident)")

		reqlogPath = fs.String("reqlog", "", "write one JSON line per served request (id, class, verdict, stage timings) to this file")
		tracePath  = fs.String("trace", "", "write sampled trace events (mining + request/apply/commit) to this file")
		traceEvery = fs.Int("trace-every", 1, "keep every N-th trace event")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
