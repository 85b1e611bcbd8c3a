// Command bbsmine builds a BBS index over a transaction database and mines
// frequent patterns with any of the paper's four schemes, or answers ad-hoc
// count queries.
//
// Mine a .txdb file produced by bbsgen (the index persists next to it):
//
//	bbsmine -db dataset/ -import data.txdb
//	bbsmine -db dataset/ -minsup 0.003 -scheme DFP
//
// Ad-hoc queries (Section 4.9):
//
//	bbsmine -db dataset/ -count 3,17,29
//	bbsmine -db dataset/ -count 3,17 -where-tid-mod 7
//
// -shards N opens (or migrates to) an N-way sharded database: counts fan
// out per shard, mining reads the shards in place as one index, and every
// answer is identical to an unsharded database over the same data.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"bbsmine"
	"bbsmine/internal/txdb"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bbsmine:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bbsmine", flag.ContinueOnError)
	var (
		dir          = fs.String("db", "", "database directory (required)")
		importPath   = fs.String("import", "", "append all transactions from this .txdb file, then save the index")
		importBasket = fs.String("import-basket", "", "append transactions from a basket-format text file (one transaction per line, space-separated items)")
		m            = fs.Int("m", 1600, "signature bits")
		k            = fs.Int("k", 4, "hash functions per item")
		shards       = fs.Int("shards", 0, "shard the database N ways (0 = whatever the directory already is; migrates a flat directory in place)")
		compress     = fs.Bool("compress", false, "adaptive per-slice compression (dense/sparse); mining results are byte-identical, the index just gets smaller")

		memBudget = fs.Int64("mem-budget", 0, "tier the index to this byte budget: hot slices stay pinned, the rest fault from per-shard cold files through a shared buffer pool (0 = fully resident)")

		minsup  = fs.Float64("minsup", 0, "mine with this minimum support fraction (e.g. 0.003)")
		scheme  = fs.String("scheme", "DFP", "mining scheme: SFS, SFP, DFS or DFP")
		maxLen  = fs.Int("maxlen", 0, "maximum pattern length (0 = unbounded)")
		memory  = fs.Int64("memory", 0, "memory budget in bytes (0 = unconstrained)")
		workers = fs.Int("workers", 0, "mining worker pool size (0 = one per CPU, 1 = sequential)")
		top     = fs.Int("top", 20, "print at most this many patterns (0 = all)")

		count    = fs.String("count", "", "comma-separated itemset to count instead of mining")
		whereMod = fs.Int64("where-tid-mod", 0, "restrict -count to TIDs divisible by this value")

		httpAddr    = fs.String("http", "", "serve /metrics (Prometheus text), /debug/vars and /debug/pprof on this address during the run (e.g. :6060)")
		tracePath   = fs.String("trace", "", "write sampled JSON-lines trace events of the mining run to this file")
		traceSample = fs.Int("trace-sample", 64, "with -trace, keep every Nth event (1 = keep all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-db is required")
	}

	db, err := bbsmine.Open(*dir, bbsmine.Options{M: *m, K: *k, Shards: *shards, Compress: *compress})
	if err != nil {
		return err
	}
	defer db.Close()

	// Telemetry is opt-in: either exposition flag creates the registry; with
	// both unset observer stays nil and mining runs the zero-cost path.
	var observer *bbsmine.Observer
	if *httpAddr != "" || *tracePath != "" {
		observer = bbsmine.NewObserver()
		db.BindStats(observer)
		if *tracePath != "" {
			tf, err := os.Create(*tracePath)
			if err != nil {
				return fmt.Errorf("creating -trace output: %w", err)
			}
			defer tf.Close()
			observer.SetTracer(bbsmine.NewTracer(tf, *traceSample))
		}
		if *httpAddr != "" {
			observer.Publish("bbsmine")
			ln, err := net.Listen("tcp", *httpAddr)
			if err != nil {
				return fmt.Errorf("-http listen: %w", err)
			}
			defer ln.Close()
			fmt.Fprintf(os.Stderr, "serving /metrics and /debug/pprof/ on http://%s\n", ln.Addr())
			go func() {
				srv := &http.Server{Handler: bbsmine.MetricsMux()}
				if serveErr := srv.Serve(ln); serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && !errors.Is(serveErr, net.ErrClosed) {
					fmt.Fprintln(os.Stderr, "bbsmine: -http:", serveErr)
				}
			}()
		}
	}

	if *importPath != "" {
		src, err := txdb.OpenFileStore(*importPath, nil)
		if err != nil {
			return err
		}
		defer src.Close()
		n := 0
		err = src.Scan(func(_ int, tx txdb.Transaction) bool {
			if appendErr := db.Append(tx.TID, tx.Items); appendErr != nil {
				err = appendErr
				return false
			}
			n++
			return true
		})
		if err != nil {
			return err
		}
		if err := db.Save(); err != nil {
			return err
		}
		fmt.Printf("imported %d transactions (database now %d, index %d KiB)\n",
			n, db.Len(), db.IndexBytes()>>10)
	}

	if *importBasket != "" {
		f, err := os.Open(*importBasket)
		if err != nil {
			return err
		}
		txs, err := txdb.ReadBasket(f)
		f.Close()
		if err != nil {
			return err
		}
		base := int64(db.Len())
		for _, tx := range txs {
			if err := db.Append(base+tx.TID, tx.Items); err != nil {
				return err
			}
		}
		if err := db.Save(); err != nil {
			return err
		}
		fmt.Printf("imported %d basket transactions (database now %d, index %d KiB)\n",
			len(txs), db.Len(), db.IndexBytes()>>10)
	}

	if *memBudget > 0 {
		// Tier after any imports so the split covers the final index. The
		// hot tier is obs-driven when telemetry is on (the observer's
		// per-slice touch tallies rank the slices); otherwise the smallest
		// slices stay hot.
		var touches []uint64
		if observer != nil {
			touches = observer.SliceTouches()
		}
		if err := db.Tier(*memBudget, "", touches); err != nil {
			return err
		}
		if observer != nil {
			db.BindPager(observer)
		}
		ts := db.TierStats()
		fmt.Fprintf(os.Stderr, "tiered: budget %d KiB, %d slices hot (%d KiB reserved), %d cold (%d KiB on disk)\n",
			*memBudget>>10, ts.SlicesHot, ts.ReservedBytes>>10, ts.SlicesCold, ts.ColdBytes>>10)
	}

	if *count != "" {
		items, err := parseItems(*count)
		if err != nil {
			return err
		}
		var est, exact int
		if *whereMod > 0 {
			mod := *whereMod
			est, exact, err = db.CountWhere(items, func(tid int64) bool { return tid%mod == 0 })
		} else {
			est, exact, err = db.Count(items)
		}
		if err != nil {
			return err
		}
		fmt.Printf("itemset %v: estimate %d, exact %d (of %d transactions)\n", items, est, exact, db.Len())
		return nil
	}

	if *minsup > 0 {
		sch, err := parseScheme(*scheme)
		if err != nil {
			return err
		}
		db.ResetStats()
		res, err := db.Mine(bbsmine.MineOptions{
			MinSupportFrac: *minsup,
			Scheme:         sch,
			MaxLen:         *maxLen,
			MemoryBudget:   *memory,
			Workers:        *workers,
			Observe:        observer,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%s over %d transactions at τ=%.3g%%: %d patterns, %d candidates, %d false drops (FDR %.3f), %d certified without refinement\n",
			sch, db.Len(), *minsup*100, len(res.Patterns), res.Candidates, res.FalseDrops, res.FalseDropRatio(), res.Certain)
		fmt.Printf("stats: %s\n", db.Stats())
		if db.Tiered() {
			ts := db.TierStats()
			fmt.Printf("pager: resident=%d KiB reserved=%d KiB faults=%d hits=%d evictions=%d hit_ratio=%.3f\n",
				ts.ResidentBytes>>10, ts.ReservedBytes>>10, ts.Faults, ts.Hits, ts.Evictions, ts.HitRatio)
		}
		if observer != nil {
			om := observer.Metrics()
			fmt.Printf("funnel: certified_actual=%d certified_est=%d uncertain=%d level1_skipped=%d probed=%d\n",
				om.Funnel.CertifiedActual, om.Funnel.CertifiedEst, om.Funnel.Uncertain, om.Funnel.Level1Skipped, om.Funnel.ProbedPatterns)
			fmt.Printf("kernel: evals=%d early_exits=%d words_sparse=%d words_dense=%d poscache_hits=%d misses=%d\n",
				om.Kernel.Evals, om.Kernel.EarlyExits, om.Kernel.WordsSparse, om.Kernel.WordsDense, om.Kernel.PosCacheHits, om.Kernel.PosCacheMisses)
			if om.Trace != nil {
				fmt.Printf("trace: %d events seen, %d written to %s\n", om.Trace.Seen, om.Trace.Kept, *tracePath)
			}
		}
		limit := *top
		if limit == 0 || limit > len(res.Patterns) {
			limit = len(res.Patterns)
		}
		for _, p := range res.Patterns[:limit] {
			exactness := "exact"
			if !p.Exact {
				exactness = "estimate"
			}
			fmt.Printf("  %v support=%d (%s)\n", p.Items, p.Support, exactness)
		}
		if limit < len(res.Patterns) {
			fmt.Printf("  ... %d more\n", len(res.Patterns)-limit)
		}
	}
	return nil
}

func parseItems(s string) ([]int32, error) {
	parts := strings.Split(s, ",")
	items := make([]int32, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad item %q: %w", p, err)
		}
		items = append(items, int32(v))
	}
	return items, nil
}

func parseScheme(s string) (bbsmine.Scheme, error) {
	switch strings.ToUpper(s) {
	case "SFS":
		return bbsmine.SFS, nil
	case "SFP":
		return bbsmine.SFP, nil
	case "DFS":
		return bbsmine.DFS, nil
	case "DFP":
		return bbsmine.DFP, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want SFS, SFP, DFS or DFP)", s)
}
