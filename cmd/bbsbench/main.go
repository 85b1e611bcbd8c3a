// Command bbsbench regenerates the paper's evaluation figures (Section 4).
//
// Each figure is a table of response times (or false-drop ratios) whose
// rows/series match what the paper plots. Run everything at full paper
// scale:
//
//	bbsbench -fig all
//
// or a single figure, scaled down for a quick look:
//
//	bbsbench -fig 6 -scale 0.1
//
// Output is aligned text by default; -csv switches to CSV for plotting.
//
// -json <path> skips the figures and instead times the four BBS schemes
// once, writing one JSON record per scheme (wall time plus the hot-path work
// counters) — the machine-readable output CI tracks across commits.
// -cpuprofile / -memprofile wrap whichever mode runs with runtime/pprof.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"bbsmine/internal/exp"
	"bbsmine/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bbsbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bbsbench", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", `figure to regenerate: 5..13, 14 (workers sweep, not in the paper) or "all"`)
		scale   = fs.Float64("scale", 1.0, "scale factor on transaction counts (use <1 for quick runs)")
		repeat  = fs.Int("repeat", 1, "timing repetitions per point (best is reported)")
		seed    = fs.Int64("seed", 1, "dataset seed")
		tau     = fs.Float64("tau", 0, "override the minimum-support fraction (default: the paper's 0.003; raise it for scaled-down runs)")
		workers = fs.Int("workers", 1, "mining worker pool size for figures 5..13 (default 1 keeps paper timings single-threaded; figure 14 sweeps its own)")
		shards  = fs.Int("shards", 1, "with -json, shard the index N ways and mine the shards in place (the answer and funnel are identical; the layout under measurement changes)")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned text")
		outdir  = fs.String("outdir", "", "also write each table as <outdir>/<id>.csv for plotting")
		jsonOut = fs.String("json", "", "skip the figures; time the four BBS schemes and write JSON records to this path")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memProf = fs.String("memprofile", "", "write a heap profile taken after the run to this path")

		httpAddr    = fs.String("http", "", "serve /metrics (Prometheus text), /debug/vars and /debug/pprof on this address while the benchmark runs")
		checkFunnel = fs.Bool("check-funnel", false, "with -json, fail if a dual-filter scheme reports more false drops than SFS (Corollary 1)")

		compress      = fs.Bool("compress", false, "with -json, store the index under adaptive per-slice compression (answers are byte-identical; records gain the resident footprint)")
		checkCompress = fs.Bool("check-compress", false, "with -json -compress, also run the dense legs and fail unless every counter matches and the compression floor holds")
		minRatio      = fs.Float64("min-compress-ratio", 2.0, "with -check-compress, minimum logical/resident byte ratio each compressed record must reach")

		memBudget   = fs.Int64("mem-budget", 0, "with -json, tier the index to this byte budget before the timed run (a profiling pass ranks the hot tier; answers are byte-identical; records gain the buffer-pool gauges)")
		checkTiered = fs.Bool("check-tiered", false, "with -json -mem-budget, also run the resident legs and fail unless every counter matches and the pool actually faulted and evicted")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("-http listen: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "serving /metrics and /debug/pprof/ on http://%s\n", ln.Addr())
		go func() {
			srv := &http.Server{Handler: obs.NewServeMux()}
			if serveErr := srv.Serve(ln); serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && !errors.Is(serveErr, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "bbsbench: -http:", serveErr)
			}
		}()
	}

	p := exp.Defaults(*scale)
	p.Seed = *seed
	p.Repeat = *repeat
	p.Workers = *workers
	if *shards > 0 {
		p.Shards = *shards
	}
	if *tau > 0 {
		p.TauFrac = *tau
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("creating -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bbsbench: creating -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows what is live
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bbsbench: writing -memprofile:", err)
			}
		}()
	}

	if *jsonOut != "" {
		p.Compress = *compress
		if *memBudget > 0 {
			p.MemBudget = *memBudget
			dir, err := os.MkdirTemp("", "bbsbench-tier-")
			if err != nil {
				return fmt.Errorf("creating -mem-budget scratch dir: %w", err)
			}
			defer os.RemoveAll(dir)
			p.TierDir = dir
		}
		return runJSON(p, *jsonOut, *checkFunnel, *checkCompress, *minRatio, *checkTiered)
	}

	var figures []int
	if *fig == "all" {
		for f := range exp.Figures {
			figures = append(figures, f)
		}
		sort.Ints(figures)
	} else {
		f, err := strconv.Atoi(*fig)
		if err != nil || exp.Figures[f] == nil {
			return fmt.Errorf("unknown figure %q (want 5..14 or all)", *fig)
		}
		figures = []int{f}
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return fmt.Errorf("creating -outdir: %w", err)
		}
	}

	fmt.Printf("# bbsbench: scale=%.2f repeat=%d seed=%d — paper defaults T%d.I%d.D%d, V=%d, m=%d, τ=%.2f%%\n\n",
		*scale, *repeat, *seed, p.T, p.I, p.ScaledD(), p.V, p.M, p.TauFrac*100)

	for _, f := range figures {
		start := time.Now()
		tables, err := exp.Figures[f](p)
		if err != nil {
			return fmt.Errorf("figure %d: %w", f, err)
		}
		for i := range tables {
			t := &tables[i]
			if *csv {
				if err := t.RenderCSV(os.Stdout); err != nil {
					return err
				}
				fmt.Println()
			} else if err := t.Render(os.Stdout); err != nil {
				return err
			}
			if *outdir != "" {
				if err := writeCSVFile(*outdir, t); err != nil {
					return err
				}
			}
		}
		fmt.Printf("(figure %d regenerated in %v)\n\n", f, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runJSON times the four BBS schemes and writes the records to path. With
// checkFunnel set, the run fails when the records violate the paper's
// Corollary 1 false-drop ordering. With checkCompress set (requires
// p.Compress), the dense legs run too: every compressed record must match
// its dense twin counter for counter — the kernels-never-change-an-answer
// guarantee — and reach minRatio bytes saved; both sets are written, the
// compressed records carrying compress=true. checkTiered (requires
// p.MemBudget) does the same for tiering: resident twins run too, every
// counter must match — tiering moves bytes, never bits — and the pool must
// show faults, hits and evictions; both sets are written, the tiered
// records carrying tiered=true plus the pool gauges, so the wall-clock
// delta of running under the budget is readable from one file.
func runJSON(p exp.Params, path string, checkFunnel, checkCompress bool, minRatio float64, checkTiered bool) error {
	records, err := exp.BenchJSON(p)
	if err != nil {
		return err
	}
	if checkCompress {
		if !p.Compress {
			return fmt.Errorf("-check-compress needs -compress")
		}
		dp := p
		dp.Compress = false
		dense, err := exp.BenchJSON(dp)
		if err != nil {
			return err
		}
		if err := exp.CheckCompression(dense, records, minRatio); err != nil {
			return err
		}
		fmt.Printf("compression check passed: counters identical to dense, ratio ≥ %.1fx\n", minRatio)
		records = append(dense, records...)
	}
	if checkTiered {
		if p.MemBudget <= 0 {
			return fmt.Errorf("-check-tiered needs -mem-budget")
		}
		rp := p
		rp.MemBudget, rp.TierDir = 0, ""
		resident, err := exp.BenchJSON(rp)
		if err != nil {
			return err
		}
		if err := exp.CheckTiered(resident, records, true); err != nil {
			return err
		}
		fmt.Printf("tiered check passed: answers and counters identical to resident under a %d KiB budget, pool faulted and evicted\n", p.MemBudget>>10)
		residentWall := make(map[string]int64, len(resident))
		for _, r := range resident {
			residentWall[r.Scheme] = r.WallNs
		}
		for _, r := range records {
			if base := residentWall[r.Scheme]; base > 0 {
				fmt.Printf("%-4s tiered wall %+.1f%% vs resident (resident %d KiB of %d KiB budget, faults=%d evictions=%d)\n",
					r.Scheme, 100*(float64(r.WallNs)-float64(base))/float64(base),
					r.PagerResidentBytes>>10, r.MemBudget>>10, r.PagerFaults, r.PagerEvictions)
			}
		}
		records = append(resident, records...)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating -json output: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, r := range records {
		suffix := ""
		if r.Compress {
			suffix = fmt.Sprintf(" compressed=%.1fx", r.CompressionRatio)
		}
		if r.Tiered {
			suffix += fmt.Sprintf(" tiered hot/cold=%d/%d hit_ratio=%.3f", r.SlicesHot, r.SlicesCold, r.PagerHitRatio)
		}
		fmt.Printf("%-4s wall=%-12v count_calls=%-7d slice_ands=%-8d probes=%-7d patterns=%-5d candidates=%-5d false_drops=%d%s\n",
			r.Scheme, time.Duration(r.WallNs).Round(time.Microsecond), r.CountCalls, r.SliceAnds, r.Probes, r.Patterns, r.Candidates, r.FalseDrops, suffix)
	}
	fmt.Printf("(wrote %s)\n", path)
	if checkFunnel {
		if err := exp.CheckFunnel(records); err != nil {
			return err
		}
		fmt.Println("funnel check passed: dual-filter false drops ≤ SFS false drops")
	}
	return nil
}

// writeCSVFile saves one table as <dir>/<id>.csv.
func writeCSVFile(dir string, t *exp.Table) error {
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	if err := t.RenderCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
