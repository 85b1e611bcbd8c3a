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
// -cpuprofile / -memprofile wrap the run with runtime/pprof.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"bbsmine/internal/exp"
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
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned text")
		outdir  = fs.String("outdir", "", "also write each table as <outdir>/<id>.csv for plotting")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memProf = fs.String("memprofile", "", "write a heap profile taken after the run to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := exp.Defaults(*scale)
	p.Seed = *seed
	p.Repeat = *repeat
	p.Workers = *workers
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
