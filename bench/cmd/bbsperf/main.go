// Command bbsperf is the repository's benchmark. One invocation runs one of
// four workloads for a fixed number of seconds, checks every answer it timed
// against an oracle, and prints each metric by name with its unit and sample
// count; the last line of standard output is the result as one JSON object.
//
//	bbsperf --workload mine-resident --seed 1 --seconds 20 --trace 0
//	bbsperf --workload mine-tiered --seed 1 --seconds 20 --trace 1 --spans spans.json
//	bbsperf --workload serve-mixed --repeat 5 --out a.json
//	bbsperf --compare a.json b.json
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// tracing off. With --trace 1 it attaches an obs.Registry, records spans
// around its calls into each layer, replays single-layer calls, and reports
// the per-layer metrics instead. README.md in the benchmark's directory has
// the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bbsperf:", err)
		os.Exit(1)
	}
}

// runConfig is one run's parameters.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	WorkDir  string // scratch for cold files and the served database
	SpanPath string // where a traced run writes its spans
	Size     sizing
}

// scratchDir makes a fresh directory under the run's work directory.
func scratchDir(cfg runConfig, prefix string) (string, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return "", fmt.Errorf("creating work directory: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, prefix)
	if err != nil {
		return "", fmt.Errorf("creating scratch directory: %w", err)
	}
	return dir, nil
}

// tally counts the operations a run checked and the ones that failed: an
// error, a refusal, a timeout and a wrong answer all fail.
type tally struct {
	attempted, failed int
	first             []string // the first few failures, for the report
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.first) < 5 {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
}

// outcome is what a run produced.
type outcome struct {
	Report report
	Tally  tally
}

// runWorkload dispatches one run and checks it reported its mode's metrics.
func runWorkload(cfg runConfig) (*outcome, error) {
	var out *outcome
	var err error
	switch {
	case cfg.Workload == wlServe && cfg.Traced:
		out, err = traceServe(cfg)
	case cfg.Workload == wlServe:
		out, err = runServe(cfg)
	case cfg.Traced:
		out, err = traceMine(cfg)
	default:
		out, err = runMine(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	if err := checkComplete(out.Report, cfg.Traced); err != nil {
		return nil, err
	}
	return out, nil
}

// resultLine is the JSON object the driver reads from the last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) resultLine(traced bool) resultLine {
	units := unitsOf(traced)
	line := resultLine{
		Correct:   o.Tally.failed == 0,
		Attempted: o.Tally.attempted,
		Failed:    o.Tally.failed,
		Metrics:   make(map[string]metricValue, len(o.Report)),
	}
	for name, m := range o.Report {
		line.Metrics[name] = metricValue{Value: m.Value, Unit: units[name]}
	}
	return line
}

// print writes the human-readable report and, last, the JSON result line.
func (o *outcome) print(w io.Writer, cfg runConfig) error {
	units := unitsOf(cfg.Traced)
	for _, name := range o.Report.sorted() {
		m := o.Report[name]
		line := fmt.Sprintf("%-36s %16.6f %-6s", name, m.Value, units[name])
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Thin {
			line += fmt.Sprintf(" (fewer than %d samples beyond this percentile)", minBeyond)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	rate := float64(o.Tally.failed) / float64(max(o.Tally.attempted, 1))
	if _, err := fmt.Fprintf(w, "%-36s %16.6f %-6s attempted=%d failed=%d\n", "error_rate", rate, "ratio", o.Tally.attempted, o.Tally.failed); err != nil {
		return err
	}
	for _, f := range o.Tally.first {
		if _, err := fmt.Fprintln(w, "FAILED:", f); err != nil {
			return err
		}
	}
	data, err := json.Marshal(o.resultLine(cfg.Traced))
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bbsperf", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: mine-resident, mine-compressed, mine-tiered or serve-mixed")
		seed     = fs.Int64("seed", 1, "input seed: draws the Count itemsets, the request plan and the inserted transactions")
		seconds  = fs.Float64("seconds", runSeconds, "length of the timed window")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run, per-layer metrics and a span file")
		spans    = fs.String("spans", "", "span file of a traced run (default <workdir>/spans-<workload>.json)")
		workdir  = fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for cold files and the served database")
		repeat   = fs.Int("repeat", 0, "run the workload N times with seeds seed..seed+N-1 and write per-run values, medians and quartiles to -out")
		out      = fs.String("out", "", "output file of -repeat")
		compare  = fs.Bool("compare", false, "compare two -repeat files: bbsperf -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two files written by -repeat")
		}
		return runCompare(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if !isWorkload(*workload) {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	// Sized for a shared two-core host: the mines run Workers:1 and the only
	// concurrency is serve-mixed's two clients.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	cfg := runConfig{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Traced: *trace == 1,
		WorkDir: *workdir, SpanPath: *spans, Size: fullSize,
	}
	if cfg.SpanPath == "" {
		cfg.SpanPath = filepath.Join(cfg.WorkDir, "spans-"+cfg.Workload+".json")
	}
	if *repeat > 0 {
		if *out == "" {
			return fmt.Errorf("-repeat needs -out")
		}
		return runRepeat(stdout, cfg, *repeat, *out)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	if err := res.print(stdout, cfg); err != nil {
		return err
	}
	if res.Tally.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.Tally.failed, res.Tally.attempted)
	}
	return nil
}
