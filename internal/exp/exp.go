// Package exp is the experiment harness: one driver per figure of the
// paper's evaluation (Section 4), each regenerating the same rows/series the
// paper reports.
//
// Response time on 2026 hardware is reported two ways, following DESIGN.md:
// measured wall time plus a synthetic I/O charge computed from the counted
// logical page accesses under iostat.DefaultCostModel (≈ late-1990s disk).
// The paper's machine was a 167-MHz Ultra 1 with 64 MB where I/O dominated;
// the charge restores that balance so the *shape* of every figure is
// comparable. Raw wall time and raw counters are also reported so nothing
// hides behind the model.
//
// Timing boundaries mirror the paper's setting: the BBS is a persistent
// index, so building it is not part of a mining run (it was built when the
// data was loaded); the FP-tree is not persistent, so FPS timings include
// construction; APS is scan-based and has no build phase.
package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"bbsmine/internal/apriori"
	"bbsmine/internal/core"
	"bbsmine/internal/fptree"
	"bbsmine/internal/iostat"
	"bbsmine/internal/mining"
	"bbsmine/internal/quest"
	"bbsmine/internal/shard"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// Params are the defaults of the paper's Section 4: T10.I10.D10K, 10K
// items, τ = 0.3%, m = 1600. Scale shrinks the transaction counts for quick
// runs (benchmarks use Scale < 1; the bbsbench CLI defaults to 1).
type Params struct {
	D       int     // transactions
	V       int     // distinct items
	T       int     // average transaction size
	I       int     // average maximal potentially-large itemset size
	M       int     // BBS signature bits
	K       int     // hash functions per item
	TauFrac float64 // minimum support fraction
	Seed    int64
	Scale   float64 // multiplies D (and the web-log sizes) for quick runs
	Repeat  int     // timing repetitions; the best run is reported
	Workers int     // mining worker pool size; 1 (the default) keeps figure timings single-threaded
}

// Defaults returns the paper's default parameters at the given scale.
func Defaults(scale float64) Params {
	if scale <= 0 {
		scale = 1
	}
	return Params{
		D:       10000,
		V:       10000,
		T:       10,
		I:       10,
		M:       1600,
		K:       4,
		TauFrac: 0.003,
		Seed:    1,
		Scale:   scale,
		Repeat:  1,
		Workers: 1,
	}
}

// ScaledD returns the effective default transaction count after scaling.
func (p Params) ScaledD() int { return p.scaledD(p.D) }

// scaledD applies the scale factor with a sane floor.
func (p Params) scaledD(d int) int {
	n := int(float64(d) * p.Scale)
	if n < 100 {
		n = 100
	}
	return n
}

// Dataset generates the params' default Quest workload (the paper's
// figure-6 dataset at the params' scale). Callers outside the figures —
// bbsperf and the root package's storage parity test — build their index
// from it so their numbers stay comparable to the figures.
func (p Params) Dataset() ([]txdb.Transaction, error) { return p.dataset(p.D, p.V, p.T) }

// dataset generates the Quest workload for the parameters.
func (p Params) dataset(d, v, t int) ([]txdb.Transaction, error) {
	cfg := quest.DefaultConfig()
	cfg.D = p.scaledD(d)
	cfg.N = v
	cfg.T = t
	cfg.I = p.I
	cfg.Seed = p.Seed
	g, err := quest.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return g.Generate(), nil
}

// Metrics is the outcome of one timed mining run.
type Metrics struct {
	Scheme    string
	Wall      time.Duration // measured
	Synthetic time.Duration // iostat.DefaultCostModel over the counters
	Patterns  int
	FDR       float64 // BBS schemes only; 0 otherwise
	Certain   int     // dual-filter schemes only
	Snapshot  iostat.Snapshot
}

// Total is the figure-comparable response time: wall + synthetic I/O.
func (m Metrics) Total() time.Duration { return m.Wall + m.Synthetic }

// SchemeNames is the paper's scheme ordering for the comparative figures.
var SchemeNames = []string{"APS", "FPS", "SFS", "DFS", "SFP", "DFP"}

// bbsScheme maps the name to the core scheme (ok=false for APS/FPS).
func bbsScheme(name string) (core.Scheme, bool) {
	switch name {
	case "SFS":
		return core.SFS, true
	case "SFP":
		return core.SFP, true
	case "DFS":
		return core.DFS, true
	case "DFP":
		return core.DFP, true
	}
	return 0, false
}

// RunScheme executes one scheme over the transactions and reports metrics.
// memBudget <= 0 means unconstrained. m/k configure the BBS for the BBS
// schemes and are ignored by APS/FPS. workers sizes the BBS schemes' mining
// worker pool (0 means one per CPU; the figure drivers pass 1 so the paper
// timings stay single-threaded).
func RunScheme(name string, txs []txdb.Transaction, tau int, m, k int, memBudget int64, workers, repeat int) (Metrics, error) {
	if repeat < 1 {
		repeat = 1
	}
	var best Metrics
	for r := 0; r < repeat; r++ {
		met, err := runSchemeOnce(name, txs, tau, m, k, memBudget, workers)
		if err != nil {
			return Metrics{}, err
		}
		if r == 0 || met.Total() < best.Total() {
			best = met
		}
	}
	return best, nil
}

func runSchemeOnce(name string, txs []txdb.Transaction, tau int, m, k int, memBudget int64, workers int) (Metrics, error) {
	var stats iostat.Stats
	if scheme, ok := bbsScheme(name); ok {
		sdb, err := buildDB(txs, m, k, &stats)
		if err != nil {
			return Metrics{}, err
		}
		return timeBBSMine(name, scheme, sdb, &stats, tau, memBudget, workers)
	}
	store, err := txdb.NewMemStoreFrom(&stats, txs)
	if err != nil {
		return Metrics{}, err
	}

	switch name {
	case "APS":
		stats.Reset()
		start := time.Now()
		res, err := apriori.Mine(store, apriori.Config{MinSupport: tau, MemoryBudget: memBudget})
		if err != nil {
			return Metrics{}, err
		}
		snap := stats.Snapshot()
		return Metrics{
			Scheme: name, Wall: time.Since(start),
			Synthetic: iostat.DefaultCostModel.Charge(snap),
			Patterns:  len(res), Snapshot: snap,
		}, nil
	case "FPS":
		stats.Reset()
		start := time.Now()
		res, err := fptree.Mine(store, fptree.Config{MinSupport: tau, MemoryBudget: memBudget})
		if err != nil {
			return Metrics{}, err
		}
		snap := stats.Snapshot()
		return Metrics{
			Scheme: name, Wall: time.Since(start),
			Synthetic: iostat.DefaultCostModel.Charge(snap),
			Patterns:  len(res), Snapshot: snap,
		}, nil
	}
	return Metrics{}, fmt.Errorf("exp: unknown scheme %q", name)
}

// buildDB indexes the transactions into an unsharded in-memory database.
func buildDB(txs []txdb.Transaction, m, k int, stats *iostat.Stats) (*shard.DB, error) {
	sdb, err := shard.NewMem(sighash.NewMD5(m, k), 1, stats)
	if err != nil {
		return nil, err
	}
	for _, tx := range txs {
		if err := sdb.Append(tx); err != nil {
			return nil, err
		}
	}
	return sdb, nil
}

// timeBBSMine times one mining run over an already-built database — index
// construction is not part of a mining run, so stats reset just before the
// clock starts.
func timeBBSMine(name string, scheme core.Scheme, sdb *shard.DB, stats *iostat.Stats, tau int, memBudget int64, workers int) (Metrics, error) {
	idx, store, err := sdb.Merged()
	if err != nil {
		return Metrics{}, err
	}
	miner, err := core.NewViewMiner(idx, store, stats)
	if err != nil {
		return Metrics{}, err
	}
	stats.Reset()
	start := time.Now()
	res, err := miner.Mine(core.Config{MinSupport: tau, Scheme: scheme, MemoryBudget: memBudget, Workers: workers})
	if err != nil {
		return Metrics{}, err
	}
	snap := stats.Snapshot()
	return Metrics{
		Scheme:    name,
		Wall:      time.Since(start),
		Synthetic: iostat.DefaultCostModel.Charge(snap),
		Patterns:  len(res.Patterns),
		FDR:       res.FalseDropRatio(),
		Certain:   res.Certain,
		Snapshot:  snap,
	}, nil
}

// Tau converts the params' fractional threshold for a database of n rows.
func (p Params) Tau(n int) int { return mining.MinSupportCount(p.TauFrac, n) }

// Table is a rendered experiment result.
type Table struct {
	ID     string // e.g. "fig5a"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table in aligned text form.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, "  "))
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the table as CSV (header + rows; notes as comments).
func (t *Table) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Join(t.Header, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// ms renders a duration as milliseconds with one decimal.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// ratio renders a float with three decimals.
func ratio(f float64) string { return fmt.Sprintf("%.3f", f) }
