package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// -repeat runs one workload several times, a different seed each time as the
// driver does, and stores every run's values with their median and
// quartiles; -compare reads two such files and judges each end-to-end metric
// against its declared bound.

// repeatFile is what -repeat writes.
type repeatFile struct {
	Workload string                 `json:"workload"`
	Traced   bool                   `json:"traced"`
	Seconds  float64                `json:"seconds"`
	Seeds    []int64                `json:"seeds"`
	Host     hostInfo               `json:"host"`
	Metrics  map[string]repeatedRow `json:"metrics"`
}

type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

type repeatedRow struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

// spread is the interquartile distance as a share of the median, the
// number the driver holds against a metric's bound.
func (r repeatedRow) spread() float64 {
	if r.Median == 0 {
		return 0
	}
	return (r.Q3 - r.Q1) / r.Median
}

// commitID names the source the binary was built from: the VCS stamp the
// toolchain leaves when it builds inside a repository, else "unknown".
func commitID() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func runRepeat(w io.Writer, cfg runConfig, n int, path string) error {
	file := repeatFile{
		Workload: cfg.Workload, Traced: cfg.Traced, Seconds: cfg.Seconds,
		Host:    hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitID()},
		Metrics: make(map[string]repeatedRow),
	}
	units := unitsOf(cfg.Traced)
	failed := 0
	for i := 0; i < n; i++ {
		run := cfg
		run.Seed = cfg.Seed + int64(i)
		res, err := runWorkload(run)
		if err != nil {
			return err
		}
		failed += res.Tally.failed
		file.Seeds = append(file.Seeds, run.Seed)
		for name, m := range res.Report {
			row := file.Metrics[name]
			row.Unit = units[name]
			row.Values = append(row.Values, m.Value)
			file.Metrics[name] = row
		}
		if _, err := fmt.Fprintf(w, "run %d/%d seed=%d attempted=%d failed=%d\n", i+1, n, run.Seed, res.Tally.attempted, res.Tally.failed); err != nil {
			return err
		}
	}
	for name, row := range file.Metrics {
		row.Q1, row.Median, row.Q3 = quartiles(row.Values)
		file.Metrics[name] = row
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed over %d runs", failed, n)
	}
	return nil
}

func readRepeat(path string) (*repeatFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	var f repeatFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &f, nil
}

// Verdicts of -compare.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares b's median with a's under the metric's bound: unresolved
// when either side's interquartile spread, as a share of its median, is
// wider than the bound; worse when b's median is worse than a's by more than
// the bound; same otherwise.
func judge(m boundedMetric, a, b repeatedRow) string {
	if a.spread() > m.Bound || b.spread() > m.Bound {
		return verdictUnresolved
	}
	delta := (b.Median - a.Median) / a.Median
	if m.Better == higher {
		delta = -delta
	}
	if delta > m.Bound {
		return verdictWorse
	}
	return verdictSame
}

func runCompare(w io.Writer, pathA, pathB string) error {
	a, err := readRepeat(pathA)
	if err != nil {
		return err
	}
	b, err := readRepeat(pathB)
	if err != nil {
		return err
	}
	if a.Workload != b.Workload || a.Traced || b.Traced {
		return fmt.Errorf("-compare wants two untraced -repeat files of one workload, got %s and %s", a.Workload, b.Workload)
	}
	bad := 0
	for _, m := range endToEnd {
		ra, rb := a.Metrics[m.Name], b.Metrics[m.Name]
		verdict := judge(m, ra, rb)
		if verdict != verdictSame {
			bad++
		}
		if _, err := fmt.Fprintf(w, "%-16s %-22s %12.4f -> %12.4f %-5s bound %4.0f%%  spread %5.1f%% / %5.1f%%  %s\n",
			a.Workload, m.Name, ra.Median, rb.Median, m.Unit, m.Bound*100,
			ra.spread()*100, rb.spread()*100, verdict); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d metrics are not the same", bad, len(endToEnd))
	}
	return nil
}
