package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bbsmine/internal/mining"
)

// tinySize runs every workload in well under a second: 500 transactions, two
// timed rounds, a hundred requests. The threshold rises with the shrinking
// database so the pattern count stays small.
var tinySize = sizing{
	D:              500,
	TauFrac:        0.02,
	CountsPerRound: 20,
	CountPool:      200,
	PlanRequests:   300,
	WarmRequests:   20,
	SetupRepeats:   2,
	MaxRounds:      2,
	MaxRequests:    100,
}

func tinyConfig(t *testing.T, workload string, traced bool) runConfig {
	dir := t.TempDir()
	return runConfig{
		Workload: workload, Seed: 1, Seconds: 30, Traced: traced,
		WorkDir: dir, SpanPath: filepath.Join(dir, "spans.json"), Size: tinySize,
	}
}

func mustRun(t *testing.T, cfg runConfig) *outcome {
	t.Helper()
	out, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tally.failed != 0 || out.Tally.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", cfg.Workload, out.Tally.failed, out.Tally.attempted, out.Tally.first)
	}
	if left, _ := os.ReadDir(cfg.WorkDir); len(left) > 1 || (len(left) == 1 && left[0].Name() != "spans.json") {
		t.Errorf("%s left %d entries in its work directory", cfg.Workload, len(left))
	}
	return out
}

// Every workload runs, verifies its answers and reports every end-to-end
// metric, none of them zero.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		out := mustRun(t, tinyConfig(t, w.Name, false))
		for _, m := range endToEnd {
			if v := out.Report.value(m.Name); v <= 0 {
				t.Errorf("%s: %s = %g, want a positive value", w.Name, m.Name, v)
			}
		}
		var buf bytes.Buffer
		if err := out.print(&buf, tinyConfig(t, w.Name, false)); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: the last line is not the result object: %v", w.Name, err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line %+v", w.Name, line)
		}
		for _, m := range endToEnd {
			if line.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("%s: %s printed in %q, declared in %q", w.Name, m.Name, line.Metrics[m.Name].Unit, m.Unit)
			}
		}
	}
}

// exactAcrossPolicies are the counts storage must not move: the same for
// every storage policy (the exp.CheckCompression / CheckTiered rule, by
// name). exactAcrossRuns adds the ones only the accumulator's kernel choice
// moves, which a tiered index makes differently.
var exactAcrossPolicies = []string{
	"core.evals", "core.slice_ands", "core.early_exits", "core.candidates", "core.false_drops",
	"core.probes", "core.certified_ratio", "core.poscache_hit_ratio", "txdb.page_reads",
}

var exactAcrossRuns = append([]string{
	"core.words_dense", "core.words_sparse", "core.ands_enc_dense", "core.ands_enc_sparse", "core.ands_enc_rle",
	"sigfile.slice_bytes", "sigfile.slices_dense", "sigfile.slices_sparse", "sigfile.slices_rle",
	"sigfile.slices_hot", "sigfile.slices_cold",
}, exactAcrossPolicies...)

func TestSmokeTraced(t *testing.T) {
	byWorkload := make(map[string]report)
	for _, w := range workloads {
		cfg := tinyConfig(t, w.Name, true)
		out := mustRun(t, cfg)
		byWorkload[w.Name] = out.Report
		if len(out.Report) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, %d declared", w.Name, len(out.Report), len(perLayer))
		}
		data, err := os.ReadFile(cfg.SpanPath)
		if err != nil {
			t.Fatal(err)
		}
		var file spanFile
		if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) == 0 {
			t.Errorf("%s: span file holds %d spans (%v)", w.Name, len(file.Spans), err)
		}
		for _, name := range []string{"bitvec.and_dense_ns_per_word", "sigfile.count_into_ns", "core.evals", "core.mine_ms.DFP", "fptree.mine_ms", "proc.cpu_s"} {
			if out.Report.value(name) <= 0 {
				t.Errorf("%s: %s = %g, want a positive value", w.Name, name, out.Report.value(name))
			}
		}
	}

	// Two traced runs of a seed report identical counts.
	again := mustRun(t, tinyConfig(t, wlTiered, true)).Report
	for _, name := range exactAcrossRuns {
		if a, b := byWorkload[wlTiered].value(name), again.value(name); a != b {
			t.Errorf("%s differs between two runs of one seed: %g and %g", name, a, b)
		}
	}
	// The three storage policies report the same work.
	for _, name := range exactAcrossPolicies {
		want := byWorkload[wlResident].value(name)
		for _, w := range []string{wlCompressed, wlTiered} {
			if got := byWorkload[w].value(name); got != want {
				t.Errorf("%s: %s = %g, %s has %g", w, name, got, wlResident, want)
			}
		}
	}
	// Each layer's numbers appear on the workload that passes through it and
	// read zero elsewhere.
	for name, on := range map[string]string{
		"pager.faults": wlTiered, "pager.evictions": wlTiered, "pager.hit_ns": wlTiered,
		"bitvec.and_cold_fault_ns_per_and": wlTiered, "sigfile.tier_ms": wlTiered,
		"bitvec.and_sparse_enc_ns_per_and": wlCompressed, "sigfile.set_compression_ms": wlCompressed,
		"shard.merged_ms": wlServe, "serve.stage_ms_p50.mine": wlServe, "sigfile.snapshot_us": wlServe,
	} {
		for _, w := range workloads {
			v := byWorkload[w.Name].value(name)
			if (w.Name == on) != (v > 0) {
				t.Errorf("%s: %s = %g", w.Name, name, v)
			}
		}
	}
	if r := byWorkload[wlCompressed].value("sigfile.compression_ratio"); r <= 1 {
		t.Errorf("compression ratio %g, want above 1", r)
	}
}

// A wrong answer is a failed operation.
func TestWrongAnswerFails(t *testing.T) {
	if err := checkPatterns([]pattern{{Items: []int32{1, 2}, Support: 3, Exact: true}}, truth{mining.Key([]int32{1, 2}): 4}); err == nil {
		t.Error("a wrong exact support passed")
	}
	if err := checkPatterns([]pattern{{Items: []int32{1, 2}, Support: 3}}, truth{mining.Key([]int32{1, 2}): 4}); err == nil {
		t.Error("an undercounting estimate passed")
	}
	if err := checkPatterns([]pattern{{Items: []int32{1, 2}, Support: 5}}, truth{mining.Key([]int32{1, 2}): 4}); err != nil {
		t.Errorf("an overcounting estimate failed: %v", err)
	}
	if err := checkPatterns(nil, truth{mining.Key([]int32{1, 2}): 4}); err == nil {
		t.Error("a missing pattern passed")
	}
	var led ledger
	if !led.sameAnswer("[1 1]|DFP@0.003", [32]byte{1}) || led.sameAnswer("[1 1]|DFP@0.003", [32]byte{2}) {
		t.Error("two answers to one query at one epoch vector were not told apart")
	}
}

func TestRepeatAndCompare(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig(t, wlResident, false)
	var log bytes.Buffer
	paths := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for _, p := range paths {
		if err := runRepeat(&log, cfg, 2, p); err != nil {
			t.Fatal(err)
		}
	}
	f, err := readRepeat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Seeds) != 2 || f.Seeds[1] != f.Seeds[0]+1 || f.Host.GoVersion == "" || len(f.Metrics) != len(endToEnd) {
		t.Errorf("repeat file: seeds %v, host %+v, %d metrics", f.Seeds, f.Host, len(f.Metrics))
	}
	for name, row := range f.Metrics {
		if len(row.Values) != 2 || row.Q1 > row.Median || row.Median > row.Q3 {
			t.Errorf("%s: %+v", name, row)
		}
	}
	var table bytes.Buffer
	// Two-run medians at this scale are noisy: only the table's shape is checked.
	_ = runCompare(&table, paths[0], paths[1])
	if got := strings.Count(table.String(), "\n"); got != len(endToEnd) {
		t.Errorf("-compare printed %d rows, want %d:\n%s", got, len(endToEnd), table.String())
	}
}
