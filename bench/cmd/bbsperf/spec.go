package main

import (
	"fmt"
	"sort"
)

// The benchmark's vocabulary: the workloads and every metric it reports.
// BENCHMARK.json at the repository root declares the same lists to the
// driver; TestSpecMatchesBenchmarkJSON keeps the two identical.

// runSeconds is the timed window BENCHMARK.json asks the driver to pass.
const runSeconds = 20

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	wlResident   = "mine-resident"
	wlCompressed = "mine-compressed"
	wlTiered     = "mine-tiered"
	wlServe      = "serve-mixed"
)

var workloads = []workloadSpec{
	{wlResident, "dense index that fits in memory: pure CPU in core.evalExtension and the dense bitvec kernels; pager and compressed kernels do nothing here"},
	{wlCompressed, "same data and ops after SetCompression(true): nearly every AND runs a compressed-slice kernel, so an encoding change shows here and not on mine-resident"},
	{wlTiered, "same data and ops under a 1.0 MB budget against 2.0 MB of slices: larger than the cache, so pager faults and the cold kernels dominate"},
	{wlServe, "2-shard file-backed serve.Engine, two closed-loop HTTP clients, 90% /mine over 15 shapes and 10% /txns: writes beside reads, every write invalidates cache and merged view"},
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a caller of the system sees. Every workload reports
// every one of them; README.md says what each measures on which workload.
var endToEnd = []boundedMetric{
	{"setup_s", "s", lower, 0.25},
	{"mine_dfp_ms_p50", "ms", lower, 0.15},
	{"mine_sfs_ms_p50", "ms", lower, 0.15},
	{"read_us_p50", "us", lower, 0.25},
	{"write_ms_p50", "ms", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.15},
	{"index_bytes_per_item", "B", lower, 0.02},
	{"heap_live_mb", "MB", lower, 0.25},
}

// perLayer lists the traced run's numbers, <module>.<metric>. A metric of a
// layer the workload does not pass through reads 0.
var perLayer = []layerMetric{
	{"bbsmine.count_us_p90", "us", lower},
	{"bitvec.and_dense_ns_per_word", "ns", lower},
	{"bitvec.and_summarized_ns_per_word", "ns", lower},
	{"bitvec.and_sparse_enc_ns_per_and", "ns", lower},
	{"bitvec.and_rle_enc_ns_per_and", "ns", lower},
	{"bitvec.and_cold_hit_ns_per_and", "ns", lower},
	{"bitvec.and_cold_fault_ns_per_and", "ns", lower},
	{"bitvec.pool_miss_ratio", "ratio", lower},
	{"sighash.positions_ns_per_item", "ns", lower},
	{"sigfile.count_into_ns", "ns", lower},
	{"sigfile.and_slice_ns", "ns", lower},
	{"sigfile.insert_us", "us", lower},
	{"sigfile.snapshot_us", "us", lower},
	{"sigfile.set_compression_ms", "ms", lower},
	{"sigfile.tier_ms", "ms", lower},
	{"sigfile.slice_bytes", "B", lower},
	{"sigfile.compression_ratio", "ratio", higher},
	{"sigfile.slices_dense", "count", lower},
	{"sigfile.slices_sparse", "count", higher},
	{"sigfile.slices_rle", "count", higher},
	{"sigfile.slices_hot", "count", higher},
	{"sigfile.slices_cold", "count", lower},
	{"core.mine_ms.SFS", "ms", lower},
	{"core.mine_ms.DFS", "ms", lower},
	{"core.mine_ms.SFP", "ms", lower},
	{"core.mine_ms.DFP", "ms", lower},
	{"core.phase_ms.level1", "ms", lower},
	{"core.phase_ms.enumerate", "ms", lower},
	{"core.phase_ms.scan_refine", "ms", lower},
	{"core.evals", "count", lower},
	{"core.slice_ands", "count", lower},
	{"core.early_exits", "count", higher},
	{"core.words_dense", "count", lower},
	{"core.words_sparse", "count", lower},
	{"core.ands_enc_dense", "count", lower},
	{"core.ands_enc_sparse", "count", lower},
	{"core.ands_enc_rle", "count", lower},
	{"core.poscache_hit_ratio", "ratio", higher},
	{"core.candidates", "count", lower},
	{"core.false_drops", "count", lower},
	{"core.probes", "count", lower},
	{"core.certified_ratio", "ratio", higher},
	{"core.ns_per_eval", "ns", lower},
	{"core.ns_per_word", "ns", lower},
	{"core.residual_pct", "%", lower},
	{"core.dfp_over_fpgrowth", "ratio", lower},
	{"txdb.get_us", "us", lower},
	{"txdb.scan_ns_per_tx", "ns", lower},
	{"txdb.append_us", "us", lower},
	{"txdb.page_reads", "count", lower},
	{"pager.faults", "count", lower},
	{"pager.hits", "count", higher},
	{"pager.evictions", "count", lower},
	{"pager.hit_ratio", "ratio", higher},
	{"pager.resident_bytes", "B", lower},
	{"pager.hit_ns", "ns", lower},
	{"pager.fault_ns", "ns", lower},
	{"shard.merged_ms", "ms", lower},
	{"shard.count_us", "us", lower},
	{"shard.append_us", "us", lower},
	{"serve.stage_ms_p50.queue", "ms", lower},
	{"serve.stage_ms_p50.cache", "ms", lower},
	{"serve.stage_ms_p50.bind", "ms", lower},
	{"serve.stage_ms_p50.mine", "ms", lower},
	{"serve.stage_ms_p50.render", "ms", lower},
	{"serve.commit_ms_p50", "ms", lower},
	{"serve.http_overhead_ms_p50", "ms", lower},
	{"serve.read_miss_ms_p50", "ms", lower},
	{"serve.read_ms_p90", "ms", lower},
	{"serve.write_ms_p90", "ms", lower},
	{"serve.cache_hit_ratio", "ratio", higher},
	{"serve.shared_flights", "count", higher},
	{"serve.admission_rejected", "count", lower},
	{"fptree.mine_ms", "ms", lower},
	{"apriori.mine_ms", "ms", lower},
	{"proc.cpu_s", "s", lower},
	{"proc.gc_pause_ms", "ms", lower},
	{"proc.allocs_per_mine", "count", lower},
	{"proc.rss_peak_mb", "MB", lower},
	{"trace.overhead_pct", "%", lower},
}

// measurement is one reported value; N is the number of samples behind it
// (0 for a count or a gauge read once). Thin marks a tail percentile with
// fewer than minBeyond samples above it.
type measurement struct {
	Value float64
	N     int
	Thin  bool
}

// report collects a run's values by metric name.
type report map[string]measurement

func (r report) set(name string, v float64)         { r[name] = measurement{Value: v} }
func (r report) setN(name string, v float64, n int) { r[name] = measurement{Value: v, N: n} }
func (r report) value(name string) float64          { return r[name].Value }

// setMedian reports the median of s, in units of div nanoseconds.
func (r report) setMedian(name string, s samples, div float64) {
	r.setN(name, s.median()/div, len(s))
}

// setTail reports the p-th percentile of s, in units of div nanoseconds.
func (r report) setTail(name string, s samples, p, div float64) {
	r[name] = measurement{Value: s.percentile(p) / div, N: len(s), Thin: beyond(len(s), p) < minBeyond}
}
func (r report) sorted() []string {
	names := make([]string, 0, len(r))
	for n := range r {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// unitsOf returns the declared unit of every metric the run mode reports:
// the end-to-end list with tracing off, the per-layer list with it on.
func unitsOf(traced bool) map[string]string {
	units := make(map[string]string)
	if traced {
		for _, m := range perLayer {
			units[m.Name] = m.Unit
		}
		return units
	}
	for _, m := range endToEnd {
		units[m.Name] = m.Unit
	}
	return units
}

// checkComplete verifies a run reported exactly its mode's metrics. A traced
// run may leave a layer it never touched unset; those read 0.
func checkComplete(r report, traced bool) error {
	units := unitsOf(traced)
	for _, name := range r.sorted() {
		if _, ok := units[name]; !ok {
			return fmt.Errorf("metric %q is not declared in spec.go", name)
		}
	}
	for name := range units {
		if _, ok := r[name]; ok {
			continue
		}
		if !traced {
			return fmt.Errorf("end-to-end metric %q was not measured", name)
		}
		r.set(name, 0)
	}
	return nil
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
