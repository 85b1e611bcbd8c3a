package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleLoadRecord(scheme string, p99 int64, errRate float64) LoadRecord {
	return LoadRecord{
		Scheme: scheme, Workload: "mixed", Class: "read",
		TargetRPS: 50, AchievedRPS: 49, DurationNs: 1e9, Seed: 1,
		Sent: 50, OK: 49, P50Ns: p99 / 4, P95Ns: p99 / 2, P99Ns: p99, P999Ns: p99, MaxNs: p99,
		ErrorRate: errRate,
	}
}

func TestMergeLoadRecordsPreservesBenchRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	// Seed the file with a mining bench record that must survive merging.
	seed := `[{"scheme":"DFP","tau":5,"wall_ns":123}]`
	if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := MergeRecords(path, []LoadRecord{sampleLoadRecord("load-mixed-read", 5e6, 0)}); err != nil {
		t.Fatalf("merge: %v", err)
	}
	// Re-merge with a new value: the load record is replaced, not duplicated.
	if err := MergeRecords(path, []LoadRecord{sampleLoadRecord("load-mixed-read", 7e6, 0)}); err != nil {
		t.Fatalf("re-merge: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"scheme": "DFP"`) && !strings.Contains(string(data), `"scheme":"DFP"`) {
		t.Errorf("mining record lost: %s", data)
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(data, &raws); err != nil {
		t.Fatalf("merged file unparseable: %v", err)
	}
	if len(raws) != 2 {
		t.Fatalf("merged file has %d records, want 2 (bench + load)", len(raws))
	}

	got, err := ReadLoadRecords(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 1 || got[0].P99Ns != 7e6 {
		t.Fatalf("read back %+v, want one load record with p99=7e6", got)
	}
}

func TestCompareLoad(t *testing.T) {
	base := []LoadRecord{sampleLoadRecord("load-mixed-read", 100e6, 0.01)}

	// Within the allowance: fine.
	if err := CompareLoad(base, []LoadRecord{sampleLoadRecord("load-mixed-read", 115e6, 0.01)}, 0.20, 0); err != nil {
		t.Errorf("15%% regression rejected under a 20%% allowance: %v", err)
	}
	// Past the allowance and the floor: rejected.
	if err := CompareLoad(base, []LoadRecord{sampleLoadRecord("load-mixed-read", 130e6, 0.01)}, 0.20, 5e6); err == nil {
		t.Error("30% regression accepted")
	}
	// Past the allowance but under the absolute floor: noise, accepted.
	small := []LoadRecord{sampleLoadRecord("load-mixed-read", 2e6, 0)}
	if err := CompareLoad(small, []LoadRecord{sampleLoadRecord("load-mixed-read", 3e6, 0)}, 0.20, 25e6); err != nil {
		t.Errorf("sub-floor regression rejected: %v", err)
	}
	// Error-rate regressions gate too.
	if err := CompareLoad(base, []LoadRecord{sampleLoadRecord("load-mixed-read", 100e6, 0.20)}, 0.20, 0); err == nil {
		t.Error("error-rate explosion accepted")
	}
	// Disjoint schemes: the comparison must refuse to vacuously pass.
	if err := CompareLoad(base, []LoadRecord{sampleLoadRecord("load-other-read", 1e6, 0)}, 0.20, 0); err == nil {
		t.Error("disjoint record sets compared as success")
	}
}
