package exp

import (
	"os"
	"path/filepath"
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

func TestMergeLoadRecordsReplacesByScheme(t *testing.T) {
	path := filepath.Join(t.TempDir(), "load.json")
	// Seed the file with a record of another class that must survive merging.
	if err := MergeRecords(path, []LoadRecord{sampleLoadRecord("load-mixed-write", 9e6, 0)}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	if err := MergeRecords(path, []LoadRecord{sampleLoadRecord("load-mixed-read", 5e6, 0)}); err != nil {
		t.Fatalf("merge: %v", err)
	}
	// Re-merge with a new value: the record is replaced, not duplicated.
	if err := MergeRecords(path, []LoadRecord{sampleLoadRecord("load-mixed-read", 7e6, 0)}); err != nil {
		t.Fatalf("re-merge: %v", err)
	}
	got, err := ReadLoadRecords(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 2 || got[0].Scheme != "load-mixed-write" || got[1].Scheme != "load-mixed-read" || got[1].P99Ns != 7e6 {
		t.Fatalf("read back %+v, want the write record then the read record with p99=7e6", got)
	}
}

func TestReadLoadRecordsRejectsIncompleteRecords(t *testing.T) {
	for name, body := range map[string]string{
		"mining record": `[{"scheme":"DFP","tau":5,"wall_ns":123}]`,
		"no class":      `[{"scheme":"load-mixed-read","workload":"mixed","p99_ns":1}]`,
		"no workload":   `[{"scheme":"load-mixed-read","class":"read","p99_ns":1}]`,
		"not an array":  `{"scheme":"load-mixed-read","workload":"mixed","class":"read"}`,
	} {
		path := filepath.Join(t.TempDir(), "load.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadLoadRecords(path); err == nil {
			t.Errorf("%s: read %+v without an error", name, got)
		}
		if err := MergeRecords(path, []LoadRecord{sampleLoadRecord("load-mixed-read", 5e6, 0)}); err == nil {
			t.Errorf("%s: merged into a malformed file", name)
		}
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
