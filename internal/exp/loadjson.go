package exp

// Machine-readable output for bbsload: one record per workload class of an
// open-loop run, carrying the SLO quantiles (measured from intended send
// time, so coordinated omission is accounted for), the error/shed split and
// the achieved rate. A record file is a JSON array of load records keyed by
// their "scheme" field, and CI compares fresh records against the baseline
// checked in as cmd/bbsload/testdata/baseline.json to gate latency
// regressions.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// LoadRecord is one (workload, class) measurement from an open-loop load
// run. Scheme is the merge key of a record file and is always
// "load-<workload>-<class>".
type LoadRecord struct {
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"` // read-heavy | write-heavy | mixed | ...
	Class    string `json:"class"`    // read | write

	// The open-loop shape: the target rate the generator held, the rate the
	// server actually absorbed (ok responses per second of run time), and
	// the run length.
	TargetRPS   float64 `json:"target_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	DurationNs  int64   `json:"duration_ns"`
	Seed        int64   `json:"seed"`

	// The outcome split. Sent counts requests actually put on the wire;
	// Shed counts intended sends the generator refused because too many
	// requests were already outstanding — they are failures of the system
	// under test, not of the generator, and score against the error budget.
	Sent     int64 `json:"sent"`
	OK       int64 `json:"ok"`
	Errors   int64 `json:"errors"`
	Deadline int64 `json:"deadline_exceeded"`
	Shed     int64 `json:"shed"`

	// Latency quantiles in ns, measured from the intended (scheduled) send
	// time of each request — a stalled server inflates these instead of
	// silently thinning the sample.
	P50Ns  int64 `json:"p50_ns"`
	P95Ns  int64 `json:"p95_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
	MaxNs  int64 `json:"max_ns"`

	// ErrorRate is (errors + deadline + shed) / intended sends.
	ErrorRate float64 `json:"error_rate"`

	// Server-side cross-check: of the OK responses carrying a Server-Timing
	// header, how many reported a stage sum ≤ the client-measured latency
	// (all of them, or the server's decomposition is lying).
	TimingSampled int64 `json:"timing_sampled"`
	TimingAgreed  int64 `json:"timing_agreed"`
}

// ReadLoadRecords reads a load record file. A record without a scheme,
// workload or class is an error: such an entry would drop out of the
// comparison unseen.
func ReadLoadRecords(path string) ([]LoadRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("exp: reading %s: %w", path, err)
	}
	var records []LoadRecord
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("exp: parsing %s: %w", path, err)
	}
	for i, r := range records {
		if r.Scheme == "" || r.Workload == "" || r.Class == "" {
			return nil, fmt.Errorf("exp: %s: record %d has no scheme, workload or class", path, i)
		}
	}
	return records, nil
}

// MergeRecords merges load records into the record file at path (created
// if absent): an existing record whose scheme one of the records has is
// dropped, every other one is kept in place, and the records are appended
// in order, so reruns do not accumulate.
func MergeRecords(path string, records []LoadRecord) error {
	existing, err := ReadLoadRecords(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	replaced := make(map[string]bool, len(records))
	for _, r := range records {
		replaced[r.Scheme] = true
	}
	merged := make([]LoadRecord, 0, len(existing)+len(records))
	for _, r := range existing {
		if !replaced[r.Scheme] {
			merged = append(merged, r)
		}
	}
	merged = append(merged, records...)
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return fmt.Errorf("exp: encoding %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CompareLoad gates a fresh run against a baseline: for every scheme key
// present in both, the new p99 must not exceed the old by more than
// maxRegress (fractional, e.g. 0.20) once the regression is also larger
// than floorNs — the absolute floor keeps noise-level wobble on a
// sub-millisecond p99 from failing CI. Error rates must not grow past the
// same fractional allowance with an absolute floor of one percentage
// point. Returns an error describing every violation, or nil.
func CompareLoad(baseline, fresh []LoadRecord, maxRegress float64, floorNs int64) error {
	base := make(map[string]LoadRecord, len(baseline))
	for _, r := range baseline {
		base[r.Scheme] = r
	}
	var violations []string
	compared := 0
	for _, n := range fresh {
		o, ok := base[n.Scheme]
		if !ok {
			continue
		}
		compared++
		if allowed := int64(float64(o.P99Ns) * (1 + maxRegress)); n.P99Ns > allowed && n.P99Ns-o.P99Ns > floorNs {
			violations = append(violations, fmt.Sprintf(
				"%s: p99 %.3fms regressed beyond %.3fms (baseline %.3fms, max +%.0f%%)",
				n.Scheme, float64(n.P99Ns)/1e6, float64(allowed)/1e6, float64(o.P99Ns)/1e6, maxRegress*100))
		}
		if n.ErrorRate > o.ErrorRate*(1+maxRegress) && n.ErrorRate-o.ErrorRate > 0.01 {
			violations = append(violations, fmt.Sprintf(
				"%s: error rate %.2f%% regressed from %.2f%%",
				n.Scheme, n.ErrorRate*100, o.ErrorRate*100))
		}
	}
	if compared == 0 {
		return fmt.Errorf("exp: no load records in common between baseline and fresh run")
	}
	if len(violations) > 0 {
		msg := violations[0]
		for _, v := range violations[1:] {
			msg += "; " + v
		}
		return fmt.Errorf("exp: load regression: %s", msg)
	}
	return nil
}
