package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bbsmine/internal/exp"
	"bbsmine/internal/iostat"
	"bbsmine/internal/obs"
	"bbsmine/internal/serve"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
	"bbsmine/internal/weblog"
)

func TestBuildPlanDeterministic(t *testing.T) {
	a, err := buildPlan(42, 100, 2*time.Second, 0.2)
	if err != nil {
		t.Fatalf("buildPlan: %v", err)
	}
	b, err := buildPlan(42, 100, 2*time.Second, 0.2)
	if err != nil {
		t.Fatalf("buildPlan: %v", err)
	}
	if len(a) != 200 {
		t.Fatalf("plan length = %d, want 200", len(a))
	}
	reads, writes := 0, 0
	for i := range a {
		if a[i].class != b[i].class || a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("plans diverge at %d with the same seed", i)
		}
		if a[i].class == obs.ClassWrite {
			writes++
		} else {
			reads++
		}
	}
	if writes == 0 || reads == 0 {
		t.Fatalf("degenerate mix: %d reads, %d writes", reads, writes)
	}

	c, err := buildPlan(43, 100, 2*time.Second, 0.2)
	if err != nil {
		t.Fatalf("buildPlan: %v", err)
	}
	same := 0
	for i := range a {
		if a[i].class == c[i].class && bytes.Equal(a[i].body, c[i].body) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestServerTimingAgrees(t *testing.T) {
	for _, tc := range []struct {
		header   string
		clientNs int64
		want     bool
	}{
		{"mine;dur=1.000, total;dur=1.500", 2_000_000, true},
		{"mine;dur=1.000, total;dur=1.500", 1_000_000, false}, // server total > client
		{"mine;dur=2.000, total;dur=1.500", 3_000_000, false}, // stage sum > total
		{"garbage", 1_000_000, false},
		{"total;dur=0.5", 1_000_000, true},
	} {
		if got := serverTimingAgrees(tc.header, tc.clientNs); got != tc.want {
			t.Errorf("serverTimingAgrees(%q, %d) = %v, want %v", tc.header, tc.clientNs, got, tc.want)
		}
	}
}

// TestFireAgainstLiveEngine is the harness's end-to-end loop in miniature: a
// real serving engine behind httptest, a deterministic mixed plan fired
// open-loop, and the resulting records must show per-class quantiles, no
// errors, and Server-Timing agreement on every sampled response.
func TestFireAgainstLiveEngine(t *testing.T) {
	stats := &iostat.Stats{}
	idx := sigfile.New(sighash.NewFNV(128, 3), stats)
	log := txdb.NewAppendLog(stats)
	// Short sessions over many files keep co-occurrence — and so the
	// frequent-pattern count — small: the test measures the harness, not
	// the miner, and must stay fast even at the plan's τ = 2% floor.
	w, err := weblog.Generate(weblog.Config{
		Files: 60, HotFraction: 0.2, ChurnFraction: 0.1, SessionSize: 3,
		HotBias: 0.6, BaseTransactions: 500, IncrementTransactions: 10, Days: 1, Seed: 9,
	})
	if err != nil {
		t.Fatalf("weblog: %v", err)
	}
	for _, tx := range w.Base {
		if err := log.Append(tx); err != nil {
			t.Fatalf("seeding: %v", err)
		}
		idx.Insert(tx.Items)
	}
	// Generous admission limits: the test asserts a zero error budget, so
	// the ~15 distinct cold queries must be allowed to queue rather than be
	// shed while the cache warms on a loaded test machine.
	e, err := serve.New(serve.Options{Index: idx, Log: log, Observe: obs.New(),
		MaxInFlight: 8, MaxQueue: 256})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()
	defer e.Close()

	plan, err := buildPlan(7, 80, 1*time.Second, 0.25)
	if err != nil {
		t.Fatalf("buildPlan: %v", err)
	}
	res := fire(ts.URL, plan, 200, 60*time.Second, 64) // fire fast: the schedule, not the wall, bounds the test
	records := buildRecords("smoke", 200, 1*time.Second, 7, res)
	if len(records) != 2 {
		t.Fatalf("got %d records, want read+write", len(records))
	}
	for _, r := range records {
		if r.Sent == 0 || r.OK == 0 {
			t.Errorf("%s: sent=%d ok=%d", r.Class, r.Sent, r.OK)
		}
		if r.Errors > 0 || r.Deadline > 0 {
			t.Errorf("%s: errors=%d deadlines=%d against a healthy engine", r.Class, r.Errors, r.Deadline)
		}
		if r.P99Ns <= 0 || r.P50Ns > r.P99Ns {
			t.Errorf("%s: quantiles p50=%d p99=%d", r.Class, r.P50Ns, r.P99Ns)
		}
		if r.Class == "read" && r.TimingSampled == 0 {
			t.Error("read class sampled no Server-Timing headers")
		}
		if r.TimingAgreed != r.TimingSampled {
			t.Errorf("%s: server timing disagreed on %d of %d responses",
				r.Class, r.TimingSampled-r.TimingAgreed, r.TimingSampled)
		}
	}
	if err := checkGates(records, 30*time.Second, 30*time.Second, 0.5); err != nil {
		t.Errorf("gates failed on a healthy run: %v", err)
	}

	// The merged record file round-trips through the compare gate.
	out := filepath.Join(t.TempDir(), "load.json")
	if err := exp.MergeRecords(out, records); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := runCompare(out, out, 0.2, 0); err != nil {
		t.Errorf("self-compare failed: %v", err)
	}
}

// TestCompareBaseline checks the baseline CI compares against and the
// strictness of the compare mode: the checked-in baseline reads as five load
// records and passes against itself, and a baseline with a record missing
// its class fails the compare instead of dropping out of it.
func TestCompareBaseline(t *testing.T) {
	const baseline = "testdata/baseline.json"
	records, err := exp.ReadLoadRecords(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 5 {
		t.Fatalf("%s holds %d load records, want 5", baseline, len(records))
	}
	if err := run([]string{"-compare", baseline, baseline}); err != nil {
		t.Errorf("the baseline failed against itself: %v", err)
	}

	// One good record keeps the comparison non-empty, so only the strict
	// read can fail it.
	good, err := json.Marshal(records[0])
	if err != nil {
		t.Fatal(err)
	}
	malformed := filepath.Join(t.TempDir(), "baseline.json")
	body := "[" + string(good) + `,{"scheme":"load-mixed-write","workload":"mixed","p99_ns":1000000}]`
	if err := os.WriteFile(malformed, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-compare", malformed, baseline}); err == nil {
		t.Error("compare accepted a baseline whose record has no class")
	}
}
