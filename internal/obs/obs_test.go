package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRegistry drives every method through a nil receiver: the disabled
// state must be completely inert, and Metrics on it must be the zero value.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.BindIO(nil)
	r.SetTracer(nil)
	if r.Tracing() {
		t.Error("nil registry reports Tracing() = true")
	}
	tick := r.Tick()
	if !tick.t.IsZero() {
		t.Error("nil registry handed out a live tick")
	}
	r.PhaseDone(PhaseMine, tick)
	r.AddFunnel(Funnel{Candidates: 1})
	r.AddKernel(KernelSample{Evals: 1})
	r.ObserveAndDepth(3)
	r.AddPool(1, 1)
	r.AddScanBatch(10, 2)
	r.Emit(Event{Kind: "descend"})
	r.Publish("nil-registry")
	m := r.Metrics()
	if m.Funnel != (FunnelMetrics{}) || m.Kernel != (KernelMetrics{}) ||
		m.Phases != nil || m.IO != nil || m.Trace != nil {
		t.Errorf("nil registry Metrics() = %+v, want zero", m)
	}
}

// TestRegistryCounters checks that each Add method lands in the matching
// snapshot section.
func TestRegistryCounters(t *testing.T) {
	r := New()
	r.AddFunnel(Funnel{Candidates: 5, CertifiedActual: 2, CertifiedEst: 1, Uncertain: 2, Level1Skipped: 3,
		ProbedPatterns: 1, FalseDrops: 1, Verified: 4, Patterns: 4})
	r.AddFunnel(Funnel{Candidates: 1})
	r.AddKernel(KernelSample{Evals: 7, EarlyExits: 3, AndsSparse: 4, AndsDense: 6,
		WordsSparse: 40, WordsDense: 600, PosCacheHits: 5, PosCacheMisses: 2})
	r.AddPool(10, 4)
	r.AddScanBatch(100, 9)
	r.AddScanBatch(50, 1)

	m := r.Metrics()
	if m.Funnel.Candidates != 6 || m.Funnel.CertifiedActual != 2 || m.Funnel.Level1Skipped != 3 {
		t.Errorf("funnel = %+v", m.Funnel)
	}
	if m.Kernel.Evals != 7 || m.Kernel.WordsDense != 600 || m.Kernel.PosCacheMisses != 2 {
		t.Errorf("kernel = %+v", m.Kernel)
	}
	if m.Cache.PoolGets != 10 || m.Cache.PoolMisses != 4 {
		t.Errorf("cache = %+v", m.Cache)
	}
	if m.Funnel.ScanBatches != 2 || m.Funnel.ScanTx != 150 || m.Funnel.ScanMatches != 10 {
		t.Errorf("scan tallies = %+v", m.Funnel)
	}
}

// TestPhaseTimers checks that PhaseDone accumulates time and call counts
// under the right snake_case keys and ignores zero ticks.
func TestPhaseTimers(t *testing.T) {
	r := New()
	tick := r.Tick()
	time.Sleep(time.Millisecond)
	r.PhaseDone(PhaseLevel1, tick)
	r.PhaseDone(PhaseLevel1, r.Tick())
	r.PhaseDone(PhaseScanRefine, Tick{}) // zero tick: ignored

	m := r.Metrics()
	ph, ok := m.Phases["level1"]
	if !ok || ph.Calls != 2 || ph.Ns <= 0 {
		t.Errorf(`Phases["level1"] = %+v, ok=%v; want 2 calls, positive ns`, ph, ok)
	}
	if _, ok := m.Phases["scan_refine"]; ok {
		t.Error("zero tick recorded a scan_refine phase")
	}
}

// TestHistogram pins the power-of-two bucketing: bucket keys are the
// inclusive upper bounds 2^i - 1 and negatives clamp to the zero bucket.
func TestHistogram(t *testing.T) {
	var h HistStats
	h.Observe(0)
	h.Observe(-5) // clamps to 0
	h.Observe(1)
	h.Observe(7)
	h.Observe(8)

	m := h.Metrics()
	if m.Count != 5 || m.Sum != 16 {
		t.Errorf("count=%d sum=%d, want 5/16", m.Count, m.Sum)
	}
	want := map[string]int64{"0": 2, "1": 1, "7": 1, "15": 1}
	for k, n := range want {
		if m.Buckets[k] != n {
			t.Errorf("bucket %q = %d, want %d", k, m.Buckets[k], n)
		}
	}
	if len(m.Buckets) != len(want) {
		t.Errorf("buckets = %v, want exactly %v", m.Buckets, want)
	}
}

// TestTracerSampling checks the keep-every-Nth contract and the Seq
// stamping of kept events.
func TestTracerSampling(t *testing.T) {
	var buf bytes.Buffer
	r := New()
	r.SetTracer(NewTracer(&buf, 3))
	if !r.Tracing() {
		t.Fatal("Tracing() = false with a tracer attached")
	}
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: "descend", Subtree: -1})
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // events 3, 6, 9
		t.Fatalf("kept %d events, want 3:\n%s", len(lines), buf.String())
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 0 is not an Event: %v", err)
	}
	if e.Seq != 3 || e.Kind != "descend" {
		t.Errorf("first kept event = %+v, want seq 3 kind descend", e)
	}
	m := r.Metrics()
	if m.Trace == nil || m.Trace.Seen != 10 || m.Trace.Kept != 3 {
		t.Errorf("trace metrics = %+v, want seen 10 kept 3", m.Trace)
	}
}

// TestTracerConcurrent hammers Emit from several goroutines; -race plus the
// seen/kept accounting pin the mutex/atomic split.
func TestTracerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	r := New()
	r.SetTracer(NewTracer(&buf, 2))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				r.Emit(Event{Kind: "descend"})
			}
		}()
	}
	wg.Wait()
	m := r.Metrics()
	if m.Trace.Seen != 1000 || m.Trace.Kept != 500 {
		t.Errorf("seen=%d kept=%d, want 1000/500", m.Trace.Seen, m.Trace.Kept)
	}
	if n := strings.Count(buf.String(), "\n"); int64(n) != m.Trace.Kept {
		t.Errorf("wrote %d lines, kept says %d", n, m.Trace.Kept)
	}
}

// TestFlagName covers the CheckCount flag naming.
func TestFlagName(t *testing.T) {
	names := map[int]string{-1: "unknown", 0: "uncertain", 1: "actual", 2: "est_bound", 9: "unknown"}
	for flag, want := range names {
		if got := FlagName(flag); got != want {
			t.Errorf("FlagName(%d) = %q, want %q", flag, got, want)
		}
	}
}

// TestPhaseString covers the phase names used as metric keys.
func TestPhaseString(t *testing.T) {
	want := []string{"mine", "level1", "enumerate", "scan_refine", "fold", "reverify"}
	for p, name := range want {
		if got := Phase(p).String(); got != name {
			t.Errorf("Phase(%d).String() = %q, want %q", p, got, name)
		}
	}
	if got := Phase(99).String(); got != "unknown" {
		t.Errorf("out-of-range phase = %q, want unknown", got)
	}
}
