// Command bbsload is an open-loop load generator for bbsd. It fires a mixed
// workload — zipfian-skewed mining queries over (scheme, τ, constraint)
// combos and weblog-style append batches — at a fixed target rate with a
// per-request deadline, and measures every latency from the request's
// intended send time, never its actual one, so a stalled server inflates
// the quantiles instead of silently thinning the sample (the coordinated
// omission trap). At the end it prints a human-readable SLO report, gates
// on the thresholds it was given, and can merge per-class quantile records
// into a record file for CI regression comparison against the baseline in
// testdata/baseline.json.
//
// The whole request plan is generated up front from -seed, so two runs with
// the same flags fire byte-identical request sequences; only the measured
// latencies differ.
//
// Usage:
//
//	bbsload -addr http://127.0.0.1:8080 -rps 50 -duration 10s -seed 1
//	bbsload -compare -max-regress 0.20 cmd/bbsload/testdata/baseline.json fresh.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bbsmine/internal/exp"
	"bbsmine/internal/obs"
	"bbsmine/internal/serve"
	"bbsmine/internal/weblog"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bbsload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bbsload", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "http://127.0.0.1:8080", "bbsd base URL")
		rps       = fs.Float64("rps", 50, "target request rate, requests/second")
		duration  = fs.Duration("duration", 10*time.Second, "run length")
		writeFrac = fs.Float64("write-frac", 0.1, "fraction of requests that are writes")
		seed      = fs.Int64("seed", 1, "request-plan seed; same seed, same request sequence")
		deadline  = fs.Duration("deadline", 2*time.Second, "per-request deadline")
		workload  = fs.String("workload", "mixed", "workload label recorded with the results")
		maxOut    = fs.Int("max-outstanding", 64, "outstanding-request cap; intended sends beyond it are counted as shed")
		out       = fs.String("out", "", "merge per-class load records into this JSON record file")
		report    = fs.String("report", "", "also write the SLO report to this file")

		sloReadP99  = fs.Duration("slo-read-p99", 0, "fail if read p99 exceeds this (0 = no gate)")
		sloWriteP99 = fs.Duration("slo-write-p99", 0, "fail if write p99 exceeds this (0 = no gate)")
		maxErrRate  = fs.Float64("max-error-rate", 1, "fail if a class's error rate (errors+deadlines+shed over intended) exceeds this")

		compare    = fs.Bool("compare", false, "compare mode: bbsload -compare baseline.json fresh.json")
		maxRegress = fs.Float64("max-regress", 0.20, "compare: allowed fractional p99 regression")
		floor      = fs.Duration("floor", 25*time.Millisecond, "compare: ignore p99 regressions smaller than this")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("compare mode wants exactly two files: bbsload -compare baseline.json fresh.json")
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *maxRegress, floor.Nanoseconds())
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *rps <= 0 || *duration <= 0 {
		return fmt.Errorf("need -rps > 0 and -duration > 0")
	}
	if *writeFrac < 0 || *writeFrac > 1 {
		return fmt.Errorf("-write-frac %v outside [0,1]", *writeFrac)
	}

	plan, err := buildPlan(*seed, *rps, *duration, *writeFrac)
	if err != nil {
		return err
	}
	res := fire(*addr, plan, *rps, *deadline, *maxOut)

	rep := renderReport(*addr, *workload, *rps, *duration, *seed, res)
	fmt.Print(rep)
	if *report != "" {
		if err := os.WriteFile(*report, []byte(rep), 0o644); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
	}
	records := buildRecords(*workload, *rps, *duration, *seed, res)
	if *out != "" {
		if err := exp.MergeRecords(*out, records); err != nil {
			return err
		}
		fmt.Printf("merged %d load records into %s\n", len(records), *out)
	}
	return checkGates(records, *sloReadP99, *sloWriteP99, *maxErrRate)
}

// request is one planned send: its class, pre-encoded body and endpoint.
type request struct {
	class obs.RequestClass
	path  string
	body  []byte
}

// buildPlan pre-generates the whole request sequence from the seed: class
// choices, zipfian query picks and weblog write batches. Nothing random
// happens after this returns.
func buildPlan(seed int64, rps float64, duration time.Duration, writeFrac float64) ([]request, error) {
	total := int(rps * duration.Seconds())
	if total < 1 {
		total = 1
	}
	rng := rand.New(rand.NewSource(seed))

	// The read side: a small universe of query shapes, zipf-skewed so a few
	// are hot (cache hits, single-flight joins) and the tail stays cold
	// (admission-controlled mines). Constraint queries ride on the
	// single-filter schemes only, matching the server's validation.
	type combo struct {
		scheme     string
		tauFrac    float64
		constraint int32 // <0: none
	}
	var combos []combo
	for _, scheme := range []string{"DFP", "SFP", "DFS", "SFS"} {
		for _, tf := range []float64{0.10, 0.05, 0.02} {
			combos = append(combos, combo{scheme, tf, -1})
		}
	}
	combos = append(combos,
		combo{"SFP", 0.05, 3}, combo{"SFS", 0.05, 7}, combo{"SFP", 0.02, 11})
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(combos)-1))
	readBodies := make([][]byte, len(combos))
	for i, c := range combos {
		q := serve.QueryRequest{Scheme: c.scheme, MinSupportFrac: c.tauFrac}
		if c.constraint >= 0 {
			item := c.constraint
			q.ConstraintItem = &item
		}
		body, err := json.Marshal(q)
		if err != nil {
			return nil, fmt.Errorf("encoding query plan: %w", err)
		}
		readBodies[i] = body
	}

	// The write side: weblog-style daily increments, chopped into small
	// append batches the way a tailing ingester would deliver them.
	cfg := weblog.DefaultConfig()
	cfg.Seed = seed
	cfg.BaseTransactions = 64
	cfg.IncrementTransactions = 256
	cfg.Days = 4
	w, err := weblog.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating write traffic: %w", err)
	}
	var writePool [][]int32
	for _, inc := range w.Increments {
		for _, tx := range inc {
			writePool = append(writePool, tx.Items)
		}
	}
	nextWrite := 0
	takeBatch := func(n int) [][]int32 {
		batch := make([][]int32, 0, n)
		for len(batch) < n {
			batch = append(batch, writePool[nextWrite%len(writePool)])
			nextWrite++
		}
		return batch
	}

	plan := make([]request, total)
	for i := range plan {
		if rng.Float64() < writeFrac {
			body, err := json.Marshal(serve.TxnsRequest{Insert: takeBatch(4 + rng.Intn(12))})
			if err != nil {
				return nil, fmt.Errorf("encoding write plan: %w", err)
			}
			plan[i] = request{class: obs.ClassWrite, path: "/txns", body: body}
		} else {
			plan[i] = request{class: obs.ClassRead, path: "/mine", body: readBodies[zipf.Uint64()]}
		}
	}
	return plan, nil
}

// classResult accumulates one class's outcomes under concurrent completion.
type classResult struct {
	intended atomic.Int64
	sent     atomic.Int64
	ok       atomic.Int64
	errors   atomic.Int64
	deadline atomic.Int64
	shed     atomic.Int64

	timingSampled atomic.Int64
	timingAgreed  atomic.Int64

	lat obs.LatencyHist
}

type runResult struct {
	classes [2]classResult // indexed by obs.RequestClass
	elapsed time.Duration
}

// fire runs the plan open-loop: request i is due at start + i/rps, fired on
// schedule regardless of how many predecessors are still in flight (up to
// the shed cap), and measured from that intended instant.
func fire(addr string, plan []request, rps float64, deadline time.Duration, maxOut int) *runResult {
	res := &runResult{}
	httpc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        maxOut * 2,
		MaxIdleConnsPerHost: maxOut * 2,
	}}
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	interval := float64(time.Second) / rps
	start := time.Now()
	for i := range plan {
		p := plan[i]
		cr := &res.classes[p.class]
		cr.intended.Add(1)
		intended := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		if outstanding.Load() >= int64(maxOut) {
			cr.shed.Add(1)
			continue
		}
		outstanding.Add(1)
		wg.Add(1)
		go func(i int, p request, intended time.Time) {
			defer wg.Done()
			defer outstanding.Add(-1)
			reqID := fmt.Sprintf("load-%d", i)
			outcome, timing := send(httpc, addr+p.path, p.body, reqID, deadline)
			lat := time.Since(intended).Nanoseconds()
			cr := &res.classes[p.class]
			cr.sent.Add(1)
			cr.lat.Observe(lat)
			switch outcome {
			case outcomeOK:
				cr.ok.Add(1)
				if timing != "" {
					cr.timingSampled.Add(1)
					if serverTimingAgrees(timing, lat) {
						cr.timingAgreed.Add(1)
					}
				}
			case outcomeDeadline:
				cr.deadline.Add(1)
			default:
				cr.errors.Add(1)
			}
		}(i, p, intended)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

type outcome int

const (
	outcomeOK outcome = iota
	outcomeError
	outcomeDeadline
)

// send posts one request with its ID and deadline and classifies the result.
// The Server-Timing header of an OK response comes back for cross-checking.
func send(httpc *http.Client, url string, body []byte, reqID string, deadline time.Duration) (outcome, string) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return outcomeError, ""
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := httpc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return outcomeDeadline, ""
		}
		return outcomeError, ""
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		if ctx.Err() != nil {
			return outcomeDeadline, ""
		}
		return outcomeError, ""
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusGatewayTimeout {
			return outcomeDeadline, ""
		}
		return outcomeError, ""
	}
	return outcomeOK, resp.Header.Get("Server-Timing")
}

// serverTimingAgrees checks the server's decomposition against the client's
// own measurement: every stage duration and the server total must be ≤ the
// client latency (the client clock includes the network, so server time can
// only be smaller).
func serverTimingAgrees(header string, clientNs int64) bool {
	clientMs := float64(clientNs) / 1e6
	var stageSum, total float64
	for _, part := range strings.Split(header, ",") {
		name, attr, ok := strings.Cut(strings.TrimSpace(part), ";")
		if !ok || !strings.HasPrefix(attr, "dur=") {
			return false
		}
		d, err := strconv.ParseFloat(strings.TrimPrefix(attr, "dur="), 64)
		if err != nil {
			return false
		}
		if name == "total" {
			total = d
		} else {
			stageSum += d
		}
	}
	// Allow a hair of float slack; the invariant is ≤, not ≈.
	const slack = 1.001
	return stageSum <= total*slack && total <= clientMs*slack
}

func classNames() [2]string { return [2]string{obs.ClassRead.String(), obs.ClassWrite.String()} }

func renderReport(addr, workload string, rps float64, duration time.Duration, seed int64, res *runResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "bbsload: workload=%s target=%.0frps duration=%s seed=%d addr=%s (open-loop, latency from intended send)\n",
		workload, rps, duration, seed, addr)
	names := classNames()
	for c, name := range names {
		cr := &res.classes[c]
		intended := cr.intended.Load()
		if intended == 0 {
			continue
		}
		m := cr.lat.Metrics()
		achieved := float64(cr.ok.Load()) / res.elapsed.Seconds()
		fmt.Fprintf(&b, "  %-5s intended=%d sent=%d ok=%d err=%d deadline=%d shed=%d achieved=%.1frps\n",
			name, intended, cr.sent.Load(), cr.ok.Load(), cr.errors.Load(), cr.deadline.Load(), cr.shed.Load(), achieved)
		fmt.Fprintf(&b, "        p50=%.3fms p95=%.3fms p99=%.3fms p99.9=%.3fms max=%.3fms\n",
			float64(m.P50)/1e6, float64(m.P95)/1e6, float64(m.P99)/1e6, float64(m.P999)/1e6, float64(m.Max)/1e6)
		if s := cr.timingSampled.Load(); s > 0 {
			fmt.Fprintf(&b, "        server-timing: %d/%d sampled responses agreed (stage sum ≤ server total ≤ client latency)\n",
				cr.timingAgreed.Load(), s)
		}
	}
	return b.String()
}

func buildRecords(workload string, rps float64, duration time.Duration, seed int64, res *runResult) []exp.LoadRecord {
	var out []exp.LoadRecord
	names := classNames()
	for c, name := range names {
		cr := &res.classes[c]
		intended := cr.intended.Load()
		if intended == 0 {
			continue
		}
		m := cr.lat.Metrics()
		failed := cr.errors.Load() + cr.deadline.Load() + cr.shed.Load()
		out = append(out, exp.LoadRecord{
			Scheme:        fmt.Sprintf("load-%s-%s", workload, name),
			Workload:      workload,
			Class:         name,
			TargetRPS:     rps,
			AchievedRPS:   float64(cr.ok.Load()) / res.elapsed.Seconds(),
			DurationNs:    duration.Nanoseconds(),
			Seed:          seed,
			Sent:          cr.sent.Load(),
			OK:            cr.ok.Load(),
			Errors:        cr.errors.Load(),
			Deadline:      cr.deadline.Load(),
			Shed:          cr.shed.Load(),
			P50Ns:         m.P50,
			P95Ns:         m.P95,
			P99Ns:         m.P99,
			P999Ns:        m.P999,
			MaxNs:         m.Max,
			ErrorRate:     float64(failed) / float64(intended),
			TimingSampled: cr.timingSampled.Load(),
			TimingAgreed:  cr.timingAgreed.Load(),
		})
	}
	return out
}

// checkGates applies the SLO thresholds to the run's records; any
// violation fails the process, which is what CI keys on.
func checkGates(records []exp.LoadRecord, readP99, writeP99 time.Duration, maxErrRate float64) error {
	var violations []string
	for _, r := range records {
		var gate time.Duration
		switch r.Class {
		case "read":
			gate = readP99
		case "write":
			gate = writeP99
		}
		if gate > 0 && r.P99Ns > gate.Nanoseconds() {
			violations = append(violations, fmt.Sprintf("%s p99 %.3fms > SLO %s", r.Class, float64(r.P99Ns)/1e6, gate))
		}
		if r.ErrorRate > maxErrRate {
			violations = append(violations, fmt.Sprintf("%s error rate %.2f%% > %.2f%%", r.Class, r.ErrorRate*100, maxErrRate*100))
		}
		if r.TimingSampled > 0 && r.TimingAgreed < r.TimingSampled {
			violations = append(violations, fmt.Sprintf("%s server-timing disagreed on %d of %d responses",
				r.Class, r.TimingSampled-r.TimingAgreed, r.TimingSampled))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("SLO violated: %s", strings.Join(violations, "; "))
	}
	fmt.Println("SLO: all gates passed")
	return nil
}

func runCompare(basePath, freshPath string, maxRegress float64, floorNs int64) error {
	baseline, err := exp.ReadLoadRecords(basePath)
	if err != nil {
		return err
	}
	fresh, err := exp.ReadLoadRecords(freshPath)
	if err != nil {
		return err
	}
	if err := exp.CompareLoad(baseline, fresh, maxRegress, floorNs); err != nil {
		return err
	}
	fmt.Printf("compare: %d fresh load records within %.0f%% of %s\n", len(fresh), maxRegress*100, basePath)
	return nil
}
