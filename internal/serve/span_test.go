package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bbsmine/internal/iostat"
	"bbsmine/internal/obs"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

func TestSanitizeRequestID(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain-id-42", "plain-id-42"},
		{"  spaced  ", "spaced"},
		{"evil\nnew\rline\x00id", "evilnewlineid"},
		{"", ""},
		{"\x01\x02", ""},
		{strings.Repeat("x", 500), strings.Repeat("x", maxRequestIDLen)},
	} {
		if got := sanitizeRequestID(tc.in); got != tc.want {
			t.Errorf("sanitizeRequestID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	e := newTestEngine(t, genTxns(7, 40, 20, 4), 128, 3, Options{})
	seen := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := e.NewRequestID()
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate request ID %q", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 800 {
		t.Fatalf("minted %d unique IDs, want 800", len(seen))
	}
}

// TestSpanStageDecomposition pins the engine-side span contract: a cold
// query decomposes into stages whose sum never exceeds the total, verdicts
// track the cache, and the request log records one parseable line per
// request with matching IDs.
func TestSpanStageDecomposition(t *testing.T) {
	reg := obs.New()
	var logBuf bytes.Buffer
	rl := obs.NewRequestLog(&logBuf)
	e := newTestEngine(t, genTxns(3, 300, 50, 6), 256, 3, Options{Observe: reg, RequestLog: rl})

	ctx, sp := e.StartSpan(context.Background(), "trace-me-1", obs.ClassRead)
	if _, err := e.Query(ctx, QueryRequest{Scheme: "DFP", MinSupportCount: 5}); err != nil {
		t.Fatalf("cold query: %v", err)
	}
	if sp.Verdict() != "miss" {
		t.Errorf("cold verdict = %q, want miss", sp.Verdict())
	}
	if sp.TotalNs() <= 0 {
		t.Errorf("total = %d, want > 0", sp.TotalNs())
	}
	var stageSum int64
	for st := obs.Stage(0); st < obs.Stage(5); st++ {
		stageSum += sp.StageNs(st)
	}
	if stageSum > sp.TotalNs() {
		t.Errorf("stage sum %d exceeds total %d", stageSum, sp.TotalNs())
	}
	if sp.StageNs(obs.StageMine) <= 0 {
		t.Errorf("cold query recorded no mine time: %+v", sp.stageNs)
	}

	ctx2, sp2 := e.StartSpan(context.Background(), "trace-me-2", obs.ClassRead)
	if _, err := e.Query(ctx2, QueryRequest{Scheme: "DFP", MinSupportCount: 5}); err != nil {
		t.Fatalf("warm query: %v", err)
	}
	if sp2.Verdict() != "hit" {
		t.Errorf("warm verdict = %q, want hit", sp2.Verdict())
	}
	if sp2.StageNs(obs.StageMine) != 0 {
		t.Errorf("cache hit recorded mine time %d", sp2.StageNs(obs.StageMine))
	}

	// An invalid query must still produce a span verdict and a log line.
	_, sp3 := e.StartSpan(context.Background(), "", obs.ClassRead)
	if sp3.ID == "" {
		t.Fatal("StartSpan minted no ID")
	}
	if _, err := e.Query(WithSpan(context.Background(), sp3), QueryRequest{Scheme: "BOGUS", MinSupportCount: 5}); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	if sp3.Verdict() != "invalid" {
		t.Errorf("bogus verdict = %q, want invalid", sp3.Verdict())
	}

	// Spanless direct calls still land in histograms and the log.
	if _, err := e.Apply(context.Background(), TxnsRequest{Insert: [][]int32{{1, 2, 3}}}); err != nil {
		t.Fatalf("apply: %v", err)
	}

	if rl.Lines() != 4 {
		t.Fatalf("request log lines = %d, want 4", rl.Lines())
	}
	ids := make(map[string]obs.RequestRecord)
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec obs.RequestRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable request-log line %q: %v", line, err)
		}
		ids[rec.ID] = rec
	}
	cold, ok := ids["trace-me-1"]
	if !ok {
		t.Fatalf("cold query missing from request log: %v", ids)
	}
	if cold.Verdict != "miss" || cold.Class != "read" || cold.MineNs <= 0 || cold.Patterns == 0 {
		t.Errorf("cold record = %+v", cold)
	}
	if cold.QueueNs+cold.CacheNs+cold.BindNs+cold.MineNs+cold.RenderNs > cold.TotalNs {
		t.Errorf("cold record stage sum exceeds total: %+v", cold)
	}
	if warm := ids["trace-me-2"]; warm.Verdict != "hit" {
		t.Errorf("warm record = %+v", warm)
	}

	m := reg.Metrics()
	if m.Server == nil {
		t.Fatal("no server metrics")
	}
	if got := m.Server.RequestNs["read"].Count; got != 3 {
		t.Errorf("read latency count = %d, want 3", got)
	}
	if got := m.Server.RequestNs["write"].Count; got != 1 {
		t.Errorf("write latency count = %d, want 1", got)
	}
	if got := m.Server.StageNs["mine"].Count; got != 1 {
		t.Errorf("mine stage count = %d, want 1", got)
	}
}

// TestHTTPRequestIDAndServerTiming drives the HTTP face: X-Request-ID is
// echoed (or minted), Server-Timing carries the stage decomposition, and
// the total it reports never exceeds what the stage sum plus slack allows.
func TestHTTPRequestIDAndServerTiming(t *testing.T) {
	reg := obs.New()
	var logBuf lockedBuffer
	e := newTestEngine(t, genTxns(5, 200, 40, 5), 256, 3,
		Options{Observe: reg, RequestLog: obs.NewRequestLog(&logBuf)})
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	post := func(path, body, reqID string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatalf("building request: %v", err)
		}
		if reqID != "" {
			req.Header.Set("X-Request-ID", reqID)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		t.Cleanup(func() { res.Body.Close() })
		return res
	}

	res := post("/mine", `{"scheme":"DFP","minsup_count":5}`, "client-id-7")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/mine status = %d", res.StatusCode)
	}
	if got := res.Header.Get("X-Request-ID"); got != "client-id-7" {
		t.Errorf("X-Request-ID echo = %q, want client-id-7", got)
	}
	timing := res.Header.Get("Server-Timing")
	if timing == "" {
		t.Fatal("no Server-Timing header on /mine")
	}
	durs := parseServerTiming(t, timing)
	total, ok := durs["total"]
	if !ok {
		t.Fatalf("Server-Timing %q has no total", timing)
	}
	var sum float64
	for name, d := range durs {
		if name != "total" {
			sum += d
		}
	}
	if sum > total*1.0001 {
		t.Errorf("Server-Timing stages sum %.3fms exceed total %.3fms (%q)", sum, total, timing)
	}
	if _, ok := durs["mine"]; !ok {
		t.Errorf("cold /mine Server-Timing %q has no mine stage", timing)
	}
	io.Copy(io.Discard, res.Body)

	// No client ID: the server mints one.
	res2 := post("/mine", `{"scheme":"DFP","minsup_count":5}`, "")
	if got := res2.Header.Get("X-Request-ID"); got == "" {
		t.Error("server minted no X-Request-ID")
	}
	io.Copy(io.Discard, res2.Body)

	// Writes get commit timing.
	res3 := post("/txns", `{"insert":[[1,2,3],[2,3,4]]}`, "write-id-1")
	if res3.StatusCode != http.StatusOK {
		t.Fatalf("/txns status = %d", res3.StatusCode)
	}
	wt := parseServerTiming(t, res3.Header.Get("Server-Timing"))
	if _, ok := wt["commit"]; !ok {
		t.Errorf("/txns Server-Timing %v has no commit metric", wt)
	}
	io.Copy(io.Discard, res3.Body)

	// Errors are traceable too: the ID is set even on a 400.
	res4 := post("/mine", `{"scheme":"NOPE","minsup_count":5}`, "bad-req-1")
	if res4.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad scheme status = %d", res4.StatusCode)
	}
	if got := res4.Header.Get("X-Request-ID"); got != "bad-req-1" {
		t.Errorf("error response X-Request-ID = %q", got)
	}
	io.Copy(io.Discard, res4.Body)

	// A body that is not JSON at all is an invalid request inside the span
	// too: the ID is echoed, the request log records it with verdict
	// invalid, and its class gets a latency sample.
	latencyCount := func(class string) int64 { return reg.Metrics().Server.RequestNs[class].Count }
	for _, tc := range []struct{ path, class string }{{"/mine", "read"}, {"/txns", "write"}} {
		before := latencyCount(tc.class)
		id := "garbled-" + tc.class
		res := post(tc.path, `{not json`, id)
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with a non-JSON body: status %d, want 400", tc.path, res.StatusCode)
		}
		if got := res.Header.Get("X-Request-ID"); got != id {
			t.Errorf("%s with a non-JSON body: X-Request-ID = %q, want %q", tc.path, got, id)
		}
		if _, ok := parseServerTiming(t, res.Header.Get("Server-Timing"))["total"]; !ok {
			t.Errorf("%s with a non-JSON body: no Server-Timing total", tc.path)
		}
		io.Copy(io.Discard, res.Body)
		if got := latencyCount(tc.class); got != before+1 {
			t.Errorf("%s with a non-JSON body: %s latency count %d -> %d, want one more", tc.path, tc.class, before, got)
		}
		found := false
		for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
			var rec obs.RequestRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("unparseable request-log line %q: %v", line, err)
			}
			if rec.ID == id {
				found = true
				if rec.Verdict != "invalid" || rec.Class != tc.class || rec.Err == "" {
					t.Errorf("%s with a non-JSON body logged %+v, want verdict invalid, class %s and the error", tc.path, rec, tc.class)
				}
			}
		}
		if !found {
			t.Errorf("%s with a non-JSON body left no request-log line", tc.path)
		}
	}

	// /stats surfaces the derived serving-health fields.
	sres, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer sres.Body.Close()
	var stats StatsInfo
	if err := json.NewDecoder(sres.Body).Decode(&stats); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	if stats.CacheHits != 1 || stats.CacheMisses != 1 {
		t.Errorf("stats cache hits/misses = %d/%d, want 1/1", stats.CacheHits, stats.CacheMisses)
	}
	if stats.CacheHitRatio != 0.5 {
		t.Errorf("stats cache hit ratio = %v, want 0.5", stats.CacheHitRatio)
	}
}

// lockedBuffer is a bytes.Buffer a test can read while a server writes to
// it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// parseServerTiming decodes "name;dur=1.234, name2;dur=5" into a map of
// milliseconds.
func parseServerTiming(t *testing.T, header string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	if header == "" {
		return out
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		name, attr, ok := strings.Cut(part, ";")
		if !ok || !strings.HasPrefix(attr, "dur=") {
			t.Fatalf("malformed Server-Timing metric %q in %q", part, header)
		}
		d, err := strconv.ParseFloat(strings.TrimPrefix(attr, "dur="), 64)
		if err != nil {
			t.Fatalf("malformed Server-Timing duration %q: %v", part, err)
		}
		out[name] = d
	}
	return out
}

// TestTracerShardedCompressedFullRate is the concurrency crucible for the
// serving trace path: a 4-shard engine over compressed indexes, a
// full-rate tracer, and concurrent writers + readers. Every emitted line
// must be well-formed JSON, apply/commit events must carry shard tags in
// range, and apply events must be attributable to the requests that caused
// them. Run under -race this also proves Emit's synchronization.
func TestTracerShardedCompressedFullRate(t *testing.T) {
	const shards = 4
	stats := &iostat.Stats{}
	parts := make([]ShardOptions, shards)
	for s := range parts {
		parts[s] = ShardOptions{
			Index: sigfile.New(sighash.NewFNV(128, 3), stats),
			Log:   txdb.NewAppendLog(stats),
		}
	}
	for g, items := range genTxns(11, 120, 30, 5) {
		s := g % shards
		tx := txdb.NewTransaction(int64(g), items)
		if err := parts[s].Log.Append(tx); err != nil {
			t.Fatalf("seeding shard %d: %v", s, err)
		}
		parts[s].Index.Insert(tx.Items)
		parts[s].Index.SetCompression(true)
	}

	reg := obs.New()
	var traceBuf bytes.Buffer
	reg.SetTracer(obs.NewTracer(&traceBuf, 1)) // full rate
	var logBuf bytes.Buffer
	e, err := New(Options{Shards: parts, Observe: reg, RequestLog: obs.NewRequestLog(&logBuf)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	const writers, writesPer = 6, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writesPer; i++ {
				ctx, _ := e.StartSpan(context.Background(), fmt.Sprintf("w%d-%d", w, i), obs.ClassWrite)
				if _, err := e.Apply(ctx, TxnsRequest{Insert: [][]int32{
					{int32(w), int32(i), 3}, {int32(w), int32(i), 4}, {int32(w), int32(i), 5},
				}}); err != nil {
					t.Errorf("writer %d apply %d: %v", w, i, err)
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				ctx, _ := e.StartSpan(context.Background(), fmt.Sprintf("r%d-%d", r, i), obs.ClassRead)
				if _, err := e.Query(ctx, QueryRequest{Scheme: "DFP", MinSupportCount: 8}); err != nil {
					t.Errorf("reader %d query %d: %v", r, i, err)
				}
			}
		}(r)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	wantWriteIDs := make(map[string]bool)
	for w := 0; w < writers; w++ {
		for i := 0; i < writesPer; i++ {
			wantWriteIDs[fmt.Sprintf("w%d-%d", w, i)] = true
		}
	}
	var applies, commits, requests int
	applyOps := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(traceBuf.String()), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("malformed trace line %q: %v", line, err)
		}
		switch ev.Kind {
		case "apply":
			applies++
			if ev.Shard == nil || *ev.Shard < 0 || *ev.Shard >= shards {
				t.Fatalf("apply event shard tag out of range: %q", line)
			}
			if !wantWriteIDs[ev.Req] {
				t.Fatalf("apply event carries unknown request ID: %q", line)
			}
			applyOps[ev.Req] += ev.Count
		case "commit":
			commits++
			if ev.Shard == nil || *ev.Shard < 0 || *ev.Shard >= shards {
				t.Fatalf("commit event shard tag out of range: %q", line)
			}
		case "request":
			requests++
			if ev.Req == "" || ev.Verdict == "" {
				t.Fatalf("request event missing id or verdict: %q", line)
			}
			if ev.Shard != nil {
				t.Fatalf("request event carries a shard tag: %q", line)
			}
		}
	}
	// Every write inserted 3 transactions; its apply events across shards
	// must account for exactly 3 operations.
	for id := range wantWriteIDs {
		if applyOps[id] != 3 {
			t.Errorf("request %s: apply events cover %d ops, want 3", id, applyOps[id])
		}
	}
	if commits == 0 {
		t.Error("no commit events traced")
	}
	if want := writers*writesPer + 3*5; requests != want {
		t.Errorf("request events = %d, want %d", requests, want)
	}
	// Mining events from the concurrent queries interleave with the serving
	// events on the same tracer; the parse loop above already proved the
	// stream stayed line-atomic under contention.
	if e.Stats().Shards != shards {
		t.Fatalf("stats shards = %d", e.Stats().Shards)
	}
}
