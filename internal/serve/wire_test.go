package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"bbsmine/internal/core"
	"bbsmine/internal/iostat"
	"bbsmine/internal/obs"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// wireReply is one raw /mine reply.
type wireReply struct {
	body          []byte
	contentLength string
}

// postMine posts one /mine request. It reports failures with t.Errorf:
// it runs on goroutines other than the test's.
func postMine(t *testing.T, url string, req QueryRequest) wireReply {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Errorf("encoding request: %v", err)
		return wireReply{}
	}
	res, err := http.Post(url+"/mine", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Errorf("POST /mine: %v", err)
		return wireReply{}
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil || res.StatusCode != http.StatusOK {
		t.Errorf("POST /mine: status %d, read error %v: %s", res.StatusCode, err, body)
	}
	return wireReply{body: body, contentLength: res.Header.Get("Content-Length")}
}

// encodeJSON is the reference wire form: what the server wrote for every
// /mine reply when it ran encoding/json.
func encodeJSON(t *testing.T, r *QueryResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatalf("encoding reference reply: %v", err)
	}
	return buf.Bytes()
}

// TestMineWireMatchesEncodingJSON is the differential for the pre-rendered
// /mine reply: for every reply kind (miss, shared flight, hit), 1 and 2
// shards, constrained and unconstrained queries and an empty answer, the
// body must be byte for byte json.NewEncoder(w).Encode of the QueryResponse
// Engine.Query returns for the same query, with Content-Length equal to the
// body's length.
func TestMineWireMatchesEncodingJSON(t *testing.T) {
	item := int32(5)
	for _, shards := range []int{1, 2} {
		for name, req := range map[string]QueryRequest{
			"unconstrained": {Scheme: "DFP", MinSupportCount: 5},
			"constrained":   {Scheme: "SFP", MinSupportCount: 3, ConstraintItem: &item},
			"empty":         {Scheme: "SFS", MinSupportCount: 1 << 20},
		} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, name), func(t *testing.T) {
				reg := obs.New()
				e := newShardedTestEngine(t, genTxns(21, 240, 40, 6), 256, 3, shards, Options{
					MaxInFlight: 1,
					MaxQueue:    4,
					Observe:     reg,
				})
				// One write first, so a 2-shard epoch vector is not all zeros.
				if _, err := e.Apply(context.Background(), TxnsRequest{Insert: [][]int32{{1, 2, 5}}}); err != nil {
					t.Fatalf("apply: %v", err)
				}
				ts := httptest.NewServer(e.Handler())
				defer ts.Close()

				// Hold the only mining slot so the leader queues behind it
				// and an identical second request joins its flight.
				e.admitCh <- struct{}{}
				replies := make(chan wireReply, 2)
				go func() { replies <- postMine(t, ts.URL, req) }()
				waitFor(t, func() bool { return e.queueLen.Load() == 1 })
				go func() { replies <- postMine(t, ts.URL, req) }()
				waitFor(t, func() bool { return reg.Metrics().Server.SharedFlights == 1 })
				<-e.admitCh
				pair := []wireReply{<-replies, <-replies}
				hit := postMine(t, ts.URL, req)

				want, err := e.Query(context.Background(), req)
				if err != nil {
					t.Fatalf("Query: %v", err)
				}
				if !want.Cached {
					t.Fatal("Query after the replies missed the cache")
				}
				if name == "empty" {
					if string(want.Patterns) != "[]" {
						t.Fatalf("empty answer has patterns %s", want.Patterns)
					}
				} else if len(decodePatterns(t, want)) == 0 {
					t.Fatal("query mined nothing; the dataset is too sparse for the test to mean anything")
				}
				kinds := map[string]*QueryResponse{}
				for _, flags := range [][2]bool{{false, false}, {false, true}, {true, false}} {
					r := *want
					r.Cached, r.Shared = flags[0], flags[1]
					kinds[string(encodeJSON(t, &r))] = &r
				}
				seen := map[string]bool{}
				for _, rep := range append(pair, hit) {
					if rep.contentLength != strconv.Itoa(len(rep.body)) {
						t.Errorf("Content-Length %q, body %d bytes", rep.contentLength, len(rep.body))
					}
					r, ok := kinds[string(rep.body)]
					if !ok {
						t.Fatalf("reply body differs from encoding/json's for every reply kind:\n got %.300s", rep.body)
					}
					seen[fmt.Sprintf("cached=%v,shared=%v", r.Cached, r.Shared)] = true
				}
				for _, kind := range []string{"cached=false,shared=false", "cached=false,shared=true", "cached=true,shared=false"} {
					if !seen[kind] {
						t.Errorf("no %s reply among the three (saw %v)", kind, seen)
					}
				}
			})
		}
	}
}

// discardResponse is an http.ResponseWriter that keeps nothing but the
// byte count, so a handler's own allocations are all a test measures.
type discardResponse struct {
	header  http.Header
	written int
}

func (d *discardResponse) Header() http.Header { return d.header }
func (d *discardResponse) WriteHeader(int)     {}
func (d *discardResponse) Write(p []byte) (int, error) {
	d.written += len(p)
	return len(p), nil
}

// syntheticResult is a mining result shaped like the fig6 DFP answer at
// τ = 0.3 % (about 8.7 K patterns, ~570 KB on the wire): 1- to 11-itemsets
// over a 1000-item universe with two- to five-digit supports.
func syntheticResult(n int) *core.Result {
	res := &core.Result{Candidates: 3 * n, FalseDrops: n / 50, Certain: n / 2, ProbedPatterns: n / 3}
	l := lcg(42)
	for i := 0; i < n; i++ {
		items := make([]int32, 1+i%11)
		next := int32(100 + l.intn(100))
		for j := range items {
			items[j] = next
			next += 1 + int32(l.intn(90))
		}
		res.Patterns = append(res.Patterns, core.Pattern{Items: items, Support: 30 + l.intn(20000), Exact: l.intn(8) != 0})
	}
	return res
}

// cachedHitEngine returns an engine whose query cache already holds the
// answer rendered from res for body's query, so every /mine with that body
// is a hit on it.
func cachedHitEngine(tb testing.TB, res *core.Result) (e *Engine, body string, ans *answer) {
	tb.Helper()
	stats := &iostat.Stats{}
	idx := sigfile.New(sighash.NewFNV(128, 3), stats)
	log := txdb.NewAppendLog(stats)
	for i, items := range genTxns(9, 20, 10, 3) {
		tx := txdb.NewTransaction(int64(i), items)
		if err := log.Append(tx); err != nil {
			tb.Fatalf("seeding log: %v", err)
		}
		idx.Insert(tx.Items)
	}
	e, err := New(Options{Index: idx, Log: log})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	tb.Cleanup(func() { _ = e.Close() })
	const tau = 7
	snaps := e.loadSnaps()
	ans = renderAnswer(QueryResponse{Epoch: epochSum(snaps), Scheme: core.DFP.String(), Tau: tau}, res)
	key := queryKey{epochs: epochKey(snaps), scheme: core.DFP, tau: tau, constraint: -1}
	if _, _, leader := e.cache.join(key); !leader {
		tb.Fatal("fresh engine already had the key cached")
	}
	e.cache.finish(key, ans, nil)
	return e, fmt.Sprintf(`{"scheme":"DFP","minsup_count":%d}`, tau), ans
}

// TestMineHitAllocationDoesNotGrowWithAnswer: serving a cache hit writes
// the stored bytes, so what a hit allocates (request decode, span, headers)
// is independent of the answer's size — far below one answer's bytes even
// summed over many hits.
func TestMineHitAllocationDoesNotGrowWithAnswer(t *testing.T) {
	e, body, ans := cachedHitEngine(t, syntheticResult(8700))
	h := e.Handler()
	const hits = 50
	reqs := make([]*http.Request, hits)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/mine", strings.NewReader(body))
	}
	w := &discardResponse{header: make(http.Header)}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/mine", strings.NewReader(body))) // warm-up
	if want := len(ans.body) + len(flagsHit); w.written != want {
		t.Fatalf("hit wrote %d bytes, want %d", w.written, want)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reqs {
		h.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&after)
	perHit := (after.TotalAlloc - before.TotalAlloc) / hits
	if bound := uint64(len(ans.body) / 64); perHit > bound {
		t.Fatalf("a hit allocates %d bytes on a %d-byte answer; want under %d", perHit, len(ans.body), bound)
	}
	t.Logf("%d-byte answer: %d bytes allocated per hit", len(ans.body), perHit)
}

// renderSink keeps BenchmarkRenderAnswer's result live.
var renderSink *answer

// BenchmarkRenderAnswer renders a fig6-sized answer (the one-time cost a
// miss pays before caching it).
func BenchmarkRenderAnswer(b *testing.B) {
	res := syntheticResult(8700)
	head := QueryResponse{Epoch: 3, Scheme: "DFP", Tau: 120}
	b.SetBytes(int64(len(renderAnswer(head, res).body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		renderSink = renderAnswer(head, res)
	}
}

// BenchmarkServeMineHit serves a cache hit on a fig6-sized answer through
// the /mine handler, minus the network.
func BenchmarkServeMineHit(b *testing.B) {
	e, body, ans := cachedHitEngine(b, syntheticResult(8700))
	h := e.Handler()
	w := &discardResponse{header: make(http.Header)}
	rd := strings.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/mine", rd)
	b.SetBytes(int64(len(ans.body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		h.ServeHTTP(w, r)
	}
}
