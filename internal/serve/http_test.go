package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"bbsmine/internal/iostat"
	"bbsmine/internal/obs"
	"bbsmine/internal/serve"
	"bbsmine/internal/sigfile"
	"bbsmine/internal/sighash"
	"bbsmine/internal/txdb"
)

// client speaks to one engine's HTTP handler the way any bbsd client does:
// JSON request bodies in, JSON replies decoded into the serve types.
type client struct{ base string }

// statusError is a non-200 reply, keeping the code so a test can tell
// rejection (503) from bad input (400).
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("server returned %d: %s", e.code, e.msg) }

// Mine runs one query through POST /mine.
func (c client) Mine(ctx context.Context, req serve.QueryRequest) (*serve.QueryResponse, error) {
	var res serve.QueryResponse
	if err := c.roundTrip(ctx, http.MethodPost, "/mine", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Txns applies one write batch through POST /txns.
func (c client) Txns(ctx context.Context, req serve.TxnsRequest) (*serve.TxnsResponse, error) {
	var res serve.TxnsResponse
	if err := c.roundTrip(ctx, http.MethodPost, "/txns", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Stats fetches GET /stats.
func (c client) Stats(ctx context.Context) (*serve.StatsInfo, error) {
	var res serve.StatsInfo
	if err := c.roundTrip(ctx, http.MethodGet, "/stats", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Metrics fetches the raw Prometheus exposition from GET /metrics.
func (c client) Metrics(ctx context.Context) (string, error) {
	var text string
	err := c.roundTrip(ctx, http.MethodGet, "/metrics", nil, &text)
	return text, err
}

// roundTrip sends in, JSON-encoded (nil sends no body), to path and decodes
// a 200 reply into out, or keeps it raw when out is a *string. Any other
// status is a *statusError.
func (c client) roundTrip(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		payload, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("encoding %s request: %w", path, err)
		}
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("building %s request: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("reading %s reply: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{code: resp.StatusCode, msg: strings.TrimSpace(string(raw))}
	}
	if text, ok := out.(*string); ok {
		*text = string(raw)
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("decoding %s reply: %w", path, err)
	}
	return nil
}

// startServer runs an engine behind httptest and returns a client for it.
func startServer(t *testing.T, txs [][]int32, reg *obs.Registry) client {
	t.Helper()
	_, c := startShardedServer(t, txs, 1, reg)
	return c
}

// startShardedServer runs an engine over txs, routed round-robin across
// shards, behind httptest and returns it with a client for it.
func startShardedServer(t *testing.T, txs [][]int32, shards int, reg *obs.Registry) (*serve.Engine, client) {
	t.Helper()
	stats := &iostat.Stats{}
	parts := make([]serve.ShardOptions, shards)
	for s := range parts {
		parts[s] = serve.ShardOptions{Index: sigfile.New(sighash.NewFNV(256, 3), stats), Log: txdb.NewAppendLog(stats)}
	}
	for i, items := range txs {
		tx := txdb.NewTransaction(int64(i), items)
		p := parts[i%shards]
		if err := p.Log.Append(tx); err != nil {
			t.Fatalf("seeding log: %v", err)
		}
		p.Index.Insert(tx.Items)
	}
	e, err := serve.New(serve.Options{Shards: parts, Observe: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(e.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := e.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return e, client{base: ts.URL}
}

// TestClientMineMatchesQuery: what a client decodes from a /mine reply,
// miss or hit, is exactly the QueryResponse Engine.Query returns for the
// same query, on 1 and 2 shards, constrained, unconstrained and empty.
func TestClientMineMatchesQuery(t *testing.T) {
	ctx := context.Background()
	item := int32(20)
	for _, shards := range []int{1, 2} {
		e, c := startShardedServer(t, fixedTxns(), shards, nil)
		if _, err := c.Txns(ctx, serve.TxnsRequest{Insert: [][]int32{{20, 21}}}); err != nil {
			t.Fatalf("txns: %v", err)
		}
		for name, req := range map[string]serve.QueryRequest{
			"unconstrained": {Scheme: "DFP", MinSupportCount: 25},
			"constrained":   {Scheme: "SFP", MinSupportCount: 10, ConstraintItem: &item},
			"empty":         {Scheme: "DFS", MinSupportCount: 1000},
		} {
			miss, err := c.Mine(ctx, req)
			if err != nil {
				t.Fatalf("shards=%d %s: miss: %v", shards, name, err)
			}
			hit, err := c.Mine(ctx, req)
			if err != nil {
				t.Fatalf("shards=%d %s: hit: %v", shards, name, err)
			}
			want, err := e.Query(ctx, req)
			if err != nil {
				t.Fatalf("shards=%d %s: Query: %v", shards, name, err)
			}
			if (shards > 1) != (len(want.Epochs) == shards) {
				t.Errorf("shards=%d %s: epoch vector %v", shards, name, want.Epochs)
			}
			want.Cached = false
			if !reflect.DeepEqual(miss, want) {
				t.Errorf("shards=%d %s: the client decoded the miss as %+v, Engine.Query returned %+v", shards, name, miss, want)
			}
			want.Cached = true
			if !reflect.DeepEqual(hit, want) {
				t.Errorf("shards=%d %s: the client decoded the hit as %+v, Engine.Query returned %+v", shards, name, hit, want)
			}
		}
	}
}

// fixedTxns is a dataset with a planted frequent pair so assertions can be
// exact.
func fixedTxns() [][]int32 {
	txs := make([][]int32, 0, 60)
	for i := 0; i < 60; i++ {
		tx := []int32{int32(i % 7), int32(10 + i%5)}
		if i%2 == 0 {
			tx = append(tx, 20, 21) // the planted pair, support 30
		}
		txs = append(txs, tx)
	}
	return txs
}

func TestHTTPRoundTrip(t *testing.T) {
	reg := obs.New()
	reg.Publish("bbsd_test")
	c := startServer(t, fixedTxns(), reg)
	ctx := context.Background()

	// Cold mine, then a cache hit.
	cold, err := c.Mine(ctx, serve.QueryRequest{Scheme: "DFP", MinSupportCount: 25})
	if err != nil {
		t.Fatalf("cold mine: %v", err)
	}
	if cold.Cached {
		t.Fatal("first query claimed to be cached")
	}
	coldPatterns, err := cold.DecodePatterns()
	if err != nil {
		t.Fatalf("decode cold patterns: %v", err)
	}
	foundPair := false
	for _, p := range coldPatterns {
		if len(p.Items) == 2 && p.Items[0] == 20 && p.Items[1] == 21 {
			foundPair = true
			if p.Support != 30 {
				t.Fatalf("planted pair support = %d, want 30", p.Support)
			}
		}
	}
	if !foundPair {
		t.Fatal("planted pair {20,21} not mined")
	}
	warm, err := c.Mine(ctx, serve.QueryRequest{Scheme: "DFP", MinSupportCount: 25})
	if err != nil {
		t.Fatalf("warm mine: %v", err)
	}
	if !warm.Cached {
		t.Fatal("identical second query was not cached")
	}

	// A write bumps the epoch and the next mine sees it.
	wr, err := c.Txns(ctx, serve.TxnsRequest{Insert: [][]int32{{20, 21, 22}}})
	if err != nil {
		t.Fatalf("txns: %v", err)
	}
	if wr.Epoch != cold.Epoch+1 || wr.Inserted != 1 {
		t.Fatalf("write result %+v, want 1 insert at epoch %d", wr, cold.Epoch+1)
	}
	after, err := c.Mine(ctx, serve.QueryRequest{Scheme: "DFP", MinSupportCount: 25})
	if err != nil {
		t.Fatalf("mine after write: %v", err)
	}
	if after.Cached || after.Epoch != wr.Epoch {
		t.Fatalf("mine after write: cached=%v epoch=%d, want fresh at %d", after.Cached, after.Epoch, wr.Epoch)
	}
	afterPatterns, err := after.DecodePatterns()
	if err != nil {
		t.Fatalf("decode patterns after write: %v", err)
	}
	pairSupport := 0
	for _, p := range afterPatterns {
		if len(p.Items) == 2 && p.Items[0] == 20 && p.Items[1] == 21 {
			pairSupport = p.Support
		}
	}
	if pairSupport != 31 {
		t.Fatalf("planted pair support after insert = %d, want 31", pairSupport)
	}

	// Stats reflect the same snapshot.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Epoch != wr.Epoch || st.Transactions != 61 || st.Live != 61 {
		t.Fatalf("stats %+v, want 61 live transactions at epoch %d", st, wr.Epoch)
	}

	// The Prometheus exposition carries the server funnel.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		"bbsd_test_server_queries",
		"bbsd_test_server_cache_hits",
		"bbsd_test_server_epoch",
		"bbsd_test_server_write_batches",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition lacks %s", want)
		}
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	c := startServer(t, fixedTxns(), nil)
	ctx := context.Background()

	// Bad scheme → 400.
	_, err := c.Mine(ctx, serve.QueryRequest{Scheme: "NOPE", MinSupportCount: 2})
	assertStatus(t, err, 400)

	// Missing threshold → 400.
	_, err = c.Mine(ctx, serve.QueryRequest{Scheme: "DFP"})
	assertStatus(t, err, 400)

	// Constrained dual filter → 400.
	item := int32(20)
	_, err = c.Mine(ctx, serve.QueryRequest{Scheme: "DFP", MinSupportCount: 2, ConstraintItem: &item})
	assertStatus(t, err, 400)

	// Bad write → 400.
	_, err = c.Txns(ctx, serve.TxnsRequest{Delete: []int{12345}})
	assertStatus(t, err, 400)

	// Constrained single filter works and every pattern contains the item.
	res, err := c.Mine(ctx, serve.QueryRequest{Scheme: "SFP", MinSupportCount: 10, ConstraintItem: &item})
	if err != nil {
		t.Fatalf("constrained mine: %v", err)
	}
	ps, err := res.DecodePatterns()
	if err != nil {
		t.Fatalf("decode constrained patterns: %v", err)
	}
	if len(ps) == 0 {
		t.Fatal("constrained mine found nothing")
	}
}

func assertStatus(t *testing.T, err error, code int) {
	t.Helper()
	var se *statusError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a statusError", err)
	}
	if se.code != code {
		t.Fatalf("status %d, want %d (%s)", se.code, code, se.msg)
	}
}
