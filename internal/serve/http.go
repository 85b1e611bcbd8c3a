package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"bbsmine/internal/obs"
)

// Handler returns bbsd's full mux: the three serving endpoints plus the
// observability surface (/metrics, /debug/vars, /debug/pprof/*) from
// internal/obs.
func (e *Engine) Handler() http.Handler {
	mux := obs.NewServeMux()
	mux.HandleFunc("/mine", e.handleMine)
	mux.HandleFunc("/txns", e.handleTxns)
	mux.HandleFunc("/stats", e.handleStats)
	return mux
}

// startRequest mints the request's span: the client's X-Request-ID when it
// sent one (sanitized), a fresh ID otherwise. The ID is echoed back
// immediately so even an error response is traceable.
func (e *Engine) startRequest(w http.ResponseWriter, r *http.Request, class obs.RequestClass) (context.Context, *Span) {
	ctx, sp := e.StartSpan(r.Context(), sanitizeRequestID(r.Header.Get("X-Request-ID")), class)
	w.Header().Set("X-Request-ID", sp.ID)
	return ctx, sp
}

// decodeBody decodes a request body into v inside the request's span: a
// malformed body is an invalid request like any other, so it finishes the
// span (verdict invalid, a latency sample and a request-log line) and
// answers 400 with the request ID set. It reports whether decoding worked.
func (e *Engine) decodeBody(w http.ResponseWriter, r *http.Request, sp *Span, v any) bool {
	start := e.clock.Now()
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	err = fmt.Errorf("%w: decoding %s body: %w", ErrInvalid, r.URL.Path, err)
	e.finishSpan(sp, start, err)
	setServerTiming(w, sp)
	writeError(w, err)
	return false
}

// setServerTiming attaches the span's stage decomposition as a
// Server-Timing header. Must run before the status/body are written.
func setServerTiming(w http.ResponseWriter, sp *Span) {
	if st := sp.ServerTiming(); st != "" {
		w.Header().Set("Server-Timing", st)
	}
}

func (e *Engine) handleMine(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx, sp := e.startRequest(w, r, obs.ClassRead)
	var req QueryRequest
	if !e.decodeBody(w, r, sp, &req) {
		return
	}
	rp, err := e.query(ctx, req)
	setServerTiming(w, sp)
	if err != nil {
		writeError(w, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(rp.size()))
	// A failed write means the client hung up mid-response; there is no
	// one left to tell.
	_ = rp.writeTo(w)
}

func (e *Engine) handleTxns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx, sp := e.startRequest(w, r, obs.ClassWrite)
	var req TxnsRequest
	if !e.decodeBody(w, r, sp, &req) {
		return
	}
	res, err := e.Apply(ctx, req)
	setServerTiming(w, sp)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, res)
}

func (e *Engine) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, e.Stats())
}

// writeError maps the engine's error classes onto status codes.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrInvalid):
		code = http.StatusBadRequest
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the code is moot but pick one anyway.
		code = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), code)
}

// writeJSON encodes the /txns and /stats replies; /mine replies are
// pre-rendered (see answer).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// A failed encode means the client hung up mid-response; there is no
	// one left to tell.
	_ = json.NewEncoder(w).Encode(v)
}
