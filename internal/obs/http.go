package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
)

// Live exposition: the registry publishes itself as an expvar (so
// /debug/vars works unchanged), and MetricsHandler renders every published
// expvar — the registry included — as Prometheus text format by flattening
// its JSON to numeric leaves. NewServeMux bundles /metrics, /debug/vars and
// net/http/pprof, which is what bbsmine serves under -http.

// Publish registers the registry under name in the process-wide expvar
// namespace. expvar panics on duplicate names, so publish each name once
// per process; Publish guards only against the common case of re-publishing
// the same name.
func (r *Registry) Publish(name string) {
	if r == nil {
		return
	}
	if expvar.Get(name) == nil {
		expvar.Publish(name, expvar.Func(func() any { return r.Metrics() }))
	}
}

// MetricsHandler serves every published expvar in Prometheus text format:
// each numeric leaf of each var's JSON value becomes one
// `name_path_to_leaf value` line, names sanitized to [a-zA-Z0-9_:] and
// sorted. Non-numeric leaves and oversized arrays (memstats.PauseNs and
// friends) are skipped.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var lines []string
		expvar.Do(func(kv expvar.KeyValue) {
			var v any
			if err := json.Unmarshal([]byte(kv.Value.String()), &v); err != nil {
				return // non-JSON var (shouldn't happen); skip it
			}
			flattenMetric(sanitizeMetricName(kv.Key), v, &lines)
		})
		sort.Strings(lines)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	})
}

// flattenArrayMax bounds how many elements of a JSON array are flattened;
// beyond it the array is dropped (runtime memstats carry 256-entry tables
// nobody wants as 256 series).
const flattenArrayMax = 16

func flattenMetric(name string, v any, lines *[]string) {
	switch x := v.(type) {
	case float64:
		*lines = append(*lines, fmt.Sprintf("%s %v", name, x))
	case bool:
		n := 0
		if x {
			n = 1
		}
		*lines = append(*lines, fmt.Sprintf("%s %d", name, n))
	case map[string]any:
		for k, e := range x {
			flattenMetric(name+"_"+sanitizeMetricName(k), e, lines)
		}
	case []any:
		if len(x) > flattenArrayMax {
			return
		}
		for i, e := range x {
			flattenMetric(fmt.Sprintf("%s_%d", name, i), e, lines)
		}
	}
}

// sanitizeMetricName maps a JSON key to a Prometheus-safe metric name
// fragment.
func sanitizeMetricName(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// NewServeMux returns the -http mux: /metrics (Prometheus text),
// /debug/vars (expvar JSON) and /debug/pprof/* (net/http/pprof).
func NewServeMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
