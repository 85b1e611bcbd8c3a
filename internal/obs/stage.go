package obs

// Per-request stage decomposition for the serving layer. A tail-latency
// regression that is only visible as "p99 got worse" is not actionable; the
// serving engine therefore times every request's path through five stages
// and feeds one LatencyHist per stage, so /metrics can answer *which* stage
// moved — admission queueing (overload), cache lookup (lock contention),
// mining-view bind (snapshot clones plus any constraint build), mine time
// (the query itself), or render time (answer size).

// Stage identifies one timed stage of a served request. Stages are
// sequential and disjoint, so their sum is a lower bound on the request's
// total latency (the remainder is HTTP parsing, scheduling and response
// writing).
type Stage int

const (
	// StageQueue is admission-control queue wait: from asking for a mine
	// slot to holding one. Zero for cache hits and single-flight joins.
	StageQueue Stage = iota
	// StageCache is the query-cache lookup (and, for followers, the wait on
	// the leader's flight).
	StageCache
	// StageBind is building the private mining view: one snapshot clone per
	// shard under a block-order view, plus the constraint when there is one.
	StageBind
	// StageMine is the mining run itself.
	StageMine
	// StageRender is encoding the pattern set into its wire form.
	StageRender
	numStages
)

// String returns the snake_case stage name used in metric keys, trace
// events, request-log records and the Server-Timing header.
func (s Stage) String() string {
	switch s {
	case StageQueue:
		return "queue"
	case StageCache:
		return "cache"
	case StageBind:
		return "bind"
	case StageMine:
		return "mine"
	case StageRender:
		return "render"
	default:
		return "unknown"
	}
}

// RequestClass splits the serving SLO histograms by traffic class.
type RequestClass int

const (
	// ClassRead is a /mine query.
	ClassRead RequestClass = iota
	// ClassWrite is a /txns batch.
	ClassWrite
	numClasses
)

// String returns the class name used in metric keys and request-log
// records.
func (c RequestClass) String() string {
	if c == ClassWrite {
		return "write"
	}
	return "read"
}

// stageStats holds the serving layer's SLO histograms: one latency
// histogram per request class and one per stage. Lives in ServerStats'
// shadow (same activation flag) but in its own struct so the hot counters
// above it keep their cache locality.
type stageStats struct {
	//lint:ignore atomicfield LatencyHist is composed entirely of sync/atomic fields; Observe and Metrics are race-safe by construction
	requests [numClasses]LatencyHist
	//lint:ignore atomicfield LatencyHist is composed entirely of sync/atomic fields; Observe and Metrics are race-safe by construction
	stages [numStages]LatencyHist
}

// ObserveRequestLatency records one served request's total latency under
// its class.
func (r *Registry) ObserveRequestLatency(c RequestClass, ns int64) {
	if r == nil || c < 0 || c >= numClasses {
		return
	}
	r.server.active.Store(true)
	r.stageHists.requests[c].Observe(ns)
}

// ObserveStage records one request's time spent in one stage. Stages a
// request skipped (a cache hit never queues, binds, mines or renders) are
// simply not observed, so each stage histogram reflects only requests that
// actually entered the stage.
func (r *Registry) ObserveStage(s Stage, ns int64) {
	if r == nil || s < 0 || s >= numStages {
		return
	}
	r.server.active.Store(true)
	r.stageHists.stages[s].Observe(ns)
}

// stageMetrics snapshots the per-class and per-stage histograms, keyed by
// name; empty histograms are omitted so an idle server's exposition stays
// small.
func (r *Registry) stageMetrics() (requests, stages map[string]LatencyMetrics) {
	for c := RequestClass(0); c < numClasses; c++ {
		h := &r.stageHists.requests[c]
		if h.Count() == 0 {
			continue
		}
		if requests == nil {
			requests = make(map[string]LatencyMetrics, int(numClasses))
		}
		requests[c.String()] = h.Metrics()
	}
	for s := Stage(0); s < numStages; s++ {
		h := &r.stageHists.stages[s]
		if h.Count() == 0 {
			continue
		}
		if stages == nil {
			stages = make(map[string]LatencyMetrics, int(numStages))
		}
		stages[s.String()] = h.Metrics()
	}
	return requests, stages
}
