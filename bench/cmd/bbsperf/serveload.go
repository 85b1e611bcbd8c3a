package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bbsmine"
	"bbsmine/internal/iostat"
	"bbsmine/internal/mining"
	"bbsmine/internal/obs"
	"bbsmine/internal/serve"
	"bbsmine/internal/shard"
	"bbsmine/internal/txdb"
)

// serve-mixed: a file-backed two-shard serve.Engine behind its own HTTP
// handler on a loopback listener, seeded with the dataset the mine workloads
// use, and two closed-loop clients — each sends its next request when the
// previous reply is in — walking one pre-generated plan. The engine runs
// bbsd's flush policy: every commit appends to the data file, fsync happens
// only at Close.

const serveClients = 2

// serveEnv is one served database.
type serveEnv struct {
	dir    string
	sdb    *shard.DB
	engine *serve.Engine
	srv    *http.Server
	served chan error // Serve's return value
	base   string     // http://127.0.0.1:port
	reg    *obs.Registry
	txs    []txdb.Transaction
	items  int
}

// setupServe seeds a two-shard directory through the shard layer — the path
// bbsd opens a database by — wires an engine over its parts and starts
// serving. observe attaches a registry to the engine (the traced run).
func setupServe(cfg runConfig, observe bool) (*serveEnv, error) {
	txs, err := genDataset(cfg.Size.D)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{txs: txs, served: make(chan error, 1)}
	if env.dir, err = scratchDir(cfg, "serve-"); err != nil {
		return nil, err
	}
	stats := &iostat.Stats{}
	if env.sdb, err = shard.Open(env.dir, sigBits, sigHashes, 2, stats); err != nil {
		_ = os.RemoveAll(env.dir)
		return nil, fmt.Errorf("opening sharded database: %w", err)
	}
	fail := func(err error) (*serveEnv, error) {
		_ = env.sdb.Close()
		_ = os.RemoveAll(env.dir)
		return nil, err
	}
	for _, tx := range txs {
		if err := env.sdb.Append(tx); err != nil {
			return fail(fmt.Errorf("seeding: %w", err))
		}
		env.items += len(tx.Items)
	}
	parts := make([]serve.ShardOptions, env.sdb.Shards())
	for s := range parts {
		file := env.sdb.File(s)
		log, err := txdb.LoadAppendLog(file, stats)
		if err != nil {
			return fail(fmt.Errorf("loading shard %d's log: %w", s, err))
		}
		parts[s] = serve.ShardOptions{Index: env.sdb.Index().Part(s), Log: log, File: file, IndexPath: env.sdb.IndexPath(s)}
	}
	if observe {
		env.reg = obs.New()
		env.reg.BindIO(stats)
	}
	env.engine, err = serve.New(serve.Options{Shards: parts, Workers: 1, MaxInFlight: serveClients, Observe: env.reg})
	if err != nil {
		return fail(fmt.Errorf("starting engine: %w", err))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = env.engine.Close()
		return fail(fmt.Errorf("listening: %w", err))
	}
	env.base = "http://" + ln.Addr().String()
	env.srv = &http.Server{Handler: env.engine.Handler()}
	go func() { env.served <- env.srv.Serve(ln) }()
	return env, nil
}

// close stops the listener, waits for Serve to return, flushes the engine
// and removes the directory.
func (e *serveEnv) close() error {
	if e == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serveErr := <-e.served; err == nil && !errors.Is(serveErr, http.ErrServerClosed) {
		err = serveErr
	}
	if closeErr := e.engine.Close(); err == nil {
		err = closeErr
	}
	if closeErr := e.sdb.Close(); err == nil {
		err = closeErr
	}
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	if err != nil {
		return fmt.Errorf("stopping the server: %w", err)
	}
	return nil
}

// servedReq is one timed request as its client saw it.
type servedReq struct {
	reply
	shape int  // -1: a write
	cold  bool // a read mined for this request alone: cached=false, shared=false
	hit   bool // a read answered from the query cache
}

// serveRun walks the plan and checks the replies.
type serveRun struct {
	env    *serveEnv
	shapes []queryShape
	bodies [][]byte // each shape's /mine request
	plan   []planned
	hc     *http.Client
	rec    *recorder
	cursor atomic.Int64 // next plan entry; the clients share it
	led    ledger

	// What measure leaves behind when the timed window closes.
	elapsed time.Duration   // the window's length
	heap    float64         // live heap, MB
	stats   serve.StatsInfo // the engine's own summary
	items   int             // item occurrences stored: seed plus acknowledged inserts
}

// ledger is what the two clients write down together.
type ledger struct {
	mu       sync.Mutex
	answers  map[string][sha256.Size]byte // (epoch vector, shape) -> pattern bytes' hash
	inserted [][]int32                    // every acknowledged insert
	reqs     []servedReq                  // the timed requests
	tally    tally
}

// sameAnswer records an answer's fingerprint under its key and reports
// whether every earlier answer under the key had the same one.
func (l *ledger) sameAnswer(key string, sum [sha256.Size]byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.answers == nil {
		l.answers = make(map[string][sha256.Size]byte)
	}
	prev, seen := l.answers[key]
	l.answers[key] = sum
	return !seen || prev == sum
}

// check counts one checked operation, failed when failure is non-nil.
func (l *ledger) check(failure error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tally.attempted++
	if failure != nil {
		l.tally.fail("%v", failure)
	}
}

// record files one finished plan request: its failure if any, the inserts
// it got acknowledged and, inside the timed window, its latencies.
func (l *ledger) record(req servedReq, timed bool, failure error, insert [][]int32) {
	l.check(failure)
	if failure != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inserted = append(l.inserted, insert...)
	if timed {
		l.reqs = append(l.reqs, req)
	}
}

// result hands the ledger's contents over once the clients have stopped.
func (l *ledger) result() ([]servedReq, [][]int32, tally) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reqs, l.inserted, l.tally
}

func newServeRun(env *serveEnv, cfg runConfig) (*serveRun, error) {
	shapes := queryShapes(env.txs, cfg.Size.TauFrac)
	bodies, err := encodeShapes(shapes)
	if err != nil {
		return nil, err
	}
	plan, err := genPlan(cfg.Seed, bodies, cfg.Size.PlanRequests)
	if err != nil {
		return nil, err
	}
	return &serveRun{
		env: env, shapes: shapes, bodies: bodies, plan: plan,
		hc: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}, nil
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	took   time.Duration      // send to last body byte
	stages map[string]float64 // the Server-Timing header, ms by stage name
}

// post sends one request, reads the whole reply and decodes a 200's body
// into out. A refusal, a timeout or a transport error is an error.
func (r *serveRun) post(path string, body []byte, out any) (reply, error) {
	start := time.Now()
	resp, err := r.hc.Post(r.env.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{took: time.Since(start)}, fmt.Errorf("POST %s: %w", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	rep := reply{took: time.Since(start), stages: parseServerTiming(resp.Header.Get("Server-Timing"))}
	_ = resp.Body.Close() // fully read; nothing left to fail
	switch {
	case err != nil:
		return rep, fmt.Errorf("POST %s: reading reply: %w", path, err)
	case resp.StatusCode != http.StatusOK:
		return rep, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return rep, fmt.Errorf("POST %s: decoding reply: %w", path, err)
	}
	return rep, nil
}

// parseServerTiming splits a Server-Timing header into milliseconds by name.
func parseServerTiming(header string) map[string]float64 {
	out := make(map[string]float64)
	for _, part := range strings.Split(header, ",") {
		name, attr, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		if ms, err := strconv.ParseFloat(attr, 64); err == nil {
			out[name] = ms
		}
	}
	return out
}

// epochKey names the data state an answer was computed over.
func epochKey(res *serve.QueryResponse) string {
	if len(res.Epochs) > 0 {
		return fmt.Sprint(res.Epochs)
	}
	return fmt.Sprint(res.Epoch)
}

// checkSame reports whether every earlier answer to the same query over the
// same epoch vector had the same pattern bytes.
func (r *serveRun) checkSame(shape int, res *serve.QueryResponse) bool {
	return r.led.sameAnswer(epochKey(res)+"|"+r.shapes[shape].String(), sha256.Sum256(res.Patterns))
}

// do runs plan entry i.
func (r *serveRun) do(i int, timed bool) {
	p := r.plan[i%len(r.plan)]
	req := servedReq{shape: p.Shape}
	if p.Shape < 0 {
		var res serve.TxnsResponse
		id := r.rec.begin("http./txns", 0, i)
		var err error
		req.reply, err = r.post("/txns", p.Body, &res)
		r.rec.end(id)
		if err == nil && res.Inserted != len(p.Insert) {
			err = fmt.Errorf("/txns: inserted %d of %d transactions", res.Inserted, len(p.Insert))
		}
		r.stageSpans(id, i, req.stages)
		r.led.record(req, timed, err, p.Insert)
		return
	}
	var res serve.QueryResponse
	id := r.rec.begin("http./mine", 0, i)
	var err error
	req.reply, err = r.post("/mine", p.Body, &res)
	r.rec.end(id)
	if err == nil && !r.checkSame(p.Shape, &res) {
		err = fmt.Errorf("/mine %s at epochs %s: pattern bytes differ from an earlier answer", r.shapes[p.Shape], epochKey(&res))
	}
	if err == nil {
		req.cold, req.hit = !res.Cached && !res.Shared, res.Cached
	}
	r.stageSpans(id, i, req.stages)
	r.led.record(req, timed, err, nil)
}

// stageSpans lays the server's stages out end to end from the request's
// start as child spans. Their durations are the server's; their offsets are
// reconstructed.
func (r *serveRun) stageSpans(parent, op int, stages map[string]float64) {
	if r.rec == nil {
		return
	}
	at := r.rec.startOf(parent)
	for _, name := range []string{"queue", "cache", "bind", "mine", "render", "commit"} {
		if ms, ok := stages[name]; ok {
			end := at + int64(ms*1e6)
			r.rec.add("serve."+name, parent, op, at, end)
			at = end
		}
	}
}

// walk runs the closed loop: each client takes the next plan entry when its
// previous reply is in, until the deadline passes or limit entries are
// taken. It returns the elapsed time.
func (r *serveRun) walk(seconds float64, limit int, timed bool) time.Duration {
	start := time.Now()
	stop := r.cursor.Load() + int64(limit)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start).Seconds() < seconds {
				i := r.cursor.Add(1) - 1
				if limit > 0 && i >= stop {
					return
				}
				r.do(int(i), timed)
			}
		}()
	}
	wg.Wait()
	if limit > 0 {
		r.cursor.Store(min(r.cursor.Load(), stop)) // each client overshot by one
	}
	return time.Since(start)
}

// checkEpochZero mines every shape once before any write and compares each
// answer with the oracle over the seed data. Constrained shapes mine the
// transactions containing their item, at the threshold of the whole
// database.
func (r *serveRun) checkEpochZero() error {
	truths := make(map[string]truth)
	for i, s := range r.shapes {
		tau := mining.MinSupportCount(s.TauFrac, len(r.env.txs))
		key := fmt.Sprintf("%d|%d", tau, s.Constraint)
		want, ok := truths[key]
		if !ok {
			population := r.env.txs
			if s.Constraint >= 0 {
				population = containing(population, s.Constraint)
			}
			var err error
			if want, err = exactFrequents(population, tau, i == 0); err != nil {
				return err
			}
			truths[key] = want
		}
		var res serve.QueryResponse
		_, err := r.post("/mine", r.bodies[i], &res)
		if err == nil {
			var got []pattern
			if got, err = decodePatterns(&res); err == nil {
				err = checkPatterns(got, want)
			}
			r.checkSame(i, &res)
		}
		if err != nil {
			err = fmt.Errorf("/mine %s at epoch 0: %w", s, err)
		}
		r.led.check(err)
	}
	return nil
}

func decodePatterns(res *serve.QueryResponse) ([]pattern, error) {
	ps, err := res.DecodePatterns()
	if err != nil {
		return nil, err
	}
	out := make([]pattern, len(ps))
	for i, p := range ps {
		out[i] = pattern{Items: p.Items, Support: p.Support, Exact: p.Exact}
	}
	return out, nil
}

// checkFinal compares the server's last DFP answer with a fresh unsharded
// in-memory mine over the seed data plus every acknowledged insert, and
// that mine with the oracle. Inserts from two clients interleave in an order
// the clients cannot see; answers do not depend on row order.
func (r *serveRun) checkFinal(tau float64, inserted [][]int32) error {
	all := append([]txdb.Transaction(nil), r.env.txs...)
	for i, items := range inserted {
		all = append(all, txdb.NewTransaction(int64(len(r.env.txs)+i+1), items))
	}
	db := bbsmine.NewInMemory(bbsmine.Options{M: sigBits, K: sigHashes})
	for _, tx := range all {
		if err := db.Append(tx.TID, tx.Items); err != nil {
			return fmt.Errorf("final check: %w", err)
		}
	}
	fresh, err := db.Mine(bbsmine.MineOptions{MinSupportFrac: tau, Scheme: bbsmine.DFP, Workers: 1})
	if err != nil {
		return fmt.Errorf("final check: %w", err)
	}
	want, err := exactFrequents(all, mining.MinSupportCount(tau, len(all)), false)
	if err != nil {
		return err
	}
	var res serve.QueryResponse
	_, err = r.post("/mine", r.bodies[shapeDFP], &res)
	if err == nil {
		var got []pattern
		if got, err = decodePatterns(&res); err == nil {
			if hashPatterns(got) != hashPatterns(patternsOf(fresh)) {
				err = fmt.Errorf("answer differs from a fresh unsharded mine over the same %d transactions", len(all))
			} else {
				err = checkPatterns(got, want)
			}
		}
	}
	if err != nil {
		err = fmt.Errorf("final /mine: %w", err)
	}
	r.led.check(err)
	return nil
}

// measure runs the workload against a set-up server: the epoch-0 check, the
// untimed plan prefix, the timed window, then the final check.
func (r *serveRun) measure(cfg runConfig) error {
	if err := r.checkEpochZero(); err != nil {
		return err
	}
	r.walk(cfg.Seconds, cfg.Size.WarmRequests, false)
	r.elapsed = r.walk(cfg.Seconds, cfg.Size.MaxRequests, true)
	r.heap = heapLiveMB()
	r.stats = r.env.engine.Stats()
	_, inserted, _ := r.led.result()
	r.items = r.env.items
	for _, tx := range inserted {
		r.items += len(tx)
	}
	return r.checkFinal(cfg.Size.TauFrac, inserted)
}

// latencies splits the timed requests into the classes the report names.
type serveLatencies struct {
	reads, hits, writes, missAll, missDFP, missSFS samples
}

func latenciesOf(reqs []servedReq) serveLatencies {
	var l serveLatencies
	for _, q := range reqs {
		ns := float64(q.took.Nanoseconds())
		switch {
		case q.shape < 0:
			l.writes = append(l.writes, ns)
			continue
		case q.cold && q.shape == shapeDFP:
			l.missDFP = append(l.missDFP, ns)
		case q.cold && q.shape == shapeSFS:
			l.missSFS = append(l.missSFS, ns)
		}
		if q.cold {
			l.missAll = append(l.missAll, ns)
		}
		if q.hit {
			l.hits = append(l.hits, ns)
		}
		l.reads = append(l.reads, ns)
	}
	return l
}

// runServe is serve-mixed with tracing off.
func runServe(cfg runConfig) (*outcome, error) {
	var setups samples
	var env *serveEnv
	for i := 0; i < cfg.Size.SetupRepeats; i++ {
		if err := env.close(); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if env, err = setupServe(cfg, false); err != nil {
			return nil, err
		}
		setups.add(time.Since(start))
	}
	r, err := serveOn(env, cfg, nil)
	if err != nil {
		return nil, err
	}

	reqs, _, tally := r.led.result()
	l := latenciesOf(reqs)
	rep := report{}
	rep.setMedian("setup_s", setups, 1e9)
	rep.setMedian("mine_dfp_ms_p50", l.missDFP, 1e6)
	rep.setMedian("mine_sfs_ms_p50", l.missSFS, 1e6)
	// Half the replies are cache hits and half are not, so a median over all
	// of them flips between the two; the cheap read is the hit.
	rep.setMedian("read_us_p50", l.hits, 1e3)
	rep.setMedian("write_ms_p50", l.writes, 1e6)
	rep.setN("ops_per_s", float64(len(reqs))/r.elapsed.Seconds(), len(reqs))
	rep.set("index_bytes_per_item", float64(r.stats.IndexBytes)/float64(r.items))
	rep.set("heap_live_mb", r.heap)
	return &outcome{Report: rep, Tally: tally}, nil
}

// serveOn runs the workload against a set-up server and stops it.
func serveOn(env *serveEnv, cfg runConfig, rec *recorder) (*serveRun, error) {
	r, err := newServeRun(env, cfg)
	if err != nil {
		_ = env.close()
		return nil, err
	}
	r.rec = rec
	err = r.measure(cfg)
	if closeErr := env.close(); err == nil {
		err = closeErr
	}
	return r, err
}
