// Package server is the decomposition-as-a-service core: a long-lived HTTP
// handler that accepts hypergraph payloads, runs them through core.Decompose
// on a bounded worker pool under per-request budgets, and degrades
// gracefully instead of failing — anytime widths at the deadline, typed
// rejections under overload, contained panics, and a drain protocol that
// finishes (or budget-cancels) every in-flight request before shutdown.
//
// The serving discipline, in one paragraph: admission is bounded by
// Workers + QueueDepth (beyond it, 429 with Retry-After — load sheds at the
// door, not in the heap); request bodies are size-capped with a typed 413;
// every admitted run gets a budget built from the request's deadline clamped
// to the server's ceiling, so a stuck instance costs one worker slot for a
// bounded time; exact results are cached by content hash (sharded FIFO, the
// same discipline as the setcover engine's cover cache) so client retries
// are idempotent and cheap; and every response — success, degraded, rejected
// or error — is the same typed JSON envelope, so clients never parse
// free-text failures.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hypertree/internal/budget"
	"hypertree/internal/budget/faultinject"
	"hypertree/internal/core"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
	"hypertree/internal/obs/attr"
	"hypertree/internal/obs/hist"
)

// Defaults for the zero-valued Config fields.
const (
	DefaultQueueDepth      = 64
	DefaultMaxRequestBytes = 32 << 20
	DefaultTimeout         = 10 * time.Second
	DefaultMaxTimeout      = 2 * time.Minute
	// DefaultMaxCompileSteps caps the work of compiling one /query plan.
	// Steps are cheap (an enumeration step, a joined or probed row), so 50M
	// is roughly a second of compile CPU — generous for legitimate bounded-
	// width instances, fatal for a 24-ary bag over a 50-value domain.
	DefaultMaxCompileSteps = 50_000_000
	// DefaultMaxResultCells caps the assignment cells (one int each) a
	// single /query request may materialize into its response across the
	// whole batch — 4M cells ≈ 32 MB of solutions. Without it, a batch of
	// 10k enumerate queries with limit 10k could demand 10^8 rows however
	// small MaxRequestBytes is.
	DefaultMaxResultCells = 4 << 20
)

// Config configures a Server. The zero value serves with sane production
// defaults.
type Config struct {
	// Workers bounds concurrent decompositions (the worker pool size);
	// 0 selects GOMAXPROCS. Each admitted request occupies one slot for the
	// whole parse+decompose, so total decomposition CPU is bounded.
	Workers int
	// QueueDepth bounds requests waiting for a worker slot beyond the pool;
	// past Workers+QueueDepth, requests are rejected with 429. 0 selects
	// DefaultQueueDepth, negative disables queueing (admit only up to
	// Workers).
	QueueDepth int
	// MaxRequestBytes caps request bodies; oversize payloads get a typed
	// 413. 0 selects DefaultMaxRequestBytes.
	MaxRequestBytes int64
	// DefaultTimeout is the per-request budget when the client does not ask
	// for one; MaxTimeout is the ceiling a client can ask for (requests
	// asking for more are clamped, not rejected — the degraded-at-deadline
	// contract still returns their best width). Zeros select DefaultTimeout
	// and DefaultMaxTimeout.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxNodes, when positive, caps the per-request search-node budget a
	// client can ask for (and is the default when it asks for none).
	MaxNodes int64
	// CheckEvery overrides the budget checkpoint cadence of served runs
	// (default 256 ticks). Chaos tests lower it so deadline storms and
	// drain cancellations land promptly even in short runs.
	CheckEvery int64
	// CacheCapacity bounds the exact-result cache: 0 selects
	// DefaultCacheCapacity, negative disables caching.
	CacheCapacity int
	// PlanCacheCapacity bounds the compiled-plan cache behind /query: 0
	// selects DefaultPlanCacheCapacity, negative disables plan caching
	// (every /query request then decomposes and compiles afresh).
	PlanCacheCapacity int
	// MaxCompileSteps bounds the work of compiling one /query plan (bag
	// enumeration steps, join/projection rows, count-DP candidate checks).
	// Past it the request is rejected with 422 instead of wedging a worker
	// slot on a doubly-exponential materialization core.Decompose's budgets
	// never see. 0 selects DefaultMaxCompileSteps, negative disables the
	// step cap (the request timeout still bounds compile wall-clock).
	MaxCompileSteps int64
	// MaxResultCells bounds the total assignment cells (solution rows ×
	// variables) one /query request may materialize across its batch;
	// queries past the cap get per-query error markers instead of rows. 0
	// selects DefaultMaxResultCells, negative disables the cap.
	MaxResultCells int
	// Algorithm is the default algorithm when the request names none; empty
	// selects the algorithm portfolio (the racing solver set: exact when a
	// member proves optimality in time, anytime-degradable otherwise).
	// Requests that want one specific solver name it explicitly.
	Algorithm core.Algorithm
	// Trace, when non-nil, receives every served run's instrumentation
	// events, each stamped with its request id (obs.Event.Req) so the
	// interleaved streams of concurrent requests stay attributable. Must be
	// safe for concurrent use (obs.JSONLWriter is).
	Trace obs.Recorder
	// SlowN sizes the slowest-requests ring (/debug/slow): the N slowest
	// finished requests retain their full event traces for post-hoc
	// diagnosis. 0 selects DefaultSlowN, negative disables retention (and
	// with it the per-request event capture cost).
	SlowN int
	// AccessLog, when non-nil, receives one JSON line per finished request
	// (see accessRecord). Writes are serialized by the server; the writer
	// itself need not be concurrency-safe.
	AccessLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = DefaultQueueDepth
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = DefaultTimeout
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = DefaultMaxTimeout
	}
	if c.DefaultTimeout > c.MaxTimeout {
		c.DefaultTimeout = c.MaxTimeout
	}
	if c.Algorithm == "" {
		c.Algorithm = core.AlgPortfolio
	}
	switch {
	case c.MaxCompileSteps == 0:
		c.MaxCompileSteps = DefaultMaxCompileSteps
	case c.MaxCompileSteps < 0:
		c.MaxCompileSteps = 0 // 0 = unlimited for budget.Limits.MaxNodes
	}
	switch {
	case c.MaxResultCells == 0:
		c.MaxResultCells = DefaultMaxResultCells
	case c.MaxResultCells < 0:
		c.MaxResultCells = math.MaxInt
	}
	switch {
	case c.SlowN == 0:
		c.SlowN = DefaultSlowN
	case c.SlowN < 0:
		c.SlowN = 0
	}
	switch {
	case c.CacheCapacity == 0:
		c.CacheCapacity = DefaultCacheCapacity
	case c.CacheCapacity < 0:
		c.CacheCapacity = 0 // 0 = disabled for newFIFOCache
	}
	switch {
	case c.PlanCacheCapacity == 0:
		c.PlanCacheCapacity = DefaultPlanCacheCapacity
	case c.PlanCacheCapacity < 0:
		c.PlanCacheCapacity = 0
	}
	return c
}

// Outcome is the typed disposition every response carries. Clients switch on
// it instead of parsing error strings.
type Outcome string

const (
	// OutcomeExact: the run completed and the width is proven optimal.
	OutcomeExact Outcome = "exact"
	// OutcomeUpperBound: a heuristic run completed; the width is a valid
	// upper bound, not proven optimal.
	OutcomeUpperBound Outcome = "upper-bound"
	// OutcomeDegraded: a budget tripped (deadline, node cap, cancellation,
	// drain); the width is the best validated decomposition found in time,
	// with Stop naming the limit.
	OutcomeDegraded Outcome = "degraded"
	// OutcomeRejected: the request never ran — admission control, oversize
	// payload, malformed input, unservable instance, or draining.
	OutcomeRejected Outcome = "rejected"
	// OutcomeError: the run was admitted but failed; a contained panic is
	// the canonical case. The daemon survives it.
	OutcomeError Outcome = "error"
)

// outcomes lists every Outcome, for metrics iteration (an array so
// len(outcomes) sizes the counter bank at compile time).
var outcomes = [...]Outcome{OutcomeExact, OutcomeUpperBound, OutcomeDegraded, OutcomeRejected, OutcomeError}

// Response is the one JSON envelope every request gets back, whatever
// happened. Width-bearing fields are present on exact/upper-bound/degraded;
// Error explains rejected/error outcomes.
type Response struct {
	Outcome Outcome `json:"outcome"`
	Req     string  `json:"req,omitempty"`
	Algo    string  `json:"algo,omitempty"`
	// N and M are the parsed instance size (vertices, hyperedges).
	N int `json:"n,omitempty"`
	M int `json:"m,omitempty"`
	// Width is the achieved width; LowerBound the best proven lower bound.
	Width      int  `json:"width,omitempty"`
	LowerBound int  `json:"lower_bound,omitempty"`
	Exact      bool `json:"exact,omitempty"`
	// Stop names the budget limit that ended a degraded run.
	Stop        string `json:"stop,omitempty"`
	Nodes       int64  `json:"nodes,omitempty"`
	Evaluations int64  `json:"evaluations,omitempty"`
	ElapsedMS   int64  `json:"elapsed_ms"`
	// Cached reports the response was served from the exact-result cache.
	Cached bool `json:"cached,omitempty"`
	// WaitedMS is how long the request waited for a worker slot before its
	// run started (0 for cache hits and pre-admission rejections). Always
	// present: queue wait is the first thing to check when latency spikes.
	WaitedMS int64 `json:"waited_ms"`
	// Timings is the per-phase latency breakdown of the request's serving
	// lifecycle. ElapsedMS remains the solve wall-clock alone; Timings.Total
	// is the whole request.
	Timings *Timings `json:"timings,omitempty"`
	// Timeline is the anytime best-width trajectory of the run.
	Timeline []obs.WidthPoint `json:"timeline,omitempty"`
	// Attribution is the run's per-member resource ledger: what each solver
	// cost (attributed nodes, CPU estimate, cover-cache traffic) and what it
	// contributed (incumbent claims, lower bounds, terminal role). Portfolio
	// runs carry one member per racer; serial runs the degenerate one-member
	// ledger — one shape either way. Absent on cache hits (a hit spends no
	// solver work, so there is nothing to account).
	Attribution *attr.Ledger `json:"attribution,omitempty"`
	// Tree is the decomposition itself, when the request asked for it
	// (include=tree).
	Tree *TreeJSON `json:"tree,omitempty"`
	// Error explains rejected/error outcomes; RetrySeconds mirrors the
	// Retry-After header on backpressure rejections.
	Error        string `json:"error,omitempty"`
	RetrySeconds int    `json:"retry_after_s,omitempty"`
}

// TreeJSON is the wire form of a decomposition: per-node bags of vertex
// names, per-node λ edge-name covers (GHDs only), and the parent array
// (-1 marks the root).
type TreeJSON struct {
	Bags    [][]string `json:"bags"`
	Lambdas [][]string `json:"lambdas,omitempty"`
	Parent  []int      `json:"parent"`
	Root    int        `json:"root"`
	Width   int        `json:"width"`
}

// Server is the decomposition service. Create with New, serve with any
// http.Server (it implements http.Handler), stop with Drain.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	started time.Time

	sem      chan struct{} // worker-slot semaphore, cap = cfg.Workers
	pending  atomic.Int64  // admitted requests (queued + running)
	inflight atomic.Int64  // requests holding a worker slot
	draining atomic.Bool
	wg       sync.WaitGroup // every request between admission and response

	// baseCtx cancels every in-flight budget when a drain's grace period
	// expires: runs stop at their next checkpoint and still answer with
	// their anytime best.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	reqSeq       atomic.Int64
	outcomeCount [len(outcomes)]atomic.Int64
	streamTotal  atomic.Int64
	counters     *obs.EventCounters
	cache        *fifoCache[*Response]

	// The query-serving layer (/query): compiled plans cached by content
	// hash, per-outcome request counters, per-op served-query counters, and
	// latency summaries for whole query requests and plan compiles.
	// plansSkipped counts degraded decompositions served once but never
	// cached.
	plans        *fifoCache[*cachedPlan]
	queryOutcome [len(outcomes)]atomic.Int64
	queryOpCount [len(queryOps)]atomic.Int64
	plansSkipped atomic.Int64
	queryHist    *hist.Histogram
	compileHist  *hist.Histogram

	// The latency layer: end-to-end request histograms per typed outcome,
	// per-phase histograms (queue wait, parse, cache, solve, encode), the
	// live in-flight registry behind /debug/runs, and the slowest-N ring
	// behind /debug/slow.
	reqHist   [len(outcomes)]*hist.Histogram
	phaseHist [numPhases]*hist.Histogram
	registry  inflightRegistry
	slow      *slowRing
	accessMu  sync.Mutex // serializes Config.AccessLog writes

	// The attribution layer: cumulative per-member cost accounting across
	// every solved request, folded out of each response's ledger and served
	// as the hypertree_portfolio_member_* metric families.
	attrMu    sync.Mutex
	attrStats map[string]*memberTotals
}

// memberTotals is one algorithm's cumulative cost-accounting row: wins,
// incumbent improvements and attributed search nodes across all requests
// this process served (serial runs count as their one member's totals).
type memberTotals struct {
	wins         int64
	improvements int64
	nodes        int64
}

// recordAttribution folds one finished run's ledger into the cumulative
// per-member totals behind /metrics. Cache hits carry no ledger and pass a
// nil, which is a no-op — cached answers cost no solver work.
func (s *Server) recordAttribution(led *attr.Ledger) {
	if led == nil {
		return
	}
	s.attrMu.Lock()
	defer s.attrMu.Unlock()
	if s.attrStats == nil {
		s.attrStats = make(map[string]*memberTotals)
	}
	for i := range led.Members {
		m := &led.Members[i]
		t := s.attrStats[m.Algo]
		if t == nil {
			t = &memberTotals{}
			s.attrStats[m.Algo] = t
		}
		if m.Role == attr.RoleWinner {
			t.wins++
		}
		t.improvements += int64(len(m.Claims))
		t.nodes += m.Nodes
	}
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		started:    time.Now(),
		sem:        make(chan struct{}, cfg.Workers),
		baseCtx:    ctx,
		baseCancel: cancel,
		counters:   obs.NewEventCounters(),
		slow:       newSlowRing(cfg.SlowN),
	}
	for i := range s.reqHist {
		s.reqHist[i] = hist.New()
	}
	for i := range s.phaseHist {
		s.phaseHist[i] = hist.New()
	}
	s.cache = newFIFOCache[*Response](cfg.CacheCapacity)
	s.plans = newFIFOCache[*cachedPlan](cfg.PlanCacheCapacity)
	s.queryHist = hist.New()
	s.compileHist = hist.New()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /decompose", s.handleDecompose)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /debug/runs", s.handleDebugRuns)
	s.mux.HandleFunc("GET /debug/slow", s.handleDebugSlow)
	return s
}

// ServeHTTP implements http.Handler with an outermost panic barrier: a bug
// in the handler itself (not the algorithms — those are contained by
// budget.Guard inside core.Decompose) answers 500 with a typed envelope
// instead of killing the connection without a response.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			pe := budget.AsPanicError(rec)
			s.respond(w, http.StatusInternalServerError, &Response{
				Outcome: OutcomeError,
				Error:   fmt.Sprintf("contained handler panic: %v", pe.Value),
			})
		}
	}()
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Algorithms []core.Algorithm `json:"algorithms"`
		Default    core.Algorithm   `json:"default"`
	}{core.Algorithms, s.cfg.Algorithm})
}

// reqParams are the per-request knobs parsed from the query string.
type reqParams struct {
	algo    core.Algorithm
	format  string
	timeout time.Duration
	nodes   int64
	seed    int64
	workers int
	stream  bool
	tree    bool
}

func (s *Server) parseParams(r *http.Request) (reqParams, error) {
	q := r.URL.Query()
	p := reqParams{
		algo:    s.cfg.Algorithm,
		format:  "hg",
		timeout: s.cfg.DefaultTimeout,
		nodes:   s.cfg.MaxNodes,
		seed:    1,
	}
	if v := q.Get("algo"); v != "" {
		a, err := core.ParseAlgorithm(v)
		if err != nil {
			return p, err
		}
		p.algo = a
	}
	if v := q.Get("format"); v != "" {
		switch v {
		case "hg", "dimacs", "gr", "edgelist":
			p.format = v
		default:
			return p, fmt.Errorf("unknown format %q (have hg, dimacs, gr, edgelist)", v)
		}
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return p, fmt.Errorf("bad timeout %q (want a positive Go duration, e.g. 500ms)", v)
		}
		p.timeout = d
	}
	if p.timeout > s.cfg.MaxTimeout {
		p.timeout = s.cfg.MaxTimeout
	}
	if v := q.Get("nodes"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad nodes %q (want a non-negative integer)", v)
		}
		if s.cfg.MaxNodes > 0 && (n == 0 || n > s.cfg.MaxNodes) {
			n = s.cfg.MaxNodes
		}
		p.nodes = n
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad seed %q", v)
		}
		p.seed = n
	}
	if v := q.Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad workers %q (want a non-negative integer)", v)
		}
		p.workers = core.ClampWorkers(n)
	}
	switch v := q.Get("stream"); v {
	case "":
	case "sse":
		p.stream = true
	default:
		return p, fmt.Errorf("unknown stream mode %q (have sse)", v)
	}
	switch v := q.Get("include"); v {
	case "":
	case "tree":
		p.tree = true
	default:
		return p, fmt.Errorf("unknown include %q (have tree)", v)
	}
	return p, nil
}

// handleDecompose is the serving path; see the package comment for the
// discipline it implements. Every exit goes through the request's lifecycle
// (lc): phase timings, span events, the timings block, histograms.
func (s *Server) handleDecompose(w http.ResponseWriter, r *http.Request) {
	s.wg.Add(1)
	defer s.wg.Done()
	lc, p, body, ok := s.open(w, r, epDecompose)
	if !ok {
		return
	}

	// The body was read before admission: cheap, and the content hash can
	// answer retries from the cache without spending a worker slot.
	key := resultKey(body, p.format, p.algo, p.seed)
	cstart := time.Now()
	cached, hit := s.cache.lookup(key)
	lc.phase(phaseCache, time.Since(cstart))
	if hit && !p.stream {
		cp := *cached
		cp.Req = lc.id
		cp.Cached = true
		if !p.tree {
			cp.Tree = nil
		}
		// The hit gets its own fresh timings (the stored entry carries none):
		// a cached 2ms answer must not report the original 2s solve. The
		// stored ledger is stripped for the same reason — this request spent
		// no solver work, so it has no costs to attribute.
		cp.Attribution = nil
		cp.Timings = lc.finish(cp.accessRecord(http.StatusOK, false))
		cp.WaitedMS = 0
		s.writeJSON(w, http.StatusOK, &cp)
		return
	}

	ri := s.admit(w, r, lc)
	if ri == nil {
		return
	}
	defer s.release(lc.id)

	faultinject.Hit(faultinject.SiteServerHandle)

	// Parse inside the worker slot: parser CPU is bounded by the pool, so a
	// storm of slow parses degrades into queueing + 429, never into
	// unbounded goroutines.
	faultinject.Hit(faultinject.SiteServerParse)
	pstart := time.Now()
	h, err := parsePayload(body, p.format)
	lc.phase(phaseParse, time.Since(pstart))
	if err != nil {
		s.fail(w, lc, http.StatusBadRequest, OutcomeRejected, fmt.Sprintf("parsing %s payload: %v", p.format, err), 0)
		return
	}

	ctx, stop := s.runContext(r)
	defer stop()

	// The run's recorder fans out to: obs counters + request-stamped trace +
	// slow-ring capture (all via lc.spans), the in-flight registry gauges,
	// and — when streaming — the SSE writer.
	var sse *sseWriter
	rec := obs.Tee(lc.spans, ri)
	if p.stream {
		sse = newSSEWriter(w, lc.id)
		if sse == nil {
			s.fail(w, lc, http.StatusNotAcceptable, OutcomeRejected, "response writer cannot stream (no http.Flusher)", 0)
			return
		}
		s.streamTotal.Add(1)
		rec = obs.Tee(rec, sse)
	}

	d, derr := s.decompose(ctx, lc, p, h, rec)

	estart := time.Now()
	resp, status := buildResponse(lc.id, p, h, d, derr, lc.phases[phaseSolve])
	if resp.Outcome == OutcomeExact && derr == nil {
		// Cache a request-agnostic copy (with the tree: a later include=tree
		// hit wants it; misses strip it). Exact widths are deterministic for
		// the keyed (payload, format, algo, seed), so retries are idempotent.
		// Taken before the timings stamp below, so stored entries carry no
		// stale per-request timings.
		cp := *resp
		cp.Req = ""
		cp.Cached = false
		// The ledger accounts one run's work; replaying it on later hits
		// would double-count costs, so stored entries carry none.
		cp.Attribution = nil
		if cp.Tree == nil {
			cp.Tree = treeJSON(h, d)
		}
		s.cache.store(key, &cp)
	}
	lc.phase(phaseEncode, time.Since(estart))

	resp.Timings = lc.finish(resp.accessRecord(status, sse != nil))
	resp.WaitedMS = lc.waitedMS()
	s.recordAttribution(resp.Attribution)
	if sse != nil {
		sse.finish(resp)
		return
	}
	s.writeJSON(w, status, resp)
}

// open starts serving a request that came in on endpoint ep: its id, its
// lifecycle, the draining check, the query-string parameters and the
// size-capped body. It answers a request it turns away itself and returns
// ok=false. The caller counts the request for drain (s.wg) before calling
// open, so a request is either rejected-by-draining or fully waited for —
// never silently abandoned between the two.
func (s *Server) open(w http.ResponseWriter, r *http.Request, ep endpoint) (lc *lifecycle, p reqParams, body []byte, ok bool) {
	id := fmt.Sprintf("r%06d", s.reqSeq.Add(1))
	w.Header().Set("X-Request-ID", id)
	lc = s.newLifecycle(id, r.RemoteAddr, ep)
	if s.draining.Load() {
		s.fail(w, lc, http.StatusServiceUnavailable, OutcomeRejected, "draining: not admitting new requests", drainingRetrySeconds)
		return nil, p, nil, false
	}
	p, err := s.parseParams(r)
	if err != nil {
		s.fail(w, lc, http.StatusBadRequest, OutcomeRejected, err.Error(), 0)
		return nil, p, nil, false
	}
	lc.algo = string(p.algo)
	body, err = readBody(r, s.cfg.MaxRequestBytes)
	if err != nil {
		var tooBig *hypergraph.PayloadTooLargeError
		if errors.As(err, &tooBig) {
			s.fail(w, lc, http.StatusRequestEntityTooLarge, OutcomeRejected,
				fmt.Sprintf("payload exceeds %d-byte limit", tooBig.Limit), 0)
		} else {
			s.fail(w, lc, http.StatusBadRequest, OutcomeRejected, fmt.Sprintf("reading body: %v", err), 0)
		}
		return nil, p, nil, false
	}
	return lc, p, body, true
}

// maxPresizedBody bounds the buffer readBody sizes from a declared
// Content-Length before any byte arrives: a client that declares the whole
// MaxRequestBytes and sends nothing holds no more than this.
const maxPresizedBody = 1 << 20

// readBody reads r's body, capped at limit bytes. A body whose declared
// Content-Length is within the cap and maxPresizedBody is read into one
// buffer of that size, where io.ReadAll would double its buffer from 512
// bytes; longer bodies grow past it as they arrive.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	size := int64(512)
	if n := r.ContentLength; n > 0 && n <= limit {
		// One byte past the length: the read that meets EOF then has room
		// without growing the buffer.
		size = min(n, maxPresizedBody) + 1
	}
	lr := hypergraph.LimitReader(r.Body, limit)
	b := make([]byte, 0, size)
	for {
		n, err := lr.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // let append pick the growth
		}
	}
}

// admit takes an opened request to a worker slot. pending counts everything
// from here to the response; beyond Workers+QueueDepth the request is shed
// with backpressure. An admitted request is visible in /debug/runs (state
// "queued", then "running") until it is released. admit answers a request
// it turns away itself and returns nil; otherwise the caller must defer
// s.release(lc.id).
func (s *Server) admit(w http.ResponseWriter, r *http.Request, lc *lifecycle) *runInfo {
	if s.pending.Add(1) > int64(s.cfg.Workers+s.cfg.QueueDepth) {
		s.pending.Add(-1)
		s.fail(w, lc, http.StatusTooManyRequests, OutcomeRejected, "saturated: worker pool and queue full", saturatedRetrySeconds)
		return nil
	}
	ri := &runInfo{id: lc.id, algo: lc.algo, start: time.Now()}
	s.registry.add(ri)

	qstart := time.Now()
	var (
		status, retry int
		msg           string
	)
	select {
	case s.sem <- struct{}{}:
		wait := time.Since(qstart)
		lc.phase(phaseQueueWait, wait)
		ri.waitNS.Store(int64(wait))
		ri.running.Store(true)
		s.inflight.Add(1)
		return ri
	case <-r.Context().Done():
		status, msg = statusClientClosedRequest, "client canceled while queued"
	case <-s.baseCtx.Done():
		status, msg, retry = http.StatusServiceUnavailable, "draining: canceled while queued", drainingRetrySeconds
	}
	lc.phase(phaseQueueWait, time.Since(qstart))
	s.fail(w, lc, status, OutcomeRejected, msg, retry)
	s.registry.remove(lc.id)
	s.pending.Add(-1)
	return nil
}

// release hands back everything admit took, after the response is written.
func (s *Server) release(id string) {
	s.inflight.Add(-1)
	<-s.sem
	s.registry.remove(id)
	s.pending.Add(-1)
}

// runContext is the context an admitted request's budgets run under: the
// request's own, cut short by client disconnect or by a drain whose grace
// period expired. The caller must call stop once the run is over.
func (s *Server) runContext(r *http.Request) (ctx context.Context, stop func()) {
	ctx, cancel := context.WithCancel(r.Context())
	unhook := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() {
		unhook()
		cancel()
	}
}

// decompose runs the request's decomposition under ctx and the request's
// clamped budgets, timed as the solve phase.
func (s *Server) decompose(ctx context.Context, lc *lifecycle, p reqParams, h *hypergraph.Hypergraph, rec obs.Recorder) (*core.Decomposition, error) {
	start := time.Now()
	d, err := core.Decompose(h, core.Options{
		Algorithm:  p.algo,
		Ctx:        ctx,
		Timeout:    p.timeout,
		MaxNodes:   p.nodes,
		CheckEvery: s.cfg.CheckEvery,
		Seed:       p.seed,
		Workers:    p.workers,
		Recorder:   rec,
	})
	lc.phase(phaseSolve, time.Since(start))
	return d, err
}

// runFailure maps a failed decomposition to its typed outcome, HTTP status
// and message. A contained panic is the server's failure; anything else —
// an empty hypergraph, uncovered vertices, no decomposition within the
// tried widths — is the request's.
func runFailure(err error) (Outcome, int, string) {
	var pe *budget.PanicError
	if errors.As(err, &pe) {
		return OutcomeError, http.StatusInternalServerError, fmt.Sprintf("algorithm panicked (contained): %v", pe.Value)
	}
	return OutcomeRejected, http.StatusUnprocessableEntity, err.Error()
}

// Retry-After hints on backpressure rejections. A saturated pool usually
// clears in about one service time, so 1s is an honest backoff; a draining
// server will not come back, so 1s there means "fail over promptly, don't
// linger".
const (
	saturatedRetrySeconds = 1
	drainingRetrySeconds  = 1
)

// statusClientClosedRequest is nginx's conventional code for "the client went
// away before we answered"; no stdlib constant exists.
const statusClientClosedRequest = 499

// buildResponse folds a Decompose result (or error) into the typed envelope
// and its HTTP status.
func buildResponse(id string, p reqParams, h *hypergraph.Hypergraph, d *core.Decomposition, derr error, elapsed time.Duration) (*Response, int) {
	resp := &Response{
		Req:       id,
		Algo:      string(p.algo),
		ElapsedMS: elapsed.Milliseconds(),
	}
	if h != nil {
		resp.N, resp.M = h.N(), h.M()
	}
	if derr != nil {
		var status int
		resp.Outcome, status, resp.Error = runFailure(derr)
		return resp, status
	}
	resp.Width = d.Width
	resp.LowerBound = d.LowerBound
	resp.Exact = d.Exact
	resp.Stop = string(d.Stop)
	resp.Nodes = d.Nodes
	resp.Evaluations = d.Evaluations
	if d.Stats != nil {
		resp.Timeline = d.Stats.Snapshot().Timeline
	}
	resp.Attribution = d.Ledger
	switch {
	case d.Interrupted:
		resp.Outcome = OutcomeDegraded
	case d.Exact:
		resp.Outcome = OutcomeExact
	default:
		resp.Outcome = OutcomeUpperBound
	}
	if p.tree {
		resp.Tree = treeJSON(h, d)
	}
	return resp, http.StatusOK
}

// accessRecord is resp's access-log line; finish adds the request's identity
// and timings.
func (resp *Response) accessRecord(status int, stream bool) accessRecord {
	rec := accessRecord{
		Outcome: resp.Outcome,
		Status:  status,
		N:       resp.N,
		M:       resp.M,
		Width:   resp.Width,
		Exact:   resp.Exact,
		Stop:    resp.Stop,
		Cached:  resp.Cached,
		Stream:  stream,
		Error:   resp.Error,
	}
	if resp.Attribution != nil {
		rec.Winner = resp.Attribution.Winner
	}
	return rec
}

// treeJSON renders the decomposition for the wire: the GHD when the run
// produced one, the tree decomposition otherwise.
func treeJSON(h *hypergraph.Hypergraph, d *core.Decomposition) *TreeJSON {
	name := func(vs []int) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = h.VertexName(v)
		}
		return out
	}
	if d.GHD != nil {
		g := d.GHD
		t := &TreeJSON{
			Bags:    make([][]string, len(g.Bags)),
			Lambdas: make([][]string, len(g.Lambdas)),
			Parent:  g.Parent,
			Root:    g.Root,
			Width:   g.Width(),
		}
		for i, bag := range g.Bags {
			t.Bags[i] = name(bag)
		}
		for i, lam := range g.Lambdas {
			es := make([]string, len(lam))
			for j, e := range lam {
				es[j] = h.EdgeName(e)
			}
			t.Lambdas[i] = es
		}
		return t
	}
	if d.TD == nil {
		return nil
	}
	td := d.TD
	t := &TreeJSON{
		Bags:   make([][]string, len(td.Bags)),
		Parent: td.Parent,
		Root:   td.Root,
		Width:  td.Width(),
	}
	for i, bag := range td.Bags {
		t.Bags[i] = name(bag)
	}
	return t
}

// parsePayload decodes body in the named format. Graph formats lift to
// hypergraphs via the primal-graph embedding, same as the CLI.
func parsePayload(body []byte, format string) (*hypergraph.Hypergraph, error) {
	r := bytes.NewReader(body)
	switch format {
	case "hg":
		return hypergraph.ParseHG(r)
	case "dimacs":
		g, err := hypergraph.ParseDIMACS(r)
		if err != nil {
			return nil, err
		}
		return hypergraph.FromGraph(g), nil
	case "gr":
		g, err := hypergraph.ParseGr(r)
		if err != nil {
			return nil, err
		}
		return hypergraph.FromGraph(g), nil
	case "edgelist":
		return hypergraph.ParseEdgeList(r)
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
}

// fail answers a request that produced no result: a rejection (it never
// ran, or the request is at fault) or an error (an admitted run failed),
// with backpressure hints when retrySeconds is positive. It closes the
// request's lifecycle like every other exit, so failures too are counted,
// timed, logged and offered to the slow ring. A /query request gets the
// same envelope: every QueryResponse field a Response lacks is omitempty,
// so the bytes match.
func (s *Server) fail(w http.ResponseWriter, lc *lifecycle, status int, o Outcome, msg string, retrySeconds int) {
	resp := &Response{Outcome: o, Req: lc.id, Error: msg, RetrySeconds: retrySeconds}
	resp.Timings = lc.finish(accessRecord{Outcome: o, Status: status, Error: msg})
	resp.WaitedMS = lc.waitedMS()
	if retrySeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retrySeconds))
	}
	s.writeJSON(w, status, resp)
}

// respond is the panic-barrier response writer: unlike writeJSON it tolerates
// a handler that already wrote headers (the write simply fails downstream).
func (s *Server) respond(w http.ResponseWriter, status int, resp *Response) {
	s.count(resp.Outcome)
	s.writeJSON(w, status, resp)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode errors mean the client went away; there is nobody to tell.
	_ = json.NewEncoder(w).Encode(v)
}

// outcomeIndex maps an Outcome to its slot in the counter/histogram banks
// (-1 for unknown values).
func outcomeIndex(o Outcome) int {
	for i, known := range outcomes {
		if o == known {
			return i
		}
	}
	return -1
}

func (s *Server) count(o Outcome) {
	if i := outcomeIndex(o); i >= 0 {
		s.outcomeCount[i].Add(1)
	}
}

// OutcomeCount returns how many responses carried outcome o.
func (s *Server) OutcomeCount(o Outcome) int64 {
	if i := outcomeIndex(o); i >= 0 {
		return s.outcomeCount[i].Load()
	}
	return 0
}

// Draining reports whether the server has stopped admitting requests.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the number of requests currently holding a worker slot.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// DrainReport says how a drain went.
type DrainReport struct {
	// Forced reports the grace period expired and in-flight budgets were
	// canceled (their requests still answered, with degraded outcomes).
	Forced bool
	// Waited is how long the drain took end to end.
	Waited time.Duration
}

// Drain gracefully stops the server: new requests are rejected with a typed
// 503 (readyz flips to draining), queued requests keep their place, and
// in-flight runs get up to grace to finish on their own budgets. When grace
// expires, every in-flight budget is canceled — runs stop at their next
// checkpoint and their requests are still answered with anytime results.
// Drain returns only when every admitted request has been responded to:
// zero in-flight requests are dropped, by construction. A non-positive
// grace cancels immediately.
func (s *Server) Drain(grace time.Duration) DrainReport {
	start := time.Now()
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	rep := DrainReport{}
	if grace > 0 {
		timer := time.NewTimer(grace)
		defer timer.Stop()
		select {
		case <-done:
			rep.Waited = time.Since(start)
			return rep
		case <-timer.C:
			rep.Forced = true
		}
	} else {
		rep.Forced = s.inflight.Load() > 0 || s.pending.Load() > 0
	}
	s.baseCancel()
	<-done
	rep.Waited = time.Since(start)
	return rep
}

// handleMetrics serves the daemon's serving-level counters followed by the
// obs event counters, in the OpenMetrics text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b bytes.Buffer
	fmt.Fprintf(&b, "# HELP hypertree_daemon_uptime_seconds Seconds since the server was built.\n# TYPE hypertree_daemon_uptime_seconds gauge\nhypertree_daemon_uptime_seconds %g\n",
		time.Since(s.started).Seconds())
	fmt.Fprintf(&b, "# HELP hypertree_daemon_requests_total Responses sent, by typed outcome.\n# TYPE hypertree_daemon_requests_total counter\n")
	for i, o := range outcomes {
		fmt.Fprintf(&b, "hypertree_daemon_requests_total{outcome=%q} %d\n", o, s.outcomeCount[i].Load())
	}
	fmt.Fprintf(&b, "# HELP hypertree_daemon_inflight Requests currently holding a worker slot.\n# TYPE hypertree_daemon_inflight gauge\nhypertree_daemon_inflight %d\n", s.inflight.Load())
	queued := s.pending.Load() - s.inflight.Load()
	if queued < 0 {
		queued = 0
	}
	fmt.Fprintf(&b, "# HELP hypertree_daemon_queued Admitted requests waiting for a worker slot.\n# TYPE hypertree_daemon_queued gauge\nhypertree_daemon_queued %d\n", queued)
	fmt.Fprintf(&b, "# HELP hypertree_daemon_workers Worker pool size.\n# TYPE hypertree_daemon_workers gauge\nhypertree_daemon_workers %d\n", s.cfg.Workers)
	fmt.Fprintf(&b, "# HELP hypertree_daemon_queue_depth Admission queue bound beyond the pool.\n# TYPE hypertree_daemon_queue_depth gauge\nhypertree_daemon_queue_depth %d\n", s.cfg.QueueDepth)
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(&b, "# HELP hypertree_daemon_draining 1 while the server refuses new work.\n# TYPE hypertree_daemon_draining gauge\nhypertree_daemon_draining %d\n", draining)
	fmt.Fprintf(&b, "# HELP hypertree_daemon_streams_total SSE-streamed decompositions started.\n# TYPE hypertree_daemon_streams_total counter\nhypertree_daemon_streams_total %d\n", s.streamTotal.Load())
	cs := s.cache.stats()
	fmt.Fprintf(&b, "# HELP hypertree_daemon_result_cache_hits Exact-result cache hits.\n# TYPE hypertree_daemon_result_cache_hits counter\nhypertree_daemon_result_cache_hits %d\n", cs.Hits)
	fmt.Fprintf(&b, "# HELP hypertree_daemon_result_cache_misses Exact-result cache misses.\n# TYPE hypertree_daemon_result_cache_misses counter\nhypertree_daemon_result_cache_misses %d\n", cs.Misses)
	fmt.Fprintf(&b, "# HELP hypertree_daemon_result_cache_evictions Exact-result cache FIFO evictions.\n# TYPE hypertree_daemon_result_cache_evictions counter\nhypertree_daemon_result_cache_evictions %d\n", cs.Evictions)
	fmt.Fprintf(&b, "# HELP hypertree_daemon_result_cache_size Exact-result cache resident entries.\n# TYPE hypertree_daemon_result_cache_size gauge\nhypertree_daemon_result_cache_size %d\n", cs.Size)
	s.writePortfolioMetrics(&b)
	s.writeLatencyMetrics(&b)
	s.writeQueryMetrics(&b)
	w.Write(b.Bytes())
	if err := s.counters.WriteOpenMetrics(w); err != nil {
		// The scrape connection broke mid-write; nothing to clean up.
		return
	}
}

// writePortfolioMetrics renders the cumulative per-member attribution
// families: wins, incumbent improvements and attributed search nodes as
// counters, plus each member's fraction of all attributed nodes as a gauge.
// Labels come out sorted so consecutive scrapes are byte-identical when
// nothing changed; the HELP/TYPE headers are emitted even before the first
// solved run, so the families are announced from the first scrape.
func (s *Server) writePortfolioMetrics(b *bytes.Buffer) {
	type row struct {
		algo string
		t    memberTotals
	}
	s.attrMu.Lock()
	rows := make([]row, 0, len(s.attrStats))
	var totalNodes int64
	for algo, t := range s.attrStats {
		rows = append(rows, row{algo, *t})
		totalNodes += t.nodes
	}
	s.attrMu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].algo < rows[j].algo })

	fmt.Fprintf(b, "# HELP hypertree_portfolio_member_wins_total Runs whose returned decomposition this member produced (serial runs count for their one member).\n# TYPE hypertree_portfolio_member_wins_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(b, "hypertree_portfolio_member_wins_total{algo=%q} %d\n", r.algo, r.t.wins)
	}
	fmt.Fprintf(b, "# HELP hypertree_portfolio_member_improvements_total Incumbent improvements claimed by this member across all runs.\n# TYPE hypertree_portfolio_member_improvements_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(b, "hypertree_portfolio_member_improvements_total{algo=%q} %d\n", r.algo, r.t.improvements)
	}
	fmt.Fprintf(b, "# HELP hypertree_portfolio_member_nodes_total Search nodes attributed to this member across all runs.\n# TYPE hypertree_portfolio_member_nodes_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(b, "hypertree_portfolio_member_nodes_total{algo=%q} %d\n", r.algo, r.t.nodes)
	}
	fmt.Fprintf(b, "# HELP hypertree_portfolio_member_node_share This member's fraction of all attributed search nodes.\n# TYPE hypertree_portfolio_member_node_share gauge\n")
	for _, r := range rows {
		share := 0.0
		if totalNodes > 0 {
			share = float64(r.t.nodes) / float64(totalNodes)
		}
		fmt.Fprintf(b, "hypertree_portfolio_member_node_share{algo=%q} %g\n", r.algo, share)
	}
}

// latencyQuantiles are the percentiles the /metrics summaries expose — the
// P50/P95/P99 triple the serving-benchmark ROADMAP item asks for.
var latencyQuantiles = []float64{0.5, 0.95, 0.99}

// writeLatencyMetrics renders the request/phase latency families: the
// per-outcome end-to-end histogram, the queue-wait histogram, and quantile
// summaries per phase and overall (the overall one merges the per-outcome
// snapshots — the hist.Snapshot.Merge path in production use). Writes to a
// bytes.Buffer never fail, so errors are discarded.
func (s *Server) writeLatencyMetrics(b *bytes.Buffer) {
	reqSeries := make([]hist.Series, len(outcomes))
	overall := &hist.Snapshot{}
	for i, o := range outcomes {
		snap := s.reqHist[i].Snapshot()
		reqSeries[i] = hist.Series{Labels: []hist.Label{{Name: "outcome", Value: string(o)}}, Snap: snap}
		// Same bucket layout by construction; Merge cannot fail.
		_ = overall.Merge(snap)
	}
	_ = hist.WriteHistogramFamily(b, "hypertree_daemon_request_seconds",
		"End-to-end request latency by typed outcome.", reqSeries...)
	_ = hist.WriteHistogramFamily(b, "hypertree_daemon_queue_wait_seconds",
		"Time admitted requests spent waiting for a worker slot.",
		hist.Series{Snap: s.phaseHist[phaseQueueWait].Snapshot()})
	_ = hist.WriteSummaryFamily(b, "hypertree_daemon_request_latency_seconds",
		"End-to-end request latency quantiles across all outcomes.", latencyQuantiles,
		hist.Series{Snap: overall})
	phaseSeries := make([]hist.Series, numPhases)
	for p := reqPhase(0); p < numPhases; p++ {
		phaseSeries[p] = hist.Series{
			Labels: []hist.Label{{Name: "phase", Value: phaseNames[p]}},
			Snap:   s.phaseHist[p].Snapshot(),
		}
	}
	_ = hist.WriteSummaryFamily(b, "hypertree_daemon_phase_seconds",
		"Per-phase latency quantiles of the request serving lifecycle.", latencyQuantiles,
		phaseSeries...)
}
