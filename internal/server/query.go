package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hypertree/internal/budget"
	"hypertree/internal/core"
	"hypertree/internal/csp"
	"hypertree/internal/csp/engine"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
	"hypertree/internal/obs/hist"
)

// The /query endpoint: decompose once, serve thousands of CSP queries. A
// request carries a CSP and a batch of queries; the server decomposes the
// CSP's constraint hypergraph, compiles the decomposition into an
// engine.Plan (cached by content hash — the expensive part is paid once per
// instance, not once per query), and answers the batch from the plan. The
// request path is /decompose's (open, admit, fail, the lifecycle's finish):
// draining check, bounded admission, one worker slot per request, typed
// envelopes, full lifecycle timings.

// Caps on a query batch. The request body cap bounds the CSP; these bound
// the work a single request can demand from a compiled plan. Two further
// bounds live elsewhere: Config.MaxCompileSteps bounds plan-compile work
// (a tiny CSP can declare a bag whose enumeration is astronomical) and
// Config.MaxResultCells bounds the assignment cells a batch materializes
// into its response (a batch of max-limit enumerates could otherwise demand
// gigabytes however small the request body is).
const (
	// MaxQueriesPerRequest bounds the batch size of one /query request.
	MaxQueriesPerRequest = 10000
	// DefaultEnumerateLimit is the enumerate cap when the query asks for
	// none; MaxEnumerateLimit is the most a query can ask for.
	DefaultEnumerateLimit = 100
	MaxEnumerateLimit     = 10000
	// MaxCSPVars bounds num_vars: cursors, solve assignments and enumerate
	// rows are all O(num_vars) memory, so a one-line request declaring a
	// huge variable count must not translate into gigabyte allocations.
	MaxCSPVars = 1 << 20
)

// queryEnvelope is the /query request body. The CSP stays raw until after
// the plan-cache lookup: its bytes are the cache key, and a hit never parses
// them.
type queryEnvelope struct {
	CSP     json.RawMessage `json:"csp"`
	Queries []querySpec     `json:"queries"`
}

// cspSpec is the wire form of a CSP.
type cspSpec struct {
	NumVars int `json:"num_vars"`
	// Domain is the shared-domain shorthand; Domains the per-variable form
	// (taking precedence when present — entries may be empty).
	Domain      []int            `json:"domain,omitempty"`
	Domains     [][]int          `json:"domains,omitempty"`
	Constraints []constraintSpec `json:"constraints"`
	VarNames    []string         `json:"var_names,omitempty"`
}

type constraintSpec struct {
	Scope  []int   `json:"scope"`
	Tuples [][]int `json:"tuples"`
}

// querySpec is one query of the batch: an operation, optional per-query
// unary assignments (variable name or index -> value), and an enumerate
// limit.
type querySpec struct {
	Op     string         `json:"op"` // solve | count | enumerate
	Assign map[string]int `json:"assign,omitempty"`
	Limit  int            `json:"limit,omitempty"`
}

// queryOps indexes the per-op served-queries counters.
var queryOps = [...]string{"solve", "count", "enumerate"}

func queryOpIndex(op string) int {
	for i, o := range queryOps {
		if o == op {
			return i
		}
	}
	return -1
}

// QueryResponse is the typed envelope of an answered /query request.
// Rejections and failures are written by fail as a Response, which marshals
// to the bytes a QueryResponse would: every field one type has and the
// other lacks is omitempty.
type QueryResponse struct {
	Outcome Outcome `json:"outcome"`
	Req     string  `json:"req,omitempty"`
	// N and M are the CSP size (variables, constraints).
	N int `json:"n,omitempty"`
	M int `json:"m,omitempty"`
	// Plan describes the compiled plan the batch ran against.
	Plan *PlanJSON `json:"plan,omitempty"`
	// Results is parallel to the request's queries array.
	Results   []QueryResult `json:"results,omitempty"`
	ElapsedMS int64         `json:"elapsed_ms"`
	WaitedMS  int64         `json:"waited_ms"`
	Timings   *Timings      `json:"timings,omitempty"`
	// Error explains rejected/error outcomes; RetrySeconds mirrors the
	// Retry-After header on backpressure rejections.
	Error        string `json:"error,omitempty"`
	RetrySeconds int    `json:"retry_after_s,omitempty"`
}

// PlanJSON describes a compiled plan on the wire: the decomposition it was
// built from and the compile-time facts of the engine.
type PlanJSON struct {
	Algo  string `json:"algo"`
	Width int    `json:"width"`
	Exact bool   `json:"exact"`
	// Nodes/Rows/MaxBagRows are the engine's materialized footprint.
	Nodes       int  `json:"nodes"`
	Rows        int  `json:"rows"`
	MaxBagRows  int  `json:"max_bag_rows"`
	Satisfiable bool `json:"satisfiable"`
	Solutions   int  `json:"solutions"`
	// SolutionsOverflow reports the solution count saturated at the int
	// limit: Solutions is then a lower bound, not the true value.
	SolutionsOverflow bool `json:"solutions_overflow,omitempty"`
	// Cached reports the plan came from the plan cache; CompileMS is the
	// original compile cost (decompose excluded).
	Cached    bool  `json:"cached"`
	CompileMS int64 `json:"compile_ms"`
}

// QueryResult is one query's answer. Sat/Assignment answer solve, Count
// answers count, Solutions answers enumerate; Error flags a malformed query
// (unknown op, unknown variable) without failing the batch.
type QueryResult struct {
	Op         string  `json:"op"`
	Sat        *bool   `json:"sat,omitempty"`
	Assignment []int   `json:"assignment,omitempty"`
	Count      *int    `json:"count,omitempty"`
	Solutions  [][]int `json:"solutions,omitempty"`
	// CountOverflow reports the count saturated at the int limit: Count is
	// then a lower bound, not the true value.
	CountOverflow bool `json:"count_overflow,omitempty"`
	// Truncated reports the enumerate hit the request's result budget
	// before its limit: Solutions may be incomplete.
	Truncated bool   `json:"truncated,omitempty"`
	Error     string `json:"error,omitempty"`
}

// cachedPlan is a plan-cache entry: the immutable compiled plan plus the
// request-agnostic facts every later hit reports.
type cachedPlan struct {
	plan *engine.Plan
	info PlanJSON // Cached=false; hits flip it on their copy
	// names maps declared variable names to indexes, for resolving query
	// pins without reparsing the CSP on cache hits. Nil when the CSP
	// declared none.
	names   map[string]int
	n, m    int
	outcome Outcome
}

// handleQuery is the /query serving path.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.wg.Add(1)
	defer s.wg.Done()
	lc, p, body, ok := s.open(w, r, epQuery)
	if !ok {
		return
	}
	var env queryEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		s.fail(w, lc, http.StatusBadRequest, OutcomeRejected, fmt.Sprintf("decoding request: %v", err), 0)
		return
	}
	if len(env.CSP) == 0 {
		s.fail(w, lc, http.StatusBadRequest, OutcomeRejected, "missing csp", 0)
		return
	}
	if len(env.Queries) > MaxQueriesPerRequest {
		s.fail(w, lc, http.StatusBadRequest, OutcomeRejected,
			fmt.Sprintf("%d queries exceed the %d-per-request cap", len(env.Queries), MaxQueriesPerRequest), 0)
		return
	}

	// Plan-cache lookup before admission-heavy work: the key covers the raw
	// CSP bytes, the algorithm, the seed and the budget knobs — everything
	// that determines the compiled plan (heuristic decompositions depend on
	// their budgets), and nothing (the queries) that doesn't.
	key := planKey(env.CSP, p.algo, p.seed, p.timeout, p.nodes, p.workers)
	cstart := time.Now()
	entry, hit := s.plans.lookup(key)
	lc.phase(phaseCache, time.Since(cstart))

	// Even a plan-cache hit runs its batch inside a worker slot: query CPU
	// stays pool-bounded exactly like solver CPU.
	ri := s.admit(w, r, lc)
	if ri == nil {
		return
	}
	defer s.release(lc.id)

	if !hit {
		entry = s.compilePlan(w, lc, ri, r, p, env.CSP)
		if entry == nil {
			return // compilePlan already answered
		}
		if entry.outcome == OutcomeDegraded {
			// A degraded decomposition still yields a correct plan (any
			// valid decomposition does), but its shape is budget-dependent,
			// so it is served once and never cached — mirroring the
			// exact-only discipline of the result cache.
			s.plansSkipped.Add(1)
		} else {
			s.plans.store(key, entry)
		}
	}

	// The batch: one cursor serves every query of this request in sequence;
	// concurrency across requests comes from each request's own cursor.
	// cells is the request's remaining result budget — every materialized
	// assignment cell across the batch draws it down, so response memory is
	// bounded whatever the batch asks for.
	qrstart := time.Now()
	cu := entry.plan.NewCursor()
	cells := s.cfg.MaxResultCells
	results := make([]QueryResult, len(env.Queries))
	for i := range env.Queries {
		results[i] = s.runQuery(cu, entry, &env.Queries[i], &cells)
	}
	lc.phase(phaseQuery, time.Since(qrstart))

	estart := time.Now()
	info := entry.info
	info.Cached = hit
	resp := &QueryResponse{
		Outcome:   entry.outcome,
		Req:       lc.id,
		N:         entry.n,
		M:         entry.m,
		Plan:      &info,
		Results:   results,
		ElapsedMS: time.Since(lc.start).Milliseconds(),
	}
	lc.phase(phaseEncode, time.Since(estart))
	resp.Timings = lc.finish(accessRecord{
		Outcome: resp.Outcome,
		Status:  http.StatusOK,
		N:       resp.N,
		M:       resp.M,
		Width:   info.Width,
		Exact:   info.Exact,
		Cached:  hit,
	})
	resp.WaitedMS = lc.waitedMS()
	s.writeJSON(w, http.StatusOK, resp)
}

// compilePlan parses, decomposes and compiles the CSP inside the worker
// slot. On failure it answers the request itself and returns nil.
func (s *Server) compilePlan(w http.ResponseWriter, lc *lifecycle, ri *runInfo, r *http.Request, p reqParams, rawCSP json.RawMessage) *cachedPlan {
	pstart := time.Now()
	c, err := parseCSP(rawCSP)
	lc.phase(phaseParse, time.Since(pstart))
	if err != nil {
		s.fail(w, lc, http.StatusBadRequest, OutcomeRejected, fmt.Sprintf("parsing csp: %v", err), 0)
		return nil
	}
	h := c.Hypergraph()

	ctx, stop := s.runContext(r)
	defer stop()
	d, derr := s.decompose(ctx, lc, p, h, obs.Tee(lc.spans, ri))
	if derr != nil {
		o, status, msg := runFailure(derr)
		s.fail(w, lc, status, o, msg, 0)
		return nil
	}

	// The compile budget: the materialized-table work of turning the
	// decomposition into a plan is bounded exactly like solver work —
	// request timeout, a step cap, and the same cancel signals (client
	// disconnect, drain) core.Decompose honors. Without it, a sub-kilobyte
	// CSP declaring one wide bag over a large domain forces |domain|^|bag|
	// enumeration steps and wedges this worker slot forever.
	kstart := time.Now()
	cb := budget.New(ctx, budget.Limits{
		Timeout:    p.timeout,
		MaxNodes:   s.cfg.MaxCompileSteps,
		CheckEvery: s.cfg.CheckEvery,
	})
	plan, err := compileDecomposition(c, h, d, cb)
	compileDur := time.Since(kstart)
	lc.phase(phaseCompile, compileDur)
	s.compileHist.Observe(compileDur)
	if err != nil {
		var ie *csp.InterruptedError
		switch {
		case !errors.As(err, &ie):
			s.fail(w, lc, http.StatusInternalServerError, OutcomeError, fmt.Sprintf("compiling plan: %v", err), 0)
		case s.baseCtx.Err() != nil:
			s.fail(w, lc, http.StatusServiceUnavailable, OutcomeRejected,
				"draining: plan compile canceled", drainingRetrySeconds)
		case r.Context().Err() != nil:
			s.fail(w, lc, statusClientClosedRequest, OutcomeRejected,
				"client canceled during plan compile", 0)
		default:
			s.fail(w, lc, http.StatusUnprocessableEntity, OutcomeRejected,
				fmt.Sprintf("plan compile exceeded its budget (%s): the instance materializes more bag-table work than this server will serve", ie.Reason), 0)
		}
		return nil
	}

	st := plan.Stats()
	outcome := OutcomeUpperBound
	if d.Exact {
		outcome = OutcomeExact
	}
	if d.Interrupted {
		outcome = OutcomeDegraded
	}
	var names map[string]int
	if c.VarNames != nil {
		names = make(map[string]int, len(c.VarNames))
		for v, name := range c.VarNames {
			if name != "" {
				names[name] = v
			}
		}
	}
	entry := &cachedPlan{
		plan:  plan,
		names: names,
		info: PlanJSON{
			Algo:              string(p.algo),
			Width:             d.Width,
			Exact:             d.Exact,
			Nodes:             st.Nodes,
			Rows:              st.Rows,
			MaxBagRows:        st.MaxBagRows,
			Satisfiable:       st.Satisfiable,
			Solutions:         st.Solutions,
			SolutionsOverflow: st.SolutionsOverflow,
			CompileMS:         compileDur.Milliseconds(),
		},
		n:       c.NumVars,
		m:       len(c.Constraints),
		outcome: outcome,
	}
	return entry
}

// compileDecomposition picks the engine entry point for whatever the solver
// produced: the GHD when present (completed first — compile joins λ-set
// relations, output-sensitive), the tree decomposition otherwise. Both
// paths run under bu; a tripped budget surfaces as *csp.InterruptedError.
func compileDecomposition(c *csp.CSP, h *hypergraph.Hypergraph, d *core.Decomposition, bu *budget.B) (*engine.Plan, error) {
	if d.GHD != nil {
		g := d.GHD
		if !g.IsComplete(h) {
			g.Complete(h)
		}
		return engine.CompileGHDBudget(c, g, bu)
	}
	if d.TD != nil {
		return engine.CompileBudget(c, d.TD, bu)
	}
	return nil, fmt.Errorf("decomposition carries neither TD nor GHD")
}

// runQuery answers one query of the batch on the shared cursor. cells is
// the request's remaining result budget in assignment cells (ints): solve
// assignments and enumerate rows draw it down, and a query whose answer
// would not fit gets an error marker instead of rows — the batch keeps
// going (counts and sat bits are free), the response stays bounded.
func (s *Server) runQuery(cu *engine.Cursor, entry *cachedPlan, q *querySpec, cells *int) QueryResult {
	res := QueryResult{Op: q.Op}
	oi := queryOpIndex(q.Op)
	if oi < 0 {
		res.Error = fmt.Sprintf("unknown op %q (have solve, count, enumerate)", q.Op)
		return res
	}
	pins, err := resolvePins(entry, q.Assign)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	s.queryOpCount[oi].Add(1)
	nv := entry.plan.NumVars()
	switch q.Op {
	case "solve":
		sol, ok := cu.Solve(pins)
		if ok && *cells < nv {
			return resultBudgetExhausted(res, s.cfg.MaxResultCells)
		}
		res.Sat = &ok
		if ok {
			*cells -= nv
			res.Assignment = append([]int(nil), sol...)
		}
	case "count":
		n, exact := cu.CountExact(pins)
		res.Count = &n
		res.CountOverflow = !exact
	case "enumerate":
		limit := q.Limit
		switch {
		case limit <= 0:
			limit = DefaultEnumerateLimit
		case limit > MaxEnumerateLimit:
			limit = MaxEnumerateLimit
		}
		rowAllow := *cells / nv
		if rowAllow == 0 {
			return resultBudgetExhausted(res, s.cfg.MaxResultCells)
		}
		clamped := false
		if limit > rowAllow {
			limit = rowAllow
			clamped = true
		}
		sols := cu.Enumerate(limit, pins)
		*cells -= len(sols) * nv
		// A clamped enumerate that filled its reduced limit may have left
		// rows unreported; say so instead of posing as complete.
		res.Truncated = clamped && len(sols) == limit
		res.Solutions = make([][]int, len(sols))
		for i, sol := range sols {
			res.Solutions[i] = sol
		}
	}
	return res
}

// resultBudgetExhausted marks a query whose answer was withheld because the
// request's result budget ran out; the batch keeps going, and clients that
// need everything split it across requests.
func resultBudgetExhausted(res QueryResult, capCells int) QueryResult {
	res.Error = fmt.Sprintf("result budget exhausted: this request already materialized close to %d assignment cells; split the batch across requests", capCells)
	return res
}

// resolvePins maps a query's assign block (variable name or decimal index ->
// value) to engine pins. Variables are resolved by declared name first, then
// as indexes.
func resolvePins(entry *cachedPlan, assign map[string]int) ([]engine.Pin, error) {
	if len(assign) == 0 {
		return nil, nil
	}
	pins := make([]engine.Pin, 0, len(assign))
	for name, val := range assign {
		v, ok := entry.names[name]
		if !ok {
			idx, err := strconv.Atoi(name)
			if err != nil || idx < 0 || idx >= entry.plan.NumVars() {
				return nil, fmt.Errorf("unknown variable %q", name)
			}
			v = idx
		}
		pins = append(pins, engine.Pin{Var: v, Val: val})
	}
	return pins, nil
}

// parseCSP validates and builds the CSP from its wire form. Everything
// csp.AddConstraint would panic on is rejected here with a message instead.
func parseCSP(raw json.RawMessage) (*csp.CSP, error) {
	var spec cspSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, err
	}
	if spec.NumVars <= 0 {
		return nil, fmt.Errorf("num_vars must be positive, got %d", spec.NumVars)
	}
	if spec.NumVars > MaxCSPVars {
		return nil, fmt.Errorf("num_vars %d exceeds the %d-variable cap", spec.NumVars, MaxCSPVars)
	}
	if len(spec.Constraints) == 0 {
		return nil, fmt.Errorf("at least one constraint is required")
	}
	c := &csp.CSP{NumVars: spec.NumVars, Domains: make([][]csp.Value, spec.NumVars)}
	if spec.Domains != nil {
		if len(spec.Domains) != spec.NumVars {
			return nil, fmt.Errorf("domains has %d entries for %d variables", len(spec.Domains), spec.NumVars)
		}
		for v := range c.Domains {
			c.Domains[v] = append([]csp.Value(nil), spec.Domains[v]...)
		}
	} else {
		for v := range c.Domains {
			c.Domains[v] = append([]csp.Value(nil), spec.Domain...)
		}
	}
	if spec.VarNames != nil {
		if len(spec.VarNames) != spec.NumVars {
			return nil, fmt.Errorf("var_names has %d entries for %d variables", len(spec.VarNames), spec.NumVars)
		}
		c.VarNames = spec.VarNames
	}
	for i, con := range spec.Constraints {
		if len(con.Scope) == 0 {
			return nil, fmt.Errorf("constraint %d has an empty scope", i)
		}
		seen := make(map[int]bool, len(con.Scope))
		for _, v := range con.Scope {
			if v < 0 || v >= spec.NumVars {
				return nil, fmt.Errorf("constraint %d: variable %d out of range", i, v)
			}
			if seen[v] {
				return nil, fmt.Errorf("constraint %d: variable %d repeats in scope", i, v)
			}
			seen[v] = true
		}
		for j, t := range con.Tuples {
			if len(t) != len(con.Scope) {
				return nil, fmt.Errorf("constraint %d: tuple %d has arity %d, scope has %d", i, j, len(t), len(con.Scope))
			}
		}
		c.AddConstraint(con.Scope, con.Tuples)
	}
	return c, nil
}

// writeQueryMetrics renders the hypertree_query_* families on /metrics:
// request outcomes, served queries by op, plan-cache traffic, and latency
// summaries for whole /query requests and for plan compiles.
func (s *Server) writeQueryMetrics(b *bytes.Buffer) {
	fmt.Fprintf(b, "# HELP hypertree_query_requests_total /query responses sent, by typed outcome.\n# TYPE hypertree_query_requests_total counter\n")
	for i, o := range outcomes {
		fmt.Fprintf(b, "hypertree_query_requests_total{outcome=%q} %d\n", o, s.queryOutcome[i].Load())
	}
	fmt.Fprintf(b, "# HELP hypertree_query_queries_total Individual queries served against compiled plans, by operation.\n# TYPE hypertree_query_queries_total counter\n")
	for i, op := range queryOps {
		fmt.Fprintf(b, "hypertree_query_queries_total{op=%q} %d\n", op, s.queryOpCount[i].Load())
	}
	ps := s.plans.stats()
	fmt.Fprintf(b, "# HELP hypertree_query_plan_cache_hits Compiled-plan cache hits.\n# TYPE hypertree_query_plan_cache_hits counter\nhypertree_query_plan_cache_hits %d\n", ps.Hits)
	fmt.Fprintf(b, "# HELP hypertree_query_plan_cache_misses Compiled-plan cache misses.\n# TYPE hypertree_query_plan_cache_misses counter\nhypertree_query_plan_cache_misses %d\n", ps.Misses)
	fmt.Fprintf(b, "# HELP hypertree_query_plan_cache_evictions Compiled-plan cache FIFO evictions.\n# TYPE hypertree_query_plan_cache_evictions counter\nhypertree_query_plan_cache_evictions %d\n", ps.Evictions)
	fmt.Fprintf(b, "# HELP hypertree_query_plan_cache_size Compiled-plan cache resident entries.\n# TYPE hypertree_query_plan_cache_size gauge\nhypertree_query_plan_cache_size %d\n", ps.Size)
	fmt.Fprintf(b, "# HELP hypertree_query_plans_uncached_total Degraded-decomposition plans served once and not cached.\n# TYPE hypertree_query_plans_uncached_total counter\nhypertree_query_plans_uncached_total %d\n", s.plansSkipped.Load())
	_ = hist.WriteSummaryFamily(b, "hypertree_query_request_latency_seconds",
		"End-to-end /query request latency quantiles.", latencyQuantiles,
		hist.Series{Snap: s.queryHist.Snapshot()})
	_ = hist.WriteSummaryFamily(b, "hypertree_query_compile_seconds",
		"Plan compile latency quantiles (bag materialization, Yannakakis reduction, index build).", latencyQuantiles,
		hist.Series{Snap: s.compileHist.Snapshot()})
}
