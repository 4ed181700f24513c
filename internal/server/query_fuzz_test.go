package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"hypertree/internal/budget"
	"hypertree/internal/core"
	"hypertree/internal/csp"
)

// FuzzQueryCSP checks the /query CSP surface: no input panics parseCSP, and
// an accepted CSP with at most 8 variables and domains of at most 3 values
// that greedy decomposes compiles from that GHD, under a small budget, to a
// plan whose pin-free count is the brute-force count.
func FuzzQueryCSP(f *testing.F) {
	f.Add([]byte(pathCSPJSON))
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := parseCSP(raw)
		if err != nil || c.NumVars > 8 {
			return
		}
		for _, dom := range c.Domains {
			if len(dom) > 3 {
				return
			}
		}
		h := c.Hypergraph()
		d, err := core.Decompose(h, core.Options{Algorithm: core.AlgGreedy, Seed: 1})
		if err != nil {
			return // the decomposer refuses it, e.g. a variable in no constraint
		}
		bu := budget.New(context.Background(), budget.Limits{MaxNodes: 1_000_000})
		plan, err := compileDecomposition(c, h, d, bu)
		var ie *csp.InterruptedError
		if errors.As(err, &ie) {
			return
		}
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		if got, want := plan.NewCursor().Count(nil), c.CountSolutionsBrute(); got != want {
			t.Fatalf("the plan counts %d solutions, brute force %d", got, want)
		}
	})
}

// FuzzRequestParams fuzzes the query string of a POST /query on a fixed
// small CSP, through ServeHTTP on a server with MaxTimeout and MaxNodes
// set. No string panics the server or draws any other 500, and every
// response is a typed envelope. The response is a 400 carrying parseParams's error exactly
// when parseParams rejects the string. Accepted parameters hold a timeout
// in (0, MaxTimeout], a node budget in [0, MaxNodes], and the worker count
// core.ClampWorkers makes of the one asked for.
func FuzzRequestParams(f *testing.F) {
	for _, raw := range []string{
		"",
		"algo=greedy&seed=7&timeout=250ms&nodes=5000&workers=2",
		"algo=nope", "algo=%zz", "algo=astar-tw&include=tree",
		"timeout=-1s", "timeout=abc", "timeout=10h", "timeout=1ns",
		"nodes=-1", "nodes=0", "nodes=99999999999",
		"workers=-1", "workers=1000", "workers=2&workers=-1",
		"seed=x", "seed=-9223372036854775808",
		"stream=sse", "stream=ws", "include=x", "format=dimacs", "format=json",
	} {
		f.Add(raw)
	}
	s := New(Config{MaxTimeout: 50 * time.Millisecond, MaxNodes: 100_000})
	body := `{"csp":` + pathCSPJSON + `,"queries":[{"op":"count"},{"op":"solve","assign":{"x0":1}}]}`
	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
		req.URL.RawQuery = raw
		p, perr := s.parseParams(req)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || outcomeIndex(resp.Outcome) < 0 {
			t.Fatalf("%q: status %d with an untyped body %q", raw, rec.Code, rec.Body.String())
		}
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%q: a 500, which a contained panic answers: %s", raw, resp.Error)
		}
		if perr != nil {
			if rec.Code != http.StatusBadRequest || resp.Error != perr.Error() {
				t.Fatalf("%q: status %d error %q; parseParams rejects it: %v", raw, rec.Code, resp.Error, perr)
			}
			return
		}
		if rec.Code == http.StatusBadRequest {
			t.Fatalf("%q: a 400 (%s) for parameters parseParams accepts", raw, resp.Error)
		}
		if p.timeout <= 0 || p.timeout > s.cfg.MaxTimeout {
			t.Fatalf("%q: timeout %v outside (0, %v]", raw, p.timeout, s.cfg.MaxTimeout)
		}
		if p.nodes < 0 || p.nodes > s.cfg.MaxNodes {
			t.Fatalf("%q: nodes %d outside [0, %d]", raw, p.nodes, s.cfg.MaxNodes)
		}
		want := 0
		if v := req.URL.Query().Get("workers"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%q: workers %q accepted", raw, v)
			}
			want = core.ClampWorkers(n)
		}
		if p.workers != want {
			t.Fatalf("%q: workers %d, want %d", raw, p.workers, want)
		}
	})
}

// sixVarCSPJSON is a 6-cycle over {0,1,2} with narrower domains on x2 and
// x4, tuples outside them, and names on five variables, one of them "3",
// which pins x0 and not x3: names resolve before indexes.
const sixVarCSPJSON = `{"num_vars":6,"domains":[[0,1,2],[0,1,2],[0,1],[0,1,2],[1,2],[0,1,2]],` +
	`"var_names":["3","a","","b","c","d"],"constraints":[` +
	`{"scope":[0,1],"tuples":[[0,1],[0,2],[1,0],[1,2],[2,0],[2,1]]},` +
	`{"scope":[1,2,3],"tuples":[[0,0,0],[0,1,1],[1,0,1],[1,1,2],[2,0,2],[2,1,0],[2,2,1]]},` +
	`{"scope":[3,4],"tuples":[[0,0],[0,1],[0,2],[1,1],[1,2],[2,2]]},` +
	`{"scope":[4,5],"tuples":[[0,1],[1,0],[1,2],[2,0],[2,1]]},` +
	`{"scope":[5,0],"tuples":[[0,0],[1,1],[2,2],[1,0],[2,1],[0,2]]}]}`

// FuzzQueryBatch checks the /query batch surface against an oracle that
// shares no code with the engine. The fuzzed bytes are the queries array
// of a request on a fixed small CSP, served through ServeHTTP from a GHD
// plan (algo=greedy) and a TD plan (algo=astar-tw). Every response is a
// typed 200, or a typed 400 exactly when the body does not decode or the
// batch is over its cap. Each accepted query's pins resolve as documented
// (declared name first, then decimal index); its count is the brute-force
// count of the pin-restricted CSP, its solve is sat exactly when that
// count is positive, with an assignment that satisfies the CSP and the
// pins, and its enumerate returns min(limit, count) distinct such
// assignments unless it is marked truncated.
func FuzzQueryBatch(f *testing.F) {
	f.Add([]byte(`[{"op":"count","assign":{"x0":1}},{"op":"solve","assign":{"2":0}},{"op":"enumerate","limit":1}]`))
	s := New(Config{})
	cspJSONs := []string{pathCSPJSON, sixVarCSPJSON}
	csps := make([]*csp.CSP, len(cspJSONs))
	for i, js := range cspJSONs {
		var err error
		if csps[i], err = parseCSP([]byte(js)); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, queries []byte) {
		for i, js := range cspJSONs {
			for _, algo := range []string{"greedy", "astar-tw"} {
				checkQueryBatch(t, s, js, csps[i], algo, queries)
			}
		}
	})
}

// checkQueryBatch sends one batch on c, whose wire form is cspJSON, and
// judges the response; see FuzzQueryBatch.
func checkQueryBatch(t *testing.T, s *Server, cspJSON string, c *csp.CSP, algo string, queries []byte) {
	t.Helper()
	// The CSP comes last, so queries bytes that decode cannot replace it.
	body := `{"queries":` + string(queries) + `,"csp":` + cspJSON + `}`
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?algo="+algo, strings.NewReader(body)))
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("algo=%s: status %d with an untyped body %q: %v", algo, rec.Code, rec.Body.String(), err)
	}
	var env queryEnvelope
	decodeErr := json.Unmarshal([]byte(body), &env)
	if decodeErr == nil && !bytes.Equal(env.CSP, []byte(cspJSON)) {
		return // the bytes carried a csp key of their own after all
	}
	if decodeErr != nil || len(env.Queries) > MaxQueriesPerRequest {
		if rec.Code != http.StatusBadRequest || resp.Outcome != OutcomeRejected || resp.Error == "" {
			t.Fatalf("algo=%s: status %d outcome %q error %q; want a typed 400 (decode error: %v)",
				algo, rec.Code, resp.Outcome, resp.Error, decodeErr)
		}
		return
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("algo=%s: status %d error %q; want 200", algo, rec.Code, resp.Error)
	}
	if len(resp.Results) != len(env.Queries) {
		t.Fatalf("algo=%s: %d results for %d queries", algo, len(resp.Results), len(env.Queries))
	}
	cells := 0 // assignment cells the batch materialized so far
	for i := range env.Queries {
		q, res := &env.Queries[i], &resp.Results[i]
		where := fmt.Sprintf("algo=%s, query %d %+v", algo, i, *q)
		if res.Op != q.Op {
			t.Fatalf("%s: result op %q", where, res.Op)
		}
		if q.Op != "solve" && q.Op != "count" && q.Op != "enumerate" {
			if !strings.Contains(res.Error, "unknown op") {
				t.Fatalf("%s: error %q, want an unknown-op marker", where, res.Error)
			}
			continue
		}
		pins, ok := oraclePins(c, q.Assign)
		if !ok {
			if !strings.Contains(res.Error, "unknown variable") {
				t.Fatalf("%s: error %q, want an unknown-variable marker", where, res.Error)
			}
			continue
		}
		if strings.Contains(res.Error, "result budget exhausted") && cells+c.NumVars > DefaultMaxResultCells {
			continue
		}
		if res.Error != "" {
			t.Fatalf("%s: unexpected error %q", where, res.Error)
		}
		want := pinRestricted(c, pins).CountSolutionsBrute()
		switch q.Op {
		case "count":
			if res.Count == nil || *res.Count != want || res.CountOverflow {
				t.Fatalf("%s: count %v (overflow %v), brute force %d", where, res.Count, res.CountOverflow, want)
			}
		case "solve":
			if res.Sat == nil || *res.Sat != (want > 0) {
				t.Fatalf("%s: sat %v, brute force counts %d", where, res.Sat, want)
			}
			if *res.Sat {
				checkPinnedSolution(t, where, c, pins, res.Assignment)
				cells += c.NumVars
			}
		case "enumerate":
			limit := q.Limit
			switch {
			case limit <= 0:
				limit = DefaultEnumerateLimit
			case limit > MaxEnumerateLimit:
				limit = MaxEnumerateLimit
			}
			n := min(limit, want)
			if got := len(res.Solutions); got != n && !(res.Truncated && got < n) {
				t.Fatalf("%s: %d rows (truncated %v), want min(%d, %d)", where, got, res.Truncated, limit, want)
			}
			seen := make(map[string]bool, len(res.Solutions))
			for _, sol := range res.Solutions {
				checkPinnedSolution(t, where, c, pins, sol)
				if key := fmt.Sprint(sol); seen[key] {
					t.Fatalf("%s: row %v repeats", where, sol)
				} else {
					seen[key] = true
				}
			}
			cells += len(res.Solutions) * c.NumVars
		}
	}
}

// oraclePin is a resolved pin: variable v must take value val.
type oraclePin struct{ v, val int }

// oraclePins resolves an assign block by the documented rule: a declared
// variable name first, then a decimal index in range.
func oraclePins(c *csp.CSP, assign map[string]int) ([]oraclePin, bool) {
	var pins []oraclePin
	for name, val := range assign {
		v := -1
		for i, declared := range c.VarNames {
			if declared != "" && declared == name {
				v = i
			}
		}
		if v < 0 {
			idx, err := strconv.Atoi(name)
			if err != nil || idx < 0 || idx >= c.NumVars {
				return nil, false
			}
			v = idx
		}
		pins = append(pins, oraclePin{v, val})
	}
	return pins, true
}

// pinRestricted returns the copy of c whose pinned domains are restricted
// to the pinned value: {val} if val is in the domain, {} otherwise, and {}
// for two pins that disagree.
func pinRestricted(c *csp.CSP, pins []oraclePin) *csp.CSP {
	r := &csp.CSP{NumVars: c.NumVars, Constraints: c.Constraints, Domains: make([][]csp.Value, c.NumVars)}
	copy(r.Domains, c.Domains)
	for _, pin := range pins {
		var dom []csp.Value
		for _, x := range r.Domains[pin.v] {
			if x == pin.val {
				dom = []csp.Value{x}
			}
		}
		r.Domains[pin.v] = dom
	}
	return r
}

// checkPinnedSolution fails unless sol is a complete assignment of c within
// its domains, satisfying every constraint and every pin.
func checkPinnedSolution(t *testing.T, where string, c *csp.CSP, pins []oraclePin, sol []int) {
	t.Helper()
	if !c.Consistent(sol) {
		t.Fatalf("%s: %v is not a solution", where, sol)
	}
	for v, x := range sol {
		if !slices.Contains(c.Domains[v], x) {
			t.Fatalf("%s: %v leaves the domain of variable %d", where, sol, v)
		}
	}
	for _, pin := range pins {
		if sol[pin.v] != pin.val {
			t.Fatalf("%s: %v breaks the pin %d=%d", where, sol, pin.v, pin.val)
		}
	}
}
