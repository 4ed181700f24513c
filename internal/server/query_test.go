package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// pathCSPJSON is a 3-variable boolean not-equal path (x0 != x1, x1 != x2):
// exactly two solutions, (0,1,0) and (1,0,1) — small enough to assert
// answers by hand, structured enough to exercise the whole compile path.
const pathCSPJSON = `{
	"num_vars": 3,
	"domain": [0, 1],
	"var_names": ["x0", "x1", "x2"],
	"constraints": [
		{"scope": [0, 1], "tuples": [[0, 1], [1, 0]]},
		{"scope": [1, 2], "tuples": [[0, 1], [1, 0]]}
	]
}`

func postQuery(t *testing.T, ts *httptest.Server, query, body string) (*http.Response, *QueryResponse) {
	t.Helper()
	url := ts.URL + "/query"
	if query != "" {
		url += "?" + query
	}
	hr, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp QueryResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("response is not a typed query envelope: %v", err)
	}
	return hr, &resp
}

func queryBody(queries string) string {
	return fmt.Sprintf(`{"csp": %s, "queries": [%s]}`, pathCSPJSON, queries)
}

func TestQuerySolveCountEnumerate(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	hr, resp := postQuery(t, ts, "", queryBody(`
		{"op": "solve"},
		{"op": "count"},
		{"op": "enumerate", "limit": 10},
		{"op": "solve", "assign": {"x0": 0}},
		{"op": "count", "assign": {"2": 1}},
		{"op": "solve", "assign": {"x1": 0, "x2": 0}},
		{"op": "count", "assign": {"x0": 7}}`))
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (error: %s)", hr.StatusCode, resp.Error)
	}
	if resp.Outcome != OutcomeExact {
		t.Fatalf("outcome = %q, want exact", resp.Outcome)
	}
	if resp.N != 3 || resp.M != 2 {
		t.Fatalf("N,M = %d,%d, want 3,2", resp.N, resp.M)
	}
	if resp.Plan == nil || !resp.Plan.Satisfiable || resp.Plan.Solutions != 2 {
		t.Fatalf("plan = %+v, want satisfiable with 2 solutions", resp.Plan)
	}
	if resp.Plan.Cached {
		t.Fatal("first request reported a cached plan")
	}
	if len(resp.Results) != 7 {
		t.Fatalf("got %d results, want 7", len(resp.Results))
	}
	r := resp.Results

	// Unpinned solve: some solution of the two.
	if r[0].Sat == nil || !*r[0].Sat {
		t.Fatalf("solve: sat = %v, want true", r[0].Sat)
	}
	checkPathSolution(t, r[0].Assignment)

	if r[1].Count == nil || *r[1].Count != 2 {
		t.Fatalf("count = %v, want 2", r[1].Count)
	}
	if len(r[2].Solutions) != 2 {
		t.Fatalf("enumerate returned %d solutions, want 2", len(r[2].Solutions))
	}
	for _, sol := range r[2].Solutions {
		checkPathSolution(t, sol)
	}

	// Pinned solve x0=0 forces (0,1,0).
	if r[3].Sat == nil || !*r[3].Sat {
		t.Fatalf("pinned solve: sat = %v, want true", r[3].Sat)
	}
	if want := []int{0, 1, 0}; !equalInts(r[3].Assignment, want) {
		t.Fatalf("pinned solve = %v, want %v", r[3].Assignment, want)
	}

	// Pin by index: x2=1 matches only (1,0,1).
	if r[4].Count == nil || *r[4].Count != 1 {
		t.Fatalf("count with x2=1 = %v, want 1", r[4].Count)
	}

	// Conflicting pins x1=0, x2=0 violate x1 != x2: unsat.
	if r[5].Sat == nil || *r[5].Sat {
		t.Fatalf("unsat pins: sat = %v, want false", r[5].Sat)
	}

	// An out-of-domain pin is a legal query with zero matches, not an error.
	if r[6].Error != "" {
		t.Fatalf("out-of-domain pin errored: %s", r[6].Error)
	}
	if r[6].Count == nil || *r[6].Count != 0 {
		t.Fatalf("count with x0=7 = %v, want 0", r[6].Count)
	}

	if resp.Timings == nil || !(resp.Timings.Compile > 0) {
		t.Fatalf("timings = %+v, want a positive compile phase", resp.Timings)
	}
}

func checkPathSolution(t *testing.T, sol []int) {
	t.Helper()
	if len(sol) != 3 {
		t.Fatalf("assignment %v has %d values, want 3", sol, len(sol))
	}
	if sol[0] == sol[1] || sol[1] == sol[2] {
		t.Fatalf("assignment %v violates the not-equal constraints", sol)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQueryPlanCacheHit checks the decompose-once contract: the second
// request for the same CSP serves from the plan cache (Cached=true, no
// compile phase) and the hypertree_query_* metric families record it.
func TestQueryPlanCacheHit(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, first := postQuery(t, ts, "", queryBody(`{"op": "count"}`))
	if first.Plan == nil || first.Plan.Cached {
		t.Fatalf("first plan = %+v, want a fresh compile", first.Plan)
	}
	_, second := postQuery(t, ts, "", queryBody(`{"op": "solve"}`))
	if second.Plan == nil || !second.Plan.Cached {
		t.Fatalf("second plan = %+v, want a cache hit", second.Plan)
	}
	if second.Timings != nil && second.Timings.Compile != 0 {
		t.Fatalf("cache hit spent %v compiling", second.Timings.Compile)
	}
	// A different algo compiles a different plan: distinct cache key.
	_, other := postQuery(t, ts, "algo=greedy", queryBody(`{"op": "count"}`))
	if other.Plan == nil || other.Plan.Cached {
		t.Fatalf("different-algo plan = %+v, want a fresh compile", other.Plan)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	body, _ := io.ReadAll(mr.Body)
	for _, want := range []string{
		"hypertree_query_plan_cache_hits 1",
		"hypertree_query_plan_cache_misses 2",
		`hypertree_query_queries_total{op="count"} 2`,
		`hypertree_query_queries_total{op="solve"} 1`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestQueryRejections(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"not json", "not json", http.StatusBadRequest},
		{"missing csp", `{"queries": []}`, http.StatusBadRequest},
		{"zero vars", `{"csp": {"num_vars": 0, "constraints": [{"scope":[0],"tuples":[[0]]}]}}`, http.StatusBadRequest},
		{"no constraints", `{"csp": {"num_vars": 1, "domain": [0], "constraints": []}}`, http.StatusBadRequest},
		{"scope out of range", `{"csp": {"num_vars": 1, "domain": [0], "constraints": [{"scope":[3],"tuples":[[0]]}]}}`, http.StatusBadRequest},
		{"arity mismatch", `{"csp": {"num_vars": 2, "domain": [0], "constraints": [{"scope":[0,1],"tuples":[[0]]}]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hr, resp := postQuery(t, ts, "", tc.body)
			if hr.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", hr.StatusCode, tc.status)
			}
			if resp.Outcome != OutcomeRejected || resp.Error == "" {
				t.Fatalf("outcome = %q error = %q, want a typed rejection", resp.Outcome, resp.Error)
			}
		})
	}
}

// TestQueryBadQueriesDoNotFailBatch checks per-query error isolation: an
// unknown op or variable marks its own result and leaves the rest served.
func TestQueryBadQueriesDoNotFailBatch(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	hr, resp := postQuery(t, ts, "", queryBody(`
		{"op": "minimize"},
		{"op": "solve", "assign": {"nope": 1}},
		{"op": "count"}`))
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", hr.StatusCode)
	}
	if resp.Results[0].Error == "" || !strings.Contains(resp.Results[0].Error, "unknown op") {
		t.Fatalf("unknown op error = %q", resp.Results[0].Error)
	}
	if resp.Results[1].Error == "" || !strings.Contains(resp.Results[1].Error, "unknown variable") {
		t.Fatalf("unknown variable error = %q", resp.Results[1].Error)
	}
	if resp.Results[2].Count == nil || *resp.Results[2].Count != 2 {
		t.Fatalf("count after bad queries = %v, want 2", resp.Results[2].Count)
	}
}

func TestQueryBatchCap(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var qs strings.Builder
	for i := 0; i <= MaxQueriesPerRequest; i++ {
		if i > 0 {
			qs.WriteString(",")
		}
		qs.WriteString(`{"op":"count"}`)
	}
	hr, resp := postQuery(t, ts, "", queryBody(qs.String()))
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", hr.StatusCode)
	}
	if !strings.Contains(resp.Error, "cap") {
		t.Fatalf("error = %q, want the batch-cap rejection", resp.Error)
	}
}

// TestQueryDrainingRejects checks /query honors the drain protocol like
// /decompose: a draining server refuses new query work with Retry-After.
func TestQueryDrainingRejects(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	s.Drain(0)

	hr, resp := postQuery(t, ts, "", queryBody(`{"op": "count"}`))
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", hr.StatusCode)
	}
	if resp.RetrySeconds <= 0 {
		t.Fatalf("retry_after_s = %d, want positive", resp.RetrySeconds)
	}
}

// A domain is a set: a repeated value is rejected with a 400 in both the
// shared and the per-variable form, whatever the algorithm. Accepted, the
// tree-decomposition bag enumeration emitted each assignment once per copy
// (astar-tw and bb-tw counted 18 solutions of this CSP, greedy and bb-ghw
// the true 4).
func TestQueryRejectsRepeatedDomainValue(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	constraints := `"constraints": [{"scope": [0, 1], "tuples": [[0, 1], [1, 0]]}, {"scope": [2], "tuples": [[0], [1]]}]`
	for _, domain := range []string{`"domain": [0, 0, 1]`, `"domains": [[0, 1], [0, 1], [0, 0, 1]]`} {
		body := fmt.Sprintf(`{"csp": {"num_vars": 3, %s, %s}, "queries": [{"op": "count"}, {"op": "enumerate"}]}`, domain, constraints)
		for _, algo := range []string{"astar-tw", "bb-tw", "greedy", "bb-ghw"} {
			hr, resp := postQuery(t, ts, "algo="+algo, body)
			if hr.StatusCode != http.StatusBadRequest || resp.Outcome != OutcomeRejected || !strings.Contains(resp.Error, "repeats") {
				t.Fatalf("%s, algo=%s: status %d outcome %q error %q; want a 400 rejection naming the repeated value",
					domain, algo, hr.StatusCode, resp.Outcome, resp.Error)
			}
		}
	}
}

// A pin names one variable, so a repeated var_names entry is rejected with
// a 400; unnamed ("") entries may repeat. Accepted, {"a": 1} bound only the
// last variable named "a": this CSP (x0 != x1, x1 = x2) answered the solve
// with [0,1,1], and variable 0 could never be pinned by name.
func TestQueryRejectsRepeatedVarName(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := func(names string) string {
		return fmt.Sprintf(`{"csp": {"num_vars": 3, "domain": [0, 1], "var_names": %s, "constraints": [
			{"scope": [0, 1], "tuples": [[0, 1], [1, 0]]},
			{"scope": [1, 2], "tuples": [[0, 0], [1, 1]]}]},
			"queries": [{"op": "solve", "assign": {"a": 1}}]}`, names)
	}
	for _, algo := range []string{"greedy", "astar-tw"} {
		hr, resp := postQuery(t, ts, "algo="+algo, body(`["a", "a", "b"]`))
		if hr.StatusCode != http.StatusBadRequest || resp.Outcome != OutcomeRejected || !strings.Contains(resp.Error, `var_names: name "a" repeats`) {
			t.Fatalf("algo=%s: status %d outcome %q error %q; want a 400 rejection naming the repeated name",
				algo, hr.StatusCode, resp.Outcome, resp.Error)
		}
		hr, resp = postQuery(t, ts, "algo="+algo, body(`["a", "", ""]`))
		if hr.StatusCode != http.StatusOK || len(resp.Results) != 1 || resp.Results[0].Sat == nil {
			t.Fatalf("algo=%s, unnamed variables: status %d error %q; want 200 with a solve answer", algo, hr.StatusCode, resp.Error)
		}
		if got, want := resp.Results[0].Assignment, []int{1, 0, 0}; !equalInts(got, want) {
			t.Fatalf("algo=%s: solve with a=1 answered %v, want %v", algo, got, want)
		}
	}
}
