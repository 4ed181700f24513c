package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"hypertree/internal/hypergraph"
)

// circuitCSPs returns n distinct CSPs in wire form, built as the serving
// benchmark builds its query workloads' CSPs: 24-signal random circuits
// drawn from seed, binary domains, one constraint per gate allowing at most
// one 1 in its scope, and a circuit whose wire form was already drawn
// drawn again.
func circuitCSPs(tb testing.TB, seed int64, n int) [][]byte {
	tb.Helper()
	fixed := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var out [][]byte
	for len(out) < n {
		h := hypergraph.RandomCircuit(24, 26, fixed.Int63())
		spec := cspSpec{NumVars: h.N(), Domain: []int{0, 1}}
		for e := 0; e < h.M(); e++ {
			scope := h.Edge(e)
			tuples := [][]int{make([]int, len(scope))}
			for hot := range scope {
				t := make([]int, len(scope))
				t[hot] = 1
				tuples = append(tuples, t)
			}
			spec.Constraints = append(spec.Constraints, constraintSpec{Scope: append([]int(nil), scope...), Tuples: tuples})
		}
		js, err := json.Marshal(spec)
		if err != nil {
			tb.Fatal(err)
		}
		if !seen[string(js)] {
			seen[string(js)] = true
			out = append(out, js)
		}
	}
	return out
}

// hotCSPs returns the serving benchmark's sixteen query-hot CSPs, drawn
// from seed 2007.
func hotCSPs(tb testing.TB) [][]byte { return circuitCSPs(tb, 2007, 16) }

// pins draws 1 or 2 pins of the 24 variables, by index.
func pins(rng *rand.Rand) map[string]int {
	m := make(map[string]int, 2)
	for k := 1 + rng.Intn(2); k > 0; k-- {
		m[strconv.Itoa(rng.Intn(24))] = rng.Intn(2)
	}
	return m
}

// batchBody is the /query body asking qs of cspJSON.
func batchBody(tb testing.TB, cspJSON []byte, qs []querySpec) []byte {
	tb.Helper()
	js, err := json.Marshal(qs)
	if err != nil {
		tb.Fatal(err)
	}
	return []byte(`{"csp":` + string(cspJSON) + `,"queries":` + string(js) + `}`)
}

// hotBody is the /query body of one query-hot batch against cspJSON: 8
// queries (3 solve, 3 count, 2 enumerate with limit 2), each with pins.
func hotBody(tb testing.TB, rng *rand.Rand, cspJSON []byte) []byte {
	tb.Helper()
	ops := [...]string{"solve", "count", "enumerate", "solve", "count", "enumerate", "solve", "count"}
	qs := make([]querySpec, len(ops))
	for i, op := range ops {
		qs[i] = querySpec{Op: op, Assign: pins(rng)}
		if op == "enumerate" {
			qs[i].Limit = 2
		}
	}
	return batchBody(tb, cspJSON, qs)
}

// coldBody is the /query body of one query-cold batch against cspJSON: a
// count, a solve and an enumerate with limit 3, each with pins.
func coldBody(tb testing.TB, rng *rand.Rand, cspJSON []byte) []byte {
	tb.Helper()
	return batchBody(tb, cspJSON, []querySpec{
		{Op: "count", Assign: pins(rng)},
		{Op: "solve", Assign: pins(rng)},
		{Op: "enumerate", Assign: pins(rng), Limit: 3},
	})
}

// serveHot answers body on s as query-hot sends it.
func serveHot(tb testing.TB, s *Server, body []byte) *QueryResponse {
	tb.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?algo=greedy", bytes.NewReader(body)))
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		tb.Fatalf("status %d, body %q: %v", rec.Code, rec.Body.String(), err)
	}
	return &resp
}

// TestQueryConcurrentHits sends 64 distinct batches at once to one
// compiled plan on a four-worker server. Cursors are pooled per plan, so a
// cursor shared by two batches would mix their answers: each response
// must equal its batch's answer from a fresh server serving one request
// at a time.
func TestQueryConcurrentHits(t *testing.T) {
	cspJSON := hotCSPs(t)[0]
	rng := rand.New(rand.NewSource(7))
	bodies := make([][]byte, 64)
	for i := range bodies {
		bodies[i] = hotBody(t, rng, cspJSON)
	}
	want := make([][]QueryResult, len(bodies))
	ref := New(Config{})
	for i, body := range bodies {
		want[i] = serveHot(t, ref, body).Results
	}

	s := New(Config{Workers: 4})
	serveHot(t, s, bodies[0]) // compiles the plan
	recs := make([]*httptest.ResponseRecorder, len(bodies))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/query?algo=greedy", bytes.NewReader(bodies[i]))
			recs[i] = httptest.NewRecorder()
			<-start
			s.ServeHTTP(recs[i], req)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, rec := range recs {
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("batch %d: status %d, body %q: %v", i, rec.Code, rec.Body.String(), err)
		}
		if resp.Plan == nil || !resp.Plan.Cached {
			t.Fatalf("batch %d missed the plan cache: %+v", i, resp.Plan)
		}
		if !reflect.DeepEqual(resp.Results, want[i]) {
			got, _ := json.Marshal(resp.Results)
			ref, _ := json.Marshal(want[i])
			t.Fatalf("batch %d answered concurrently:\n%s\none at a time:\n%s", i, got, ref)
		}
	}
}

// discardResponse is a ResponseWriter that keeps only the status.
type discardResponse struct {
	header http.Header
	status int
}

func (w *discardResponse) Header() http.Header         { return w.header }
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponse) WriteHeader(status int)      { w.status = status }

// BenchmarkQueryHit measures a query-hot request in process: query-hot's
// sixteen plans, compiled before the timer starts, and 256 distinct batches
// cycling through them, each sent through ServeHTTP on a warmed server. It
// covers what a hit costs the daemon short of the socket: request decode,
// plan-cache lookup, admission, the batch, the envelope and its JSON.
func BenchmarkQueryHit(b *testing.B) {
	csps := hotCSPs(b)
	rng := rand.New(rand.NewSource(1))
	var bodies [][]byte
	for batch := 0; batch < 16; batch++ {
		for _, c := range csps {
			bodies = append(bodies, hotBody(b, rng, c))
		}
	}
	s := New(Config{})
	for _, body := range bodies[:2*len(csps)] {
		serveHot(b, s, body) // the first round compiles, the second hits
	}
	w := &discardResponse{header: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.header)
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query?algo=greedy", bytes.NewReader(bodies[i%len(bodies)])))
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkQueryMiss measures a query-cold request in process: 4,096
// distinct CSPs (see circuitCSPs), each with query-cold's batch, sent
// through ServeHTTP in turn. The plan cache keeps 128 plans and evicts the
// oldest, so every op misses: it parses the CSP, decomposes it with
// greedy, compiles the plan and answers the batch.
func BenchmarkQueryMiss(b *testing.B) {
	csps := circuitCSPs(b, 1, 4096)
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, len(csps))
	for i, c := range csps {
		bodies[i] = coldBody(b, rng, c)
	}
	s := New(Config{})
	w := &discardResponse{header: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.header)
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query?algo=greedy", bytes.NewReader(bodies[i%len(bodies)])))
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}
