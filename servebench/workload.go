package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"hypertree/internal/csp"
	"hypertree/internal/hypergraph"
)

// Workload shapes. A 60-signal random circuit keeps the portfolio busy
// until any deadline in reach, while adders and small cliques close exactly
// in a few milliseconds. 24-signal circuit CSPs decompose greedily in under
// a millisecond and compile in ~5 ms, with a short tail (the slowest of 300
// took 12 ms). Larger circuits have heavy-tailed compiles: at 40 signals
// one CSP in a hundred allocates hundreds of MB, and the daemon's memory,
// and with it every figure, swung from run to run (README.md).
const (
	// deadline is the /decompose budget of decompose-deadline: requests
	// are bounded by it, not by a node cap whose spending follows the
	// scheduler.
	deadline = 150 * time.Millisecond
	// quickEvery makes every fourth decompose-deadline input a quick one
	// (an adder or a small clique), so a quarter of the requests close
	// exactly early: far from 10% and 50%, neither p50 nor p90 sits on
	// the boundary between the fast and the slow group.
	quickEvery     = 4
	circuitSignals = 60
	circuitGates   = 62
	cspSignals     = 24
	cspGates       = 26
	// hotCSPs plans are compiled during query-hot's set-up; hotBatches
	// distinct query batches per plan are cycled through in the window.
	hotCSPs         = 16
	hotBatches      = 16
	hotQueries      = 8
	hotInstanceSeed = 2007
	// warmups is the number of untimed warm-up requests per set-up;
	// query-hot sends one per plan.
	warmups = 8
)

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"decompose-deadline", "query-cold", "query-hot"}

// input is one pre-built request: the bytes sent on the wire and what the
// checker needs to judge the answer.
type input struct {
	wire []byte
	// decompose-deadline: the instance and its hg payload.
	h    *hypergraph.Hypergraph
	body []byte
	// query-*: the CSP (shared by every batch against it) and the batch.
	q *queryInput
}

// queryInput is one /query batch against one CSP.
type queryInput struct {
	c       *cspInput
	queries []querySpec
}

// cspInput is a CSP as sent. Only its wire JSON is kept until the checks:
// thousands of built csp.CSP values would make the load generator's own heap, and
// its garbage collector, large.
type cspInput struct {
	id   int
	json []byte
}

// build makes the csp.CSP exactly as the daemon's parser does: same
// domains, same constraint order, so the constraint hypergraph, and with it
// the greedy decomposition, is the same.
func (ci *cspInput) build() (*csp.CSP, error) {
	var spec cspSpec
	if err := json.Unmarshal(ci.json, &spec); err != nil {
		return nil, err
	}
	c := csp.New(spec.NumVars, spec.Domain)
	for _, con := range spec.Constraints {
		c.AddConstraint(con.Scope, con.Tuples)
	}
	return c, nil
}

// querySpec is the wire form of one query of a /query batch.
type querySpec struct {
	Op     string         `json:"op"`
	Assign map[string]int `json:"assign,omitempty"`
	Limit  int            `json:"limit,omitempty"`
}

// workload is one traffic mix, fully generated from the workload seed
// before the daemon starts.
type workload struct {
	name string
	// timed is the window's input stream. With cycle set, request i sends
	// timed[i%len(timed)]; otherwise each input is sent at most once and
	// the window ends early if the stream runs out.
	timed []*input
	cycle bool
	// warmup is the untimed set-up traffic, from its own seed stream.
	warmup []*input
	// csps lists every distinct CSP the query workloads send.
	csps []*cspInput
}

// streams derives the timed and the warm-up generator from the workload
// seed; the two never share an input.
func streams(seed int64) (timed, warm *rand.Rand) {
	return rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(^seed))
}

// newWorkload generates the named workload. capacity bounds the timed
// stream of the workloads that never repeat an input; it is set well above
// the number of requests a window can send.
func newWorkload(name string, seed int64, capacity int) (*workload, error) {
	timed, warm := streams(seed)
	w := &workload{name: name}
	switch name {
	case "decompose-deadline":
		for i := 0; i < capacity; i++ {
			w.timed = append(w.timed, decomposeInput(timed, "t"+strconv.Itoa(i), i%quickEvery == quickEvery-1))
		}
		for i := 0; i < warmups; i++ {
			w.warmup = append(w.warmup, decomposeInput(warm, "w"+strconv.Itoa(i), i%2 == 1))
		}
	case "query-cold":
		seen := make(map[string]bool)
		for i := 0; i < capacity+warmups; i++ {
			rng := timed
			if i >= capacity {
				rng = warm
			}
			c := newCSPInput(rng, len(w.csps), seen)
			w.csps = append(w.csps, c)
			in := queryRequest(&queryInput{c: c, queries: coldBatch(rng)})
			if i < capacity {
				w.timed = append(w.timed, in)
			} else {
				w.warmup = append(w.warmup, in)
			}
		}
	case "query-hot":
		// The plans are a fixed instance set, the same for every seed; the
		// seed draws the query batches. Drawn from the seed, the sixteen
		// plans' sizes, and with them the count cost and the daemon's
		// memory, moved from seed to seed by more than the bounds allow.
		fixed := rand.New(rand.NewSource(hotInstanceSeed))
		seen := make(map[string]bool)
		for i := 0; i < hotCSPs; i++ {
			w.csps = append(w.csps, newCSPInput(fixed, i, seen))
		}
		// Batches interleave the plans, so consecutive requests hit
		// different cache entries.
		for b := 0; b < hotBatches; b++ {
			for _, c := range w.csps {
				w.timed = append(w.timed, queryRequest(&queryInput{c: c, queries: hotBatch(timed)}))
			}
		}
		w.cycle = true
		// The warm-up compiles every plan.
		for i := 0; i < hotCSPs; i++ {
			c := w.csps[i]
			w.warmup = append(w.warmup, queryRequest(&queryInput{c: c, queries: hotBatch(warm)}))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v or all)", name, workloadNames)
	}
	return w, nil
}

// decomposeInput builds one decompose-deadline request. Quick inputs are
// adders (ghw 2) and small cliques, which the portfolio proves optimal in a
// few milliseconds; the rest are 60-signal random circuits, which run to
// the deadline. Names carry the request's tag, so no two payloads are
// equal and the daemon's exact-result cache never answers one.
func decomposeInput(rng *rand.Rand, tag string, quick bool) *input {
	var h *hypergraph.Hypergraph
	switch {
	case quick && rng.Intn(2) == 0:
		h = hypergraph.Adder(6 + rng.Intn(11))
	case quick:
		h = hypergraph.CliqueHypergraph(4 + rng.Intn(5))
	default:
		h = hypergraph.RandomCircuit(circuitSignals, circuitGates, rng.Int63())
	}
	for v := 0; v < h.N(); v++ {
		h.SetVertexName(v, tag+"v"+strconv.Itoa(v))
	}
	for e := 0; e < h.M(); e++ {
		h.SetEdgeName(e, tag+"e"+strconv.Itoa(e))
	}
	var body bytes.Buffer
	// Writes to a bytes.Buffer do not fail.
	_ = hypergraph.WriteHG(&body, h)
	path := "/decompose?timeout=" + deadline.String() + "&include=tree"
	return &input{wire: httpPost(path, "text/plain", body.Bytes()), h: h, body: body.Bytes()}
}

// cspSpec is the wire form of a CSP.
type cspSpec struct {
	NumVars     int              `json:"num_vars"`
	Domain      []int            `json:"domain"`
	Constraints []constraintSpec `json:"constraints"`
}

type constraintSpec struct {
	Scope  []int   `json:"scope"`
	Tuples [][]int `json:"tuples"`
}

// newCSPInput draws a 24-signal random circuit and turns it into a
// binary-domain CSP with one constraint per gate allowing at most one 1 in
// its scope (the construction of internal/bench/queryserve.go). A CSP whose
// wire form was already drawn is drawn again, so every CSP is distinct.
func newCSPInput(rng *rand.Rand, id int, seen map[string]bool) *cspInput {
	for {
		h := hypergraph.RandomCircuit(cspSignals, cspGates, rng.Int63())
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
			panic(err) // a struct of ints always marshals
		}
		if seen[string(js)] {
			continue
		}
		seen[string(js)] = true
		return &cspInput{id: id, json: js}
	}
}

// pins draws 1 or 2 pins; two pins set to 1 inside one constraint make an
// unsatisfiable query, which the checker verifies too.
func pins(rng *rand.Rand) map[string]int {
	m := make(map[string]int, 2)
	for k := 1 + rng.Intn(2); k > 0; k-- {
		m[strconv.Itoa(rng.Intn(cspSignals))] = rng.Intn(2)
	}
	return m
}

// coldBatch is query-cold's small batch: one query of each kind.
func coldBatch(rng *rand.Rand) []querySpec {
	return []querySpec{
		{Op: "count", Assign: pins(rng)},
		{Op: "solve", Assign: pins(rng)},
		{Op: "enumerate", Assign: pins(rng), Limit: 3},
	}
}

// hotBatch is query-hot's batch of hotQueries pinned queries.
func hotBatch(rng *rand.Rand) []querySpec {
	ops := [hotQueries]string{"solve", "count", "enumerate", "solve", "count", "enumerate", "solve", "count"}
	qs := make([]querySpec, len(ops))
	for i, op := range ops {
		qs[i] = querySpec{Op: op, Assign: pins(rng)}
		if op == "enumerate" {
			qs[i].Limit = 2
		}
	}
	return qs
}

// queryRequest builds the /query request for a batch. The CSP's bytes are
// spliced in verbatim: the plan cache is keyed by them, so every batch
// against one CSP hits the same plan.
func queryRequest(q *queryInput) *input {
	qs, err := json.Marshal(q.queries)
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	body := make([]byte, 0, len(q.c.json)+len(qs)+32)
	body = append(body, `{"csp":`...)
	body = append(body, q.c.json...)
	body = append(body, `,"queries":`...)
	body = append(body, qs...)
	body = append(body, '}')
	return &input{wire: httpPost("/query?algo=greedy", "application/json", body), q: q}
}

// httpPost renders a complete HTTP/1.1 request, so the window only writes
// bytes.
func httpPost(path, contentType string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: servebench\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", path, contentType, len(body))
	b.Write(body)
	return b.Bytes()
}
