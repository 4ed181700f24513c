package main

import (
	"fmt"
	"strconv"

	"hypertree/internal/csp"
	"hypertree/internal/hypergraph"
)

// The benchmark decodes the daemon's JSON envelopes into its own types: it
// reads the wire contract a client sees, not the server's Go structs.

// timings is the envelope's per-phase breakdown, in nanoseconds.
type timings struct {
	QueueWait int64 `json:"queue_wait_ns"`
	Parse     int64 `json:"parse_ns"`
	Cache     int64 `json:"cache_ns"`
	Solve     int64 `json:"solve_ns"`
	Compile   int64 `json:"compile_ns"`
	Query     int64 `json:"query_ns"`
	Encode    int64 `json:"encode_ns"`
	Total     int64 `json:"total_ns"`
}

// phases is the sum of the measured phases.
func (t *timings) phases() int64 {
	return t.QueueWait + t.Parse + t.Cache + t.Solve + t.Compile + t.Query + t.Encode
}

type ledgerMember struct {
	Algo        string `json:"algo"`
	Nodes       int64  `json:"nodes"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
}

type ledger struct {
	Winner     string         `json:"winner"`
	TotalNodes int64          `json:"total_nodes"`
	Members    []ledgerMember `json:"members"`
}

type treeJSON struct {
	Bags    [][]string `json:"bags"`
	Lambdas [][]string `json:"lambdas"`
	Parent  []int      `json:"parent"`
	Root    int        `json:"root"`
	Width   int        `json:"width"`
}

// decomposeResponse is the /decompose envelope.
type decomposeResponse struct {
	Outcome     string    `json:"outcome"`
	Width       int       `json:"width"`
	LowerBound  int       `json:"lower_bound"`
	Stop        string    `json:"stop"`
	Nodes       int64     `json:"nodes"`
	Timings     *timings  `json:"timings"`
	Attribution *ledger   `json:"attribution"`
	Tree        *treeJSON `json:"tree"`
	Error       string    `json:"error"`
}

type planJSON struct {
	Width      int  `json:"width"`
	Rows       int  `json:"rows"`
	MaxBagRows int  `json:"max_bag_rows"`
	Cached     bool `json:"cached"`
}

type queryResult struct {
	Op            string  `json:"op"`
	Sat           *bool   `json:"sat"`
	Assignment    []int   `json:"assignment"`
	Count         *int    `json:"count"`
	Solutions     [][]int `json:"solutions"`
	CountOverflow bool    `json:"count_overflow"`
	Truncated     bool    `json:"truncated"`
	Error         string  `json:"error"`
}

// queryResponse is the /query envelope.
type queryResponse struct {
	Outcome string        `json:"outcome"`
	Plan    *planJSON     `json:"plan"`
	Results []queryResult `json:"results"`
	Timings *timings      `json:"timings"`
	Error   string        `json:"error"`
}

// checkTree verifies a returned decomposition of h independently of the
// program: the parent array forms one tree; every hyperedge lies in some
// bag; the bags holding each vertex are connected; each λ covers its bag;
// the reported width is the largest λ; and the lower bound does not exceed
// it.
func checkTree(h *hypergraph.Hypergraph, t *treeJSON, width, lowerBound int) error {
	if t == nil {
		return fmt.Errorf("no tree in the response")
	}
	n := len(t.Bags)
	if n == 0 || len(t.Parent) != n || len(t.Lambdas) != n {
		return fmt.Errorf("tree has %d bags, %d parents, %d λ-sets", n, len(t.Parent), len(t.Lambdas))
	}
	if t.Root < 0 || t.Root >= n || t.Parent[t.Root] != -1 {
		return fmt.Errorf("root %d is not a parentless node", t.Root)
	}
	for i, p := range t.Parent {
		if i != t.Root && (p < 0 || p >= n) {
			return fmt.Errorf("node %d has parent %d", i, p)
		}
	}
	// Every node must reach the root within n steps, or the parents cycle.
	for i := range t.Parent {
		j, steps := i, 0
		for j != t.Root {
			if j = t.Parent[j]; j < 0 || steps > n {
				return fmt.Errorf("node %d does not reach the root", i)
			}
			steps++
		}
	}

	vid := make(map[string]int, h.N())
	for v := 0; v < h.N(); v++ {
		vid[h.VertexName(v)] = v
	}
	eid := make(map[string]int, h.M())
	for e := 0; e < h.M(); e++ {
		eid[h.EdgeName(e)] = e
	}
	in := make([][]bool, n) // in[node][vertex]
	for i, bag := range t.Bags {
		in[i] = make([]bool, h.N())
		for _, name := range bag {
			v, ok := vid[name]
			if !ok {
				return fmt.Errorf("bag %d holds unknown vertex %q", i, name)
			}
			in[i][v] = true
		}
	}

	for e := 0; e < h.M(); e++ {
		placed := false
		for i := 0; i < n && !placed; i++ {
			placed = true
			for _, v := range h.Edge(e) {
				if !in[i][v] {
					placed = false
					break
				}
			}
		}
		if !placed {
			return fmt.Errorf("hyperedge %s lies in no bag", h.EdgeName(e))
		}
	}

	// The nodes holding v induce a forest whose component count is the
	// number of them whose parent does not hold v; connected means one.
	for v := 0; v < h.N(); v++ {
		tops := 0
		for i := 0; i < n; i++ {
			if in[i][v] && (i == t.Root || !in[t.Parent[i]][v]) {
				tops++
			}
		}
		if tops != 1 {
			return fmt.Errorf("vertex %s: the bags holding it form %d components, want 1", h.VertexName(v), tops)
		}
	}

	maxLambda := 0
	for i, lam := range t.Lambdas {
		covered := make([]bool, h.N())
		for _, name := range lam {
			e, ok := eid[name]
			if !ok {
				return fmt.Errorf("λ of node %d names unknown edge %q", i, name)
			}
			for _, v := range h.Edge(e) {
				covered[v] = true
			}
		}
		for _, name := range t.Bags[i] {
			if !covered[vid[name]] {
				return fmt.Errorf("λ of node %d does not cover vertex %s of its bag", i, name)
			}
		}
		maxLambda = max(maxLambda, len(lam))
	}
	if width != maxLambda || t.Width != maxLambda {
		return fmt.Errorf("reported width %d (tree %d), largest λ has %d edges", width, t.Width, maxLambda)
	}
	if lowerBound > width {
		return fmt.Errorf("lower bound %d exceeds width %d", lowerBound, width)
	}
	return nil
}

// checkAnswers verifies a /query batch's results against the CSP and the
// in-process counts (counts[i] is query i's number of solutions under its
// pins). A solve must report sat exactly when a solution exists and return
// an assignment satisfying every constraint and pin; a count must match;
// an enumeration must return min(limit, count) valid, distinct rows.
func checkAnswers(c *csp.CSP, qs []querySpec, counts []int, res []queryResult) error {
	if len(res) != len(qs) {
		return fmt.Errorf("%d results for %d queries", len(res), len(qs))
	}
	for i, q := range qs {
		r := &res[i]
		if r.Op != q.Op || r.Error != "" {
			return fmt.Errorf("query %d (%s): result op %q, error %q", i, q.Op, r.Op, r.Error)
		}
		switch q.Op {
		case "solve":
			if r.Sat == nil || *r.Sat != (counts[i] > 0) {
				return fmt.Errorf("query %d: solve says sat=%v, but %d solutions exist", i, r.Sat != nil && *r.Sat, counts[i])
			}
			if *r.Sat {
				if err := satisfies(c, q.Assign, r.Assignment); err != nil {
					return fmt.Errorf("query %d: solve: %w", i, err)
				}
			}
		case "count":
			if r.Count == nil {
				return fmt.Errorf("query %d: count missing", i)
			}
			if r.CountOverflow || *r.Count != counts[i] {
				return fmt.Errorf("query %d: count %d (overflow %v), in-process count %d", i, *r.Count, r.CountOverflow, counts[i])
			}
		case "enumerate":
			if want := min(q.Limit, counts[i]); len(r.Solutions) != want || r.Truncated {
				return fmt.Errorf("query %d: enumerate returned %d rows (truncated %v), want %d", i, len(r.Solutions), r.Truncated, want)
			}
			seen := make(map[string]bool, len(r.Solutions))
			for j, row := range r.Solutions {
				if err := satisfies(c, q.Assign, row); err != nil {
					return fmt.Errorf("query %d: enumerate row %d: %w", i, j, err)
				}
				k := fmt.Sprint(row)
				if seen[k] {
					return fmt.Errorf("query %d: enumerate repeats row %d", i, j)
				}
				seen[k] = true
			}
		default:
			return fmt.Errorf("query %d: unknown op %q", i, q.Op)
		}
	}
	return nil
}

// satisfies checks a complete assignment against every pin, every domain
// and every constraint's tuple list.
func satisfies(c *csp.CSP, pins map[string]int, a []int) error {
	if len(a) != c.NumVars {
		return fmt.Errorf("assignment has %d values for %d variables", len(a), c.NumVars)
	}
	for name, val := range pins {
		v, err := strconv.Atoi(name)
		if err != nil || v < 0 || v >= len(a) {
			return fmt.Errorf("pin on unknown variable %q", name)
		}
		if a[v] != val {
			return fmt.Errorf("variable %d is %d, pinned to %d", v, a[v], val)
		}
	}
	for v, x := range a {
		ok := false
		for _, d := range c.Domains[v] {
			ok = ok || d == x
		}
		if !ok {
			return fmt.Errorf("variable %d is %d, outside its domain", v, x)
		}
	}
	for ci, con := range c.Constraints {
		allowed := false
		for _, t := range con.Tuples {
			match := true
			for j, v := range con.Scope {
				if a[v] != t[j] {
					match = false
					break
				}
			}
			if match {
				allowed = true
				break
			}
		}
		if !allowed {
			return fmt.Errorf("constraint %d is violated", ci)
		}
	}
	return nil
}
