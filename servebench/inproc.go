package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"time"

	"hypertree/internal/core"
	"hypertree/internal/csp"
	"hypertree/internal/csp/engine"
	"hypertree/internal/hypergraph"
)

// The in-process side of the benchmark: the same inputs run through the
// public functions of each module, with no socket and no daemon. It answers
// every query the window sent (the checker's reference counts) and, in a
// traced run, records a span around each call into a module.

// daemonTimeout is the daemon's default per-request budget, which /query
// requests without a timeout run under.
const daemonTimeout = 10 * time.Second

// expected is the in-process reference for one CSP: the CSP itself, the
// width of its greedy plan and, per batch sent against it, the solution
// count of each query.
type expected struct {
	c      *csp.CSP
	width  int
	counts map[*queryInput][]int
}

// expectAll compiles the greedy plan of every CSP the given batches use and
// counts each query's solutions under its pins, on two goroutines (the
// daemon is stopped by now, so both cores are free).
func expectAll(batches []*queryInput, tr *tracer) (map[*cspInput]*expected, error) {
	byCSP := make(map[*cspInput][]*queryInput)
	seen := make(map[*queryInput]bool)
	var order []*cspInput
	for _, q := range batches {
		if seen[q] {
			continue // query-hot sends each batch many times
		}
		seen[q] = true
		if _, ok := byCSP[q.c]; !ok {
			order = append(order, q.c)
		}
		byCSP[q.c] = append(byCSP[q.c], q)
	}
	out := make(map[*cspInput]*expected, len(order))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan *cspInput)
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				e, err := expect(c, byCSP[c], tr)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[c] = e
				mu.Unlock()
			}
		}()
	}
	for _, c := range order {
		next <- c
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// expect builds c's greedy plan exactly as the daemon does for
// POST /query?algo=greedy and answers every query of the batches from it.
func expect(c *cspInput, batches []*queryInput, tr *tracer) (*expected, error) {
	cc, err := c.build()
	if err != nil {
		return nil, fmt.Errorf("csp %d: %w", c.id, err)
	}
	trace := "c" + strconv.Itoa(c.id)
	root := tr.open(trace, 0, "inproc")
	defer root.close()
	plan, width, err := greedyPlan(cc, tr, trace, root.id())
	if err != nil {
		return nil, fmt.Errorf("csp %d: %w", c.id, err)
	}
	cu := plan.NewCursor()
	e := &expected{c: cc, width: width, counts: make(map[*queryInput][]int, len(batches))}
	for _, q := range batches {
		counts := make([]int, len(q.queries))
		for i, qs := range q.queries {
			pins := toPins(qs.Assign)
			var sp *openSpan
			if qs.Op == "count" {
				sp = tr.open(trace, root.id(), "engine.Cursor.CountExact")
			}
			n, exact := cu.CountExact(pins)
			sp.close()
			if !exact {
				return nil, fmt.Errorf("csp %d: in-process count overflowed", c.id)
			}
			counts[i] = n
			// The solve and enumerate calls only feed their spans; the
			// checker judges those answers against the CSP itself.
			switch {
			case tr == nil:
			case qs.Op == "solve":
				sp := tr.open(trace, root.id(), "engine.Cursor.Solve")
				cu.Solve(pins)
				sp.close()
			case qs.Op == "enumerate":
				sp := tr.open(trace, root.id(), "engine.Cursor.Enumerate")
				cu.Enumerate(qs.Limit, pins)
				sp.close()
			}
		}
		e.counts[q] = counts
	}
	return e, nil
}

// greedyPlan decomposes c's constraint hypergraph with the greedy solver
// and compiles the plan, as the daemon's /query path does.
func greedyPlan(c *csp.CSP, tr *tracer, trace string, parent int64) (*engine.Plan, int, error) {
	h := c.Hypergraph()
	sp := tr.open(trace, parent, "core.Decompose")
	d, err := core.Decompose(h, core.Options{Algorithm: core.AlgGreedy, Seed: 1, Timeout: daemonTimeout})
	sp.close()
	if err != nil {
		return nil, 0, err
	}
	if d.GHD == nil {
		return nil, 0, fmt.Errorf("greedy returned no GHD")
	}
	g := d.GHD
	if !g.IsComplete(h) {
		g.Complete(h)
	}
	sp = tr.open(trace, parent, "engine.CompileGHDBudget")
	plan, err := engine.CompileGHDBudget(c, g, nil)
	sp.close()
	return plan, d.Width, err
}

func toPins(assign map[string]int) []engine.Pin {
	pins := make([]engine.Pin, 0, len(assign))
	for name, val := range assign {
		v, _ := strconv.Atoi(name) // the generator writes decimal indexes
		pins = append(pins, engine.Pin{Var: v, Val: val})
	}
	return pins
}

// decomposeSpans runs inputs through hypergraph.ParseHG and a portfolio
// core.Decompose under the workload's deadline, one at a time, recording a
// span around each call.
func decomposeSpans(inputs []*input, tr *tracer) error {
	for i, in := range inputs {
		trace := "d" + strconv.Itoa(i)
		root := tr.open(trace, 0, "inproc")
		sp := tr.open(trace, root.id(), "hypergraph.ParseHG")
		h, err := hypergraph.ParseHG(bytes.NewReader(in.body))
		sp.close()
		if err != nil {
			root.close()
			return fmt.Errorf("in-process parse of input %d: %w", i, err)
		}
		sp = tr.open(trace, root.id(), "core.Decompose")
		_, err = core.Decompose(h, core.Options{Algorithm: core.AlgPortfolio, Seed: 1, Timeout: deadline})
		sp.close()
		root.close()
		if err != nil {
			return fmt.Errorf("in-process decompose of input %d: %w", i, err)
		}
	}
	return nil
}
