package server

import (
	"context"
	"errors"
	"testing"

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
