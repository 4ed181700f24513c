package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"hypertree/internal/budget"
	"hypertree/internal/decomp"
	"hypertree/internal/elim"
	"hypertree/internal/ga"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
)

// TestPortfolioSmoke is the portfolio's headline contract (and the
// `make portfolio-smoke` race gate): on seed instances, racing the solver
// set under one budget returns a validated decomposition no wider than the
// best single member given the same budget.
func TestPortfolioSmoke(t *testing.T) {
	instances := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"grid2d_6", hypergraph.Grid2D(6)},
		{"clique_9", hypergraph.CliqueHypergraph(9)},
	}
	for _, tc := range instances {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Seed: 1, Timeout: 30 * time.Second, MaxNodes: 80000}
			pd, err := DecomposePortfolio(tc.h, opts)
			if err != nil {
				t.Fatalf("portfolio: %v", err)
			}
			validateAnytime(t, tc.h, AlgPortfolio, pd)
			for _, alg := range DefaultPortfolio {
				sopts := opts
				sopts.Algorithm = alg
				sd, err := Decompose(tc.h, sopts)
				if err != nil {
					t.Fatalf("%s: %v", alg, err)
				}
				if pd.Width > sd.Width {
					t.Errorf("portfolio width %d exceeds solo %s width %d", pd.Width, alg, sd.Width)
				}
			}
			if pd.Stats == nil {
				t.Fatal("portfolio result lost its merged RunStats")
			}
			if err := pd.Stats.CheckTimeline(); err != nil {
				t.Fatalf("merged timeline: %v", err)
			}
		})
	}
}

// TestPickWinner pins the race's answer rule on hand-built member results
// over the triangle (ghw 2): the narrowest result that validates wins,
// member order breaks ties, an invalid narrower result falls through to the
// next narrowest, and results without a decomposition are not candidates.
func TestPickWinner(t *testing.T) {
	tri := hypergraph.NewHypergraph(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	// oneBag is the single-bag decomposition {0,1,2} with the given λ; it is
	// a valid GHD exactly when λ covers all three vertices.
	oneBag := func(lambda ...int) *Decomposition {
		g := &decomp.GHD{
			TreeDecomposition: decomp.TreeDecomposition{
				Tree: decomp.Tree{Parent: []int{-1}}, Bags: [][]int{{0, 1, 2}}},
			Lambdas: [][]int{lambda},
		}
		return &Decomposition{TD: &g.TreeDecomposition, GHD: g, Width: len(lambda)}
	}
	valid3, valid2, valid2b := oneBag(0, 1, 2), oneBag(0, 1), oneBag(1, 2)
	uncovered1 := oneBag(0) // λ = {edge {0,1}} leaves vertex 2 of the bag uncovered
	for _, tc := range []struct {
		name    string
		results []memberResult
		want    *Decomposition // nil: no valid result, an error
	}{
		{"narrowest valid wins", []memberResult{
			{alg: AlgGAGHW, d: valid3}, {alg: AlgBBGHW, d: valid2}}, valid2},
		{"tie goes to member order", []memberResult{
			{alg: AlgGreedy, d: valid2b}, {alg: AlgBBGHW, d: valid2}}, valid2b},
		{"invalid narrowest falls back", []memberResult{
			{alg: AlgGreedy, d: valid3}, {alg: AlgSAIGAGHW, d: uncovered1}, {alg: AlgGAGHW, d: valid2}}, valid2},
		{"nil and empty results skipped", []memberResult{
			{alg: AlgGAGHW}, {alg: AlgBBGHW, d: &Decomposition{}}, {alg: AlgGreedy, d: valid3}}, valid3},
		{"no valid result", []memberResult{
			{alg: AlgGAGHW}, {alg: AlgSAIGAGHW, d: uncovered1}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := pickWinner(tri, tc.results)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("picked %s, want an error", got.alg)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.d != tc.want {
				t.Fatalf("picked %s (width %d), want the width-%d result", got.alg, got.d.Width, tc.want.Width)
			}
		})
	}
}

// TestPortfolioExactWinAbortsLosers pins the win latch: once the incumbent
// meets the proven lower bound the race is over, and members that would run
// far longer on their own (here a GA armed with an absurd iteration budget)
// are drained via StopPortfolioWin. The caller sees a completed exact run,
// not an interruption.
func TestPortfolioExactWinAbortsLosers(t *testing.T) {
	h := hypergraph.CliqueHypergraph(10) // ghw = ceil(10/2) = 5, proven fast by BB
	start := time.Now()
	d, err := DecomposePortfolio(h, Options{
		Seed:      1,
		Timeout:   60 * time.Second,
		Portfolio: []Algorithm{AlgGreedy, AlgBBGHW, AlgGAGHW},
		GA:        ga.Config{MaxIterations: 1 << 30}, // would run ~forever un-aborted
	})
	if err != nil {
		t.Fatalf("portfolio: %v", err)
	}
	elapsed := time.Since(start)
	validateAnytime(t, h, AlgPortfolio, d)
	if d.Width != 5 {
		t.Fatalf("width = %d, want 5", d.Width)
	}
	if !d.Exact {
		t.Fatal("proven-optimal race not reported Exact")
	}
	if d.Interrupted || d.Stop != budget.StopNone {
		t.Fatalf("win reported as interruption: Interrupted=%v Stop=%q", d.Interrupted, d.Stop)
	}
	if d.LowerBound != d.Width {
		t.Fatalf("exact result with lb %d != width %d", d.LowerBound, d.Width)
	}
	if elapsed > 20*time.Second {
		t.Fatalf("race took %v: the win latch did not abort the losers", elapsed)
	}
}

// TestPortfolioMidRaceCancel cancels the shared context mid-race and checks
// the anytime contract: the best validated width found so far comes back,
// flagged as a cancellation, never as exact.
func TestPortfolioMidRaceCancel(t *testing.T) {
	h := anytimeInstance() // Grid2D(10): no member closes it in 100ms
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	d, err := DecomposePortfolio(h, Options{Seed: 1, Ctx: ctx, CheckEvery: 64})
	if err != nil {
		t.Fatalf("portfolio: %v", err)
	}
	validateAnytime(t, h, AlgPortfolio, d)
	if !d.Interrupted || d.Stop != budget.StopCanceled {
		t.Fatalf("Interrupted=%v Stop=%q, want canceled interruption", d.Interrupted, d.Stop)
	}
	if d.Exact {
		t.Fatal("canceled race must not claim exactness")
	}
}

// TestPortfolioMemberValidation rejects member sets the race cannot run:
// unknown names, nesting, treewidth objectives, hw-detk (whose refutations
// and exact verdict bound hw, not ghw), duplicates (which would interleave
// improve events within one (req, algo) trace scope).
func TestPortfolioMemberValidation(t *testing.T) {
	h := hypergraph.Grid2D(4)
	bad := [][]Algorithm{
		{AlgBBGHW, Algorithm("no-such-algo")},
		{AlgGreedy, AlgPortfolio},
		{AlgBBTW, AlgGreedy},
		{AlgGreedy, AlgHW},
		{AlgGreedy, AlgBBGHW, AlgGreedy},
	}
	for _, members := range bad {
		if _, err := DecomposePortfolio(h, Options{Seed: 1, Portfolio: members}); err == nil {
			t.Errorf("portfolio %v: expected a validation error", members)
		}
	}
	// A legal subset runs fine.
	d, err := DecomposePortfolio(h, Options{Seed: 1, Portfolio: []Algorithm{AlgGreedy, AlgBBGHW}})
	if err != nil {
		t.Fatalf("two-member portfolio: %v", err)
	}
	validateAnytime(t, h, AlgPortfolio, d)
}

// TestPortfolioTraceValidates streams a four-member portfolio race through
// the JSONL recorder and runs the trace validator over it: the interleaved
// member event streams plus the merged portfolio stream must satisfy the
// per-(req, algo) anytime contract.
func TestPortfolioTraceValidates(t *testing.T) {
	h := hypergraph.Grid2D(6)
	var buf bytes.Buffer
	rec := obs.NewJSONLWriter(&buf)
	d, err := DecomposePortfolio(h, Options{Seed: 1, MaxNodes: 50000, Recorder: rec,
		Portfolio: []Algorithm{AlgGreedy, AlgBBGHW, AlgGAGHW, AlgSAIGAGHW}})
	if err != nil {
		t.Fatalf("portfolio: %v", err)
	}
	validateAnytime(t, h, AlgPortfolio, d)
	if err := rec.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	sum, err := obs.ValidateTrace(&buf)
	if err != nil {
		t.Fatalf("portfolio trace rejected: %v", err)
	}
	if sum.Events == 0 {
		t.Fatal("empty trace")
	}
}

// TestHWDetkExactOrdering is the regression for the ordering-contract bug:
// the exact det-k-decomp path returned Ordering == nil, breaking every
// consumer that replays decompositions through elimination orderings. The
// ordering must be a permutation whose induced GHD is no wider than the
// reported width.
func TestHWDetkExactOrdering(t *testing.T) {
	h := hypergraph.Grid2D(4)
	d, err := Decompose(h, Options{Algorithm: AlgHW, Seed: 1, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("hw-detk: %v", err)
	}
	if !d.Exact {
		t.Fatalf("hw-detk did not close Grid2D(4) (width %d, stop %q)", d.Width, d.Stop)
	}
	if d.Ordering == nil {
		t.Fatal("exact hw-detk returned a nil Ordering")
	}
	seen := make([]bool, h.N())
	for _, v := range d.Ordering {
		if v < 0 || v >= h.N() || seen[v] {
			t.Fatalf("Ordering is not a permutation: %v", d.Ordering)
		}
		seen[v] = true
	}
	if len(d.Ordering) != h.N() {
		t.Fatalf("Ordering has %d entries, want %d", len(d.Ordering), h.N())
	}
	g, err := elim.GHDFromOrdering(h, d.Ordering, true, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("replaying the ordering: %v", err)
	}
	if g.Width() > d.Width {
		t.Fatalf("ordering replays to width %d, above the reported %d", g.Width(), d.Width)
	}
}

// TestPortfolioLedgerConservation is the attribution contract under -race:
// on a real multi-member race the ledger's per-member attributed node
// counts must sum exactly to the run's global budget.Nodes(), every
// incumbent improvement of the merged timeline must name the member that
// claimed it, and the winner's row must carry the winner role.
func TestPortfolioLedgerConservation(t *testing.T) {
	h := hypergraph.Grid2D(6)
	members := []Algorithm{AlgGreedy, AlgBBGHW, AlgGAGHW, AlgSAIGAGHW}
	d, err := DecomposePortfolio(h, Options{Seed: 1, Timeout: 30 * time.Second, MaxNodes: 60000,
		Portfolio: members})
	if err != nil {
		t.Fatalf("portfolio: %v", err)
	}
	led := d.Ledger
	if led == nil {
		t.Fatal("portfolio result carries no ledger")
	}
	if !led.Portfolio {
		t.Fatal("ledger not marked as a portfolio ledger")
	}
	if len(led.Members) != len(members) {
		t.Fatalf("ledger has %d members, portfolio raced %d", len(led.Members), len(members))
	}
	if led.TotalNodes != d.Nodes {
		t.Fatalf("ledger TotalNodes %d != result Nodes %d", led.TotalNodes, d.Nodes)
	}
	if err := led.Conserved(); err != nil {
		t.Fatalf("conservation invariant: %v", err)
	}
	if led.Winner == "" || led.Find(led.Winner) == nil {
		t.Fatalf("ledger names no valid winner: %q", led.Winner)
	}
	// Every improvement of the merged timeline appears as exactly one
	// member claim — claims are attributed, not merely counted.
	var claims int
	for i := range led.Members {
		m := &led.Members[i]
		claims += len(m.Claims)
		if m.Role == "" {
			t.Fatalf("member %s has no role", m.Algo)
		}
		for _, c := range m.Claims {
			if c.Width <= 0 {
				t.Fatalf("member %s claimed a non-width: %+v", m.Algo, c)
			}
		}
	}
	merged := d.Stats.Snapshot().Timeline
	if claims != len(merged) {
		t.Fatalf("ledger attributes %d claims, merged timeline has %d improvements", claims, len(merged))
	}
	// The narrowest claim across members is the result's width, and the
	// winner claimed a width at least as narrow as everyone else's best.
	win := led.Find(led.Winner)
	if win.Role != "winner" {
		t.Fatalf("winner row role = %q", win.Role)
	}
	if win.BestWidth != d.Width {
		t.Fatalf("winner best width %d != result width %d", win.BestWidth, d.Width)
	}
	// CPU estimates exist for every member (they all at least started).
	for i := range led.Members {
		if led.Members[i].CPU <= 0 {
			t.Fatalf("member %s has no CPU estimate", led.Members[i].Algo)
		}
	}
}

// TestSerialLedgerShape pins the degenerate one-member ledger of a
// non-portfolio run: same shape, trivial conservation, sole member wins.
func TestSerialLedgerShape(t *testing.T) {
	h := hypergraph.Grid2D(5)
	d, err := Decompose(h, Options{Algorithm: AlgBBGHW, Seed: 1, Timeout: 20 * time.Second, MaxNodes: 30000})
	if err != nil {
		t.Fatalf("bb-ghw: %v", err)
	}
	led := d.Ledger
	if led == nil {
		t.Fatal("serial result carries no ledger")
	}
	if led.Portfolio {
		t.Fatal("serial ledger marked as portfolio")
	}
	if len(led.Members) != 1 {
		t.Fatalf("serial ledger has %d members, want 1", len(led.Members))
	}
	if err := led.Conserved(); err != nil {
		t.Fatalf("serial conservation: %v", err)
	}
	m := &led.Members[0]
	if m.Algo != string(AlgBBGHW) || m.Role != "winner" || led.Winner != m.Algo {
		t.Fatalf("serial member row = %+v, winner %q", m, led.Winner)
	}
	if m.Nodes != d.Nodes {
		t.Fatalf("serial member nodes %d != run nodes %d", m.Nodes, d.Nodes)
	}
	if m.BestWidth != d.Width {
		t.Fatalf("serial member best width %d != run width %d", m.BestWidth, d.Width)
	}
	for i := 1; i < len(m.Claims); i++ {
		if m.Claims[i].Width >= m.Claims[i-1].Width {
			t.Fatalf("serial claims not strictly decreasing: %+v", m.Claims)
		}
	}
}
