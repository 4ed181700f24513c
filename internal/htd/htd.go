// Package htd implements hypertree decompositions — the tractable variant
// of generalized hypertree decompositions highlighted by the PODS 2007 line
// this repository reproduces (thesis §2.3.2: for fixed k, deciding
// hw(H) ≤ k and computing a width-k hypertree decomposition is polynomial,
// whereas the same questions for ghw are NP-complete even for fixed k).
//
// The algorithm is a backtracking det-k-decomp in the style of Gottlob &
// Samer: recursively split edge components with separators of at most k
// hyperedges drawn from the current component and its parent separator,
// memoizing failed and successful (component, connector) subproblems.
// Since ghw(H) ≤ hw(H), every decomposition found here is also a valid
// generalized hypertree decomposition and an upper bound for ghw.
//
// The search is serial. DecideHW decides one width; HypertreeWidth tries
// k = 1, 2, … on top of it. Both run under a budget (nil = unlimited).
package htd

import (
	"sort"
	"strconv"
	"strings"

	"hypertree/internal/budget"
	"hypertree/internal/budget/faultinject"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
)

// Decomposer holds the memoization state for one hypergraph and width.
type decomposer struct {
	h     *hypergraph.Hypergraph
	k     int
	memo  map[string]*node // nil value = known failure
	edges [][]int
	b     *budget.B
	// stop latches once the budget runs out mid-search. From then on
	// subproblems fail fast, and — crucially — nothing is memoized: a nil
	// caused by exhaustion is "unknown", not "proven impossible".
	stop bool
}

// node is a constructed decomposition subtree.
type node struct {
	lambda   []int // hyperedge ids
	chi      []int // vertices
	children []*node
}

// DecideHW decides whether h has a hypertree decomposition of width at most
// k under the run budget b (nil = unlimited) and returns one (as a
// validated GHD) when it does. For fixed k the running time is polynomial
// in h. The third result reports whether the search was cut short: when
// interrupted is true, ok=false means "unknown", not "no width-k
// decomposition exists".
func DecideHW(h *hypergraph.Hypergraph, k int, b *budget.B) (g *decomp.GHD, ok, interrupted bool) {
	if k < 1 {
		return nil, false, false
	}
	if h.M() == 0 || !h.CoversAllVertices() {
		return nil, false, false
	}
	d := &decomposer{h: h, k: k, memo: make(map[string]*node), edges: h.Edges(), b: b}
	all := make([]int, h.M())
	for i := range all {
		all[i] = i
	}
	root := d.decompose(all, nil, nil)
	if root == nil {
		return nil, false, d.stop
	}
	return d.toGHD(root), true, false
}

// HypertreeWidth computes hw(h) under the run budget b (nil = unlimited) by
// deciding k = 1, 2, … up to maxK. It returns the width and a witnessing
// decomposition, or (-1, nil) when maxK is too small or the budget ran
// out. provenLB is the smallest k not yet refuted: every width below it has
// been proven impossible, so hw(h) ≥ provenLB. On a completed run with a
// decomposition found, provenLB equals the returned width.
//
// rec (may be nil) receives a detk_attempt event per width attempt, a
// lower_bound event per refuted width, and an improve event for the found
// decomposition.
func HypertreeWidth(h *hypergraph.Hypergraph, maxK int, b *budget.B, rec obs.Recorder) (width int, g *decomp.GHD, provenLB int) {
	provenLB = 1
	for k := 1; k <= maxK; k++ {
		g, ok, interrupted := DecideHW(h, k, b)
		if rec != nil {
			rec.Record(obs.Event{Kind: obs.KindAttempt, T: b.Elapsed(),
				K: k, Found: ok, Nodes: b.Nodes()})
		}
		if ok {
			if rec != nil {
				rec.Record(obs.Event{Kind: obs.KindImprove, T: b.Elapsed(),
					Width: k, Nodes: b.Nodes()})
			}
			return k, g, k
		}
		if interrupted {
			return -1, nil, provenLB
		}
		provenLB = k + 1
		if rec != nil {
			rec.Record(obs.Event{Kind: obs.KindLowerBound, T: b.Elapsed(),
				LowerBound: provenLB, Nodes: b.Nodes()})
		}
	}
	return -1, nil, provenLB
}

// decompose tries to decompose the edge component comp whose interface to
// the parent is the connector vertex set, with separators drawn from
// comp ∪ oldSep (the det-k-decomp candidate rule enforcing the hypertree
// descendant condition).
func (d *decomposer) decompose(comp, connector, oldSep []int) *node {
	if d.stop || !d.b.Tick() {
		d.stop = true
		return nil
	}
	faultinject.Hit(faultinject.SiteSearchExpand)
	key := memoKey(comp, connector)
	if n, ok := d.memo[key]; ok {
		return n
	}
	n := d.solve(comp, connector, oldSep)
	// An exhausted search proves nothing: memoizing nil here would wrongly
	// record this subproblem as unsolvable for later (or resumed) queries.
	if !d.stop {
		d.memo[key] = n
	}
	return n
}

// solve computes one subproblem: the base case, or the separator
// enumeration. decompose handles memoization.
func (d *decomposer) solve(comp, connector, oldSep []int) *node {
	// Base case: the whole component fits into one λ-set.
	if len(comp) <= d.k {
		return &node{lambda: append([]int(nil), comp...), chi: d.vars(comp)}
	}
	// Candidate separator edges: component edges plus the parent separator
	// (det-k-decomp's completeness-preserving pool for hypertree width).
	pool := append(append([]int(nil), comp...), oldSep...)
	sort.Ints(pool)
	pool = dedupe(pool)

	compVars := d.vars(comp)
	inComp := make(map[int]bool, len(compVars))
	for _, v := range compVars {
		inComp[v] = true
	}

	sep := make([]int, 0, d.k)
	var result *node
	var choose func(start, uncoveredIdx int) bool
	// connector coverage tracked greedily: we require that after the
	// separator is complete, every connector vertex is covered.
	covers := func(sep []int, v int) bool {
		for _, e := range sep {
			if d.h.EdgeContains(e, v) {
				return true
			}
		}
		return false
	}
	choose = func(start, depth int) bool {
		if d.stop || !d.b.Tick() {
			// Returning true unwinds the separator enumeration fast; result
			// stays nil and the stop latch keeps it out of the memo.
			d.stop = true
			return true
		}
		if len(sep) > 0 {
			// Try this separator when it covers the connector.
			ok := true
			for _, v := range connector {
				if !covers(sep, v) {
					ok = false
					break
				}
			}
			if ok {
				if n := d.try(comp, sep, inComp); n != nil {
					result = n
					return true
				}
			}
		}
		if depth == d.k {
			return false
		}
		for i := start; i < len(pool); i++ {
			sep = append(sep, pool[i])
			if choose(i+1, depth+1) {
				return true
			}
			sep = sep[:len(sep)-1]
		}
		return false
	}
	choose(0, 0)
	return result
}

// try splits comp by the separator sep and recursively decomposes every
// resulting subcomponent. It returns the decomposition node or nil.
func (d *decomposer) try(comp, sep []int, inComp map[int]bool) *node {
	sepVars := make(map[int]bool)
	for _, e := range sep {
		for _, v := range d.edges[e] {
			sepVars[v] = true
		}
	}
	// Components of comp edges connected through vertices outside sepVars.
	// Union-find over comp edges.
	parent := make(map[int]int, len(comp))
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	var active []int // edges with at least one uncovered vertex
	for _, e := range comp {
		covered := true
		for _, v := range d.edges[e] {
			if !sepVars[v] {
				covered = false
				break
			}
		}
		if !covered {
			parent[e] = e
			active = append(active, e)
		}
	}
	// Group active edges by shared uncovered vertices.
	owner := make(map[int]int) // uncovered vertex -> representative edge
	for _, e := range active {
		for _, v := range d.edges[e] {
			if sepVars[v] {
				continue
			}
			if o, ok := owner[v]; ok {
				union(o, e)
			} else {
				owner[v] = e
			}
		}
	}
	groups := make(map[int][]int)
	for _, e := range active {
		r := find(e)
		groups[r] = append(groups[r], e)
	}
	// Progress guard: a separator that leaves the whole component intact
	// would recurse forever.
	for _, g := range groups {
		if len(g) == len(comp) {
			return nil
		}
	}
	n := &node{lambda: append([]int(nil), sep...)}
	// χ(p) = var(λ) ∩ (var(comp) ∪ connector); connector ⊆ var(comp)'s
	// closure via the parent, so restricting to vertices seen in comp or
	// the separator's own coverage of the connector is handled by taking
	// var(λ) ∩ (comp vars ∪ covered connector) — equivalently all λ vars
	// that occur in the component or the connector. We include every λ
	// vertex inside the component plus the connector itself.
	chi := make(map[int]bool)
	for v := range sepVars {
		if inComp[v] {
			chi[v] = true
		}
	}
	reps := make([]int, 0, len(groups))
	for r := range groups {
		reps = append(reps, r)
	}
	sort.Ints(reps)
	for _, r := range reps {
		sub := groups[r]
		sort.Ints(sub)
		// Child connector: separator vertices occurring in the subcomponent.
		var childConn []int
		seen := make(map[int]bool)
		for _, e := range sub {
			for _, v := range d.edges[e] {
				if sepVars[v] && !seen[v] {
					seen[v] = true
					childConn = append(childConn, v)
				}
			}
		}
		sort.Ints(childConn)
		child := d.decompose(sub, childConn, sep)
		if child == nil {
			return nil
		}
		n.children = append(n.children, child)
		for _, v := range childConn {
			chi[v] = true
		}
	}
	n.chi = make([]int, 0, len(chi))
	for v := range chi {
		n.chi = append(n.chi, v)
	}
	sort.Ints(n.chi)
	return n
}

func (d *decomposer) vars(edges []int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, e := range edges {
		for _, v := range d.edges[e] {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Ints(out)
	return out
}

// toGHD flattens the node tree into the repository's GHD representation.
func (d *decomposer) toGHD(root *node) *decomp.GHD {
	g := &decomp.GHD{}
	var walk func(n *node, parent int) int
	walk = func(n *node, parent int) int {
		id := len(g.Bags)
		g.Bags = append(g.Bags, append([]int(nil), n.chi...))
		g.Lambdas = append(g.Lambdas, append([]int(nil), n.lambda...))
		g.Parent = append(g.Parent, parent)
		for _, c := range n.children {
			walk(c, id)
		}
		return id
	}
	g.Root = walk(root, -1)
	return g
}

func memoKey(comp, connector []int) string {
	var sb strings.Builder
	for _, e := range comp {
		sb.WriteString(strconv.Itoa(e))
		sb.WriteByte(',')
	}
	sb.WriteByte('|')
	for _, v := range connector {
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte(',')
	}
	return sb.String()
}

func dedupe(sorted []int) []int {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}
