// Package elimgraph implements the dynamic elimination-graph data structure
// of thesis §5.2.1 (Figure 5.2): a graph that supports eliminating a vertex
// (connect all its live neighbors pairwise, then remove it) and restoring the
// most recently eliminated vertex, in LIFO order.
//
// The thesis stores three structures: growing adjacency lists A, a table E of
// list lengths after each elimination step, and an adjacency matrix T. This
// implementation keeps A and T and replaces E by explicit per-step undo
// records (the eliminated vertex, its neighbors, and the fill edges added),
// which encode exactly the same information and restore in O(size of step).
//
// A single ElimGraph is shared across an entire branch-and-bound or A*
// search: moving between search states is done by restoring to the common
// prefix and eliminating forward (thesis §5.2.1, "common postfix" remark).
package elimgraph

import (
	"fmt"

	"hypertree/internal/hypergraph"
)

// ElimGraph is a mutable elimination graph over vertices 0..n-1.
type ElimGraph struct {
	n          int
	adj        [][]int // A: append-only within a step; popped on restore
	matrix     []bool  // T: n*n adjacency among live vertices
	eliminated []bool
	deg        []int // live degree, maintained incrementally
	live       int
	undo       []step
}

type step struct {
	v         int
	neighbors []int    // live neighbors of v at elimination time
	fills     [][2]int // edges added (in order) when v was eliminated
}

// New builds an elimination graph from a simple graph.
func New(g *hypergraph.Graph) *ElimGraph {
	n := g.N()
	e := &ElimGraph{
		n:          n,
		adj:        make([][]int, n),
		matrix:     make([]bool, n*n),
		eliminated: make([]bool, n),
		deg:        make([]int, n),
		live:       n,
	}
	for v := 0; v < n; v++ {
		ns := g.Neighbors(v)
		e.adj[v] = append(e.adj[v], ns...)
		e.deg[v] = len(ns)
		for _, u := range ns {
			e.matrix[v*n+u] = true
		}
	}
	return e
}

// FromHypergraph builds the elimination graph of a hypergraph's primal graph.
func FromHypergraph(h *hypergraph.Hypergraph) *ElimGraph {
	return New(h.PrimalGraph())
}

// N returns the total number of vertices (live + eliminated).
func (e *ElimGraph) N() int { return e.n }

// Live returns the number of vertices not yet eliminated.
func (e *ElimGraph) Live() int { return e.live }

// Eliminated reports whether v has been eliminated.
func (e *ElimGraph) Eliminated(v int) bool { return e.eliminated[v] }

// Depth returns the number of eliminations currently applied.
func (e *ElimGraph) Depth() int { return len(e.undo) }

// Degree returns the live degree of v. Undefined for eliminated vertices.
func (e *ElimGraph) Degree(v int) int { return e.deg[v] }

// Neighbors appends the live neighbors of v to buf and returns it. Pass a
// reusable buffer to avoid allocation in hot loops.
func (e *ElimGraph) Neighbors(v int, buf []int) []int {
	buf = buf[:0]
	row := v * e.n
	for _, u := range e.adj[v] {
		if !e.eliminated[u] && e.matrix[row+u] {
			buf = append(buf, u)
		}
	}
	return buf
}

// LiveVertices appends all live vertices to buf (ascending) and returns it.
func (e *ElimGraph) LiveVertices(buf []int) []int {
	buf = buf[:0]
	for v := 0; v < e.n; v++ {
		if !e.eliminated[v] {
			buf = append(buf, v)
		}
	}
	return buf
}

// FillCount returns the number of edges that eliminating v would add: the
// missing adjacencies among v's live neighbors. Used by the min-fill
// heuristic.
func (e *ElimGraph) FillCount(v int) int {
	ns := e.Neighbors(v, nil)
	fill := 0
	for i := 0; i < len(ns); i++ {
		row := ns[i] * e.n
		for j := i + 1; j < len(ns); j++ {
			if !e.matrix[row+ns[j]] {
				fill++
			}
		}
	}
	return fill
}

// IsSimplicial reports whether v's live neighborhood is a clique.
func (e *ElimGraph) IsSimplicial(v int) bool {
	return e.FillCount(v) == 0
}

// IsAlmostSimplicial reports whether all but one of v's live neighbors form a
// clique, i.e. there is a neighbor u whose removal makes N(v) a clique.
// A simplicial vertex is not reported as almost simplicial.
func (e *ElimGraph) IsAlmostSimplicial(v int) bool {
	ns := e.Neighbors(v, nil)
	if len(ns) < 2 {
		return false
	}
	// Count missing pairs per neighbor. v is almost simplicial via u iff u is
	// an endpoint of every missing pair.
	missTotal := 0
	missCount := make(map[int]int)
	for i := 0; i < len(ns); i++ {
		row := ns[i] * e.n
		for j := i + 1; j < len(ns); j++ {
			if !e.matrix[row+ns[j]] {
				missTotal++
				missCount[ns[i]]++
				missCount[ns[j]]++
			}
		}
	}
	if missTotal == 0 {
		return false // simplicial, not almost simplicial
	}
	for _, c := range missCount {
		if c == missTotal {
			return true
		}
	}
	return false
}

// Eliminate removes v from the live graph after pairwise-connecting its live
// neighbors, and returns the degree v had at elimination time. It panics if
// v is already eliminated.
func (e *ElimGraph) Eliminate(v int) int {
	if e.eliminated[v] {
		panic(fmt.Sprintf("elimgraph: vertex %d already eliminated", v))
	}
	ns := e.Neighbors(v, nil)
	st := step{v: v, neighbors: ns}
	// Add fill edges.
	for i := 0; i < len(ns); i++ {
		a := ns[i]
		row := a * e.n
		for j := i + 1; j < len(ns); j++ {
			b := ns[j]
			if !e.matrix[row+b] {
				e.matrix[row+b] = true
				e.matrix[b*e.n+a] = true
				e.adj[a] = append(e.adj[a], b)
				e.adj[b] = append(e.adj[b], a)
				e.deg[a]++
				e.deg[b]++
				st.fills = append(st.fills, [2]int{a, b})
			}
		}
	}
	// Detach v.
	for _, u := range ns {
		e.matrix[v*e.n+u] = false
		e.matrix[u*e.n+v] = false
		e.deg[u]--
	}
	e.eliminated[v] = true
	e.live--
	e.undo = append(e.undo, st)
	return len(ns)
}

// Restore undoes the most recent elimination and returns the restored
// vertex. It panics if nothing has been eliminated.
func (e *ElimGraph) Restore() int {
	if len(e.undo) == 0 {
		panic("elimgraph: nothing to restore")
	}
	st := e.undo[len(e.undo)-1]
	e.undo = e.undo[:len(e.undo)-1]
	// Remove fill edges in reverse order so adjacency-list tails pop cleanly.
	for i := len(st.fills) - 1; i >= 0; i-- {
		a, b := st.fills[i][0], st.fills[i][1]
		e.matrix[a*e.n+b] = false
		e.matrix[b*e.n+a] = false
		e.adj[a] = e.adj[a][:len(e.adj[a])-1]
		e.adj[b] = e.adj[b][:len(e.adj[b])-1]
		e.deg[a]--
		e.deg[b]--
	}
	// Reattach v.
	v := st.v
	for _, u := range st.neighbors {
		e.matrix[v*e.n+u] = true
		e.matrix[u*e.n+v] = true
		e.deg[u]++
	}
	e.eliminated[v] = false
	e.live++
	return v
}

// LastStep returns the most recent elimination: the eliminated vertex, its
// live neighbors at elimination time, and the fill edges it added. The
// slices are owned by the graph and valid until the next Eliminate/Restore.
// It panics if nothing has been eliminated.
func (e *ElimGraph) LastStep() (v int, clique []int, fills [][2]int) {
	if len(e.undo) == 0 {
		panic("elimgraph: no eliminations")
	}
	st := e.undo[len(e.undo)-1]
	return st.v, st.neighbors, st.fills
}

// Reset restores the graph to its initial state.
func (e *ElimGraph) Reset() {
	for len(e.undo) > 0 {
		e.Restore()
	}
}

// SetPrefix transforms the graph so that exactly the vertices of prefix are
// eliminated, in order. It restores to the longest common prefix with the
// current elimination stack and then eliminates forward — the thesis's
// "common postfix" optimization for moving between A* search states.
func (e *ElimGraph) SetPrefix(prefix []int) {
	common := 0
	for common < len(e.undo) && common < len(prefix) && e.undo[common].v == prefix[common] {
		common++
	}
	for len(e.undo) > common {
		e.Restore()
	}
	for i := common; i < len(prefix); i++ {
		e.Eliminate(prefix[i])
	}
}

// Snapshot returns an independent simple graph equal to the current live
// filled graph. Vertex ids are preserved; eliminated vertices are isolated.
//
// test-only: TestSnapshotProperty; no search copies the filled graph out.
func (e *ElimGraph) Snapshot() *hypergraph.Graph {
	g := hypergraph.NewGraph(e.n)
	for v := 0; v < e.n; v++ {
		if e.eliminated[v] {
			continue
		}
		row := v * e.n
		for u := v + 1; u < e.n; u++ {
			if !e.eliminated[u] && e.matrix[row+u] {
				g.AddEdge(v, u)
			}
		}
	}
	return g
}
