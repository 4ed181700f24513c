// Package hypergraph provides the graph and hypergraph data structures that
// underlie tree decompositions and generalized hypertree decompositions,
// together with parsers, writers and deterministic benchmark-instance
// generators.
//
// Vertices are identified by dense integer indices 0..n-1. Optional string
// names may be attached for I/O; all algorithms operate on indices only.
package hypergraph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..n-1. Self-loops and
// parallel edges are not stored. The zero value is an empty graph with no
// vertices.
type Graph struct {
	n     int
	adj   []map[int]struct{}
	edges int
	names []string
}

// NewGraph returns an empty graph with n vertices and no edges.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("hypergraph: negative vertex count")
	}
	g := &Graph{n: n, adj: make([]map[int]struct{}, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]struct{})
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// AddEdge inserts the undirected edge {u, v}. Inserting an existing edge or a
// self-loop is a no-op. It reports whether a new edge was added.
func (g *Graph) AddEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	if _, ok := g.adj[u][v]; ok {
		return false
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	g.edges++
	return true
}

// RemoveEdge deletes the undirected edge {u, v} if present and reports
// whether an edge was removed.
//
// test-only: TestRemoveEdge; no binary removes a graph edge.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if _, ok := g.adj[u][v]; !ok {
		return false
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	g.edges--
	return true
}

// HasEdge reports whether {u, v} is an edge.
//
// test-only: the adjacency check of the hypergraph and elimgraph tests.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	_, ok := g.adj[u][v]
	return ok
}

// Degree returns the number of neighbors of v.
//
// test-only: the degree check of the hypergraph and elimgraph tests.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return len(g.adj[v])
}

// Neighbors returns the neighbors of v in ascending order. The returned
// slice is freshly allocated.
func (g *Graph) Neighbors(v int) []int {
	g.check(v)
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Edges returns all edges as ordered pairs (u < v), sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.edges)
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Clone returns a deep copy of the graph.
//
// test-only: TestCloneIndependent; no binary clones a graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.n)
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			c.adj[u][v] = struct{}{}
		}
	}
	c.edges = g.edges
	if g.names != nil {
		c.names = append([]string(nil), g.names...)
	}
	return c
}

// SetName attaches a display name to vertex v.
func (g *Graph) SetName(v int, name string) {
	g.check(v)
	if g.names == nil {
		g.names = make([]string, g.n)
	}
	g.names[v] = name
}

// Name returns the display name of v, or its decimal index if unnamed.
//
// test-only: TestNames; the binaries read names only through FromGraph.
func (g *Graph) Name(v int) string {
	g.check(v)
	if g.names != nil && g.names[v] != "" {
		return g.names[v]
	}
	return fmt.Sprintf("%d", v)
}

// Complete turns the given vertex set into a clique, adding any missing
// edges, and returns the number of edges added.
func (g *Graph) Complete(vs []int) int {
	added := 0
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if g.AddEdge(vs[i], vs[j]) {
				added++
			}
		}
	}
	return added
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("hypergraph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.n, g.edges)
}
