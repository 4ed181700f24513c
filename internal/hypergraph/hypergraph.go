package hypergraph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Hypergraph is a finite hypergraph on vertices 0..n-1. Hyperedges are stored
// as sorted vertex slices; duplicate edges are permitted by the type but the
// constructors used in this repository never emit them.
//
// Concurrency: mutation (AddEdge, Set*Name) is not safe for concurrent use,
// but all read methods are — including the first IncidentEdges call, which
// builds its index under a lock. Portfolio members and parallel workers
// share one hypergraph across goroutines and rely on this.
type Hypergraph struct {
	n      int
	edges  [][]int
	vnames []string
	enames []string

	incidentMu sync.Mutex
	incidentOK atomic.Bool
	incident   [][]int // incident[v] = indices of edges containing v
}

// NewHypergraph returns a hypergraph with n vertices and no edges.
func NewHypergraph(n int) *Hypergraph {
	if n < 0 {
		panic("hypergraph: negative vertex count")
	}
	return &Hypergraph{n: n}
}

// N returns the number of vertices.
func (h *Hypergraph) N() int { return h.n }

// M returns the number of hyperedges.
func (h *Hypergraph) M() int { return len(h.edges) }

// AddEdge appends a hyperedge over the given vertices and returns its index.
// The vertex set is copied, then sorted and deduplicated in place. Empty edges are allowed
// by the representation but rejected here because no thesis algorithm is
// defined over them.
func (h *Hypergraph) AddEdge(vs ...int) int {
	if len(vs) == 0 {
		panic("hypergraph: empty hyperedge")
	}
	for _, v := range vs {
		h.check(v)
	}
	edge := slices.Clone(vs)
	slices.Sort(edge)
	h.edges = append(h.edges, slices.Compact(edge))
	h.incidentOK.Store(false)
	return len(h.edges) - 1
}

// Edge returns the vertices of edge e in ascending order. The slice is owned
// by the hypergraph and must not be mutated.
func (h *Hypergraph) Edge(e int) []int {
	if e < 0 || e >= len(h.edges) {
		panic(fmt.Sprintf("hypergraph: edge %d out of range [0,%d)", e, len(h.edges)))
	}
	return h.edges[e]
}

// Edges returns all hyperedges. The outer slice is freshly allocated; the
// inner slices are owned by the hypergraph.
func (h *Hypergraph) Edges() [][]int {
	out := make([][]int, len(h.edges))
	copy(out, h.edges)
	return out
}

// EdgeContains reports whether edge e contains vertex v.
func (h *Hypergraph) EdgeContains(e, v int) bool {
	edge := h.Edge(e)
	i := sort.SearchInts(edge, v)
	return i < len(edge) && edge[i] == v
}

// IncidentEdges returns the indices of all edges containing v, ascending.
// The result is cached; the returned slice must not be mutated.
func (h *Hypergraph) IncidentEdges(v int) []int {
	h.check(v)
	// Double-checked lazy build: concurrent readers (portfolio members) may all
	// arrive before the index exists; exactly one builds it, and the atomic
	// flag is only set after the slice is fully populated.
	if !h.incidentOK.Load() {
		h.incidentMu.Lock()
		if !h.incidentOK.Load() {
			incident := make([][]int, h.n)
			for e, edge := range h.edges {
				for _, u := range edge {
					incident[u] = append(incident[u], e)
				}
			}
			h.incident = incident
			h.incidentOK.Store(true)
		}
		h.incidentMu.Unlock()
	}
	return h.incident[v]
}

// MaxArity returns the size of the largest hyperedge (0 for no edges).
func (h *Hypergraph) MaxArity() int {
	max := 0
	for _, e := range h.edges {
		if len(e) > max {
			max = len(e)
		}
	}
	return max
}

// PrimalGraph returns the Gaifman (primal) graph: same vertices, with an
// edge between every pair of vertices that co-occur in some hyperedge.
func (h *Hypergraph) PrimalGraph() *Graph {
	g := NewGraph(h.n)
	for _, edge := range h.edges {
		g.Complete(edge)
	}
	if h.vnames != nil {
		for v, name := range h.vnames {
			if name != "" {
				g.SetName(v, name)
			}
		}
	}
	return g
}

// SetVertexName attaches a display name to vertex v.
func (h *Hypergraph) SetVertexName(v int, name string) {
	h.check(v)
	if h.vnames == nil {
		h.vnames = make([]string, h.n)
	}
	h.vnames[v] = name
}

// VertexName returns the display name of v, or its decimal index if unnamed.
func (h *Hypergraph) VertexName(v int) string {
	h.check(v)
	if h.vnames != nil && h.vnames[v] != "" {
		return h.vnames[v]
	}
	return fmt.Sprintf("%d", v)
}

// SetEdgeName attaches a display name to edge e.
func (h *Hypergraph) SetEdgeName(e int, name string) {
	h.Edge(e) // bounds check
	if h.enames == nil {
		h.enames = make([]string, 0)
	}
	for len(h.enames) <= e {
		h.enames = append(h.enames, "")
	}
	h.enames[e] = name
}

// EdgeName returns the display name of e, or "e<index>" if unnamed.
func (h *Hypergraph) EdgeName(e int) string {
	h.Edge(e) // bounds check
	if e < len(h.enames) && h.enames[e] != "" {
		return h.enames[e]
	}
	return fmt.Sprintf("e%d", e)
}

// FromGraph converts a simple graph into the hypergraph whose hyperedges are
// exactly the graph's 2-element edges.
func FromGraph(g *Graph) *Hypergraph {
	h := NewHypergraph(g.N())
	for _, e := range g.Edges() {
		h.AddEdge(e[0], e[1])
	}
	for v := 0; v < g.N(); v++ {
		if g.names != nil && g.names[v] != "" {
			h.SetVertexName(v, g.names[v])
		}
	}
	return h
}

// CoversAllVertices reports whether every vertex appears in some hyperedge.
// Isolated vertices are legal but trivial for decomposition purposes.
func (h *Hypergraph) CoversAllVertices() bool {
	covered := make([]bool, h.n)
	for _, e := range h.edges {
		for _, v := range e {
			covered[v] = true
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	return true
}

func (h *Hypergraph) check(v int) {
	if v < 0 || v >= h.n {
		panic(fmt.Sprintf("hypergraph: vertex %d out of range [0,%d)", v, h.n))
	}
}

// String returns a short human-readable summary.
func (h *Hypergraph) String() string {
	return fmt.Sprintf("Hypergraph(n=%d, m=%d, maxArity=%d)", h.n, len(h.edges), h.MaxArity())
}
