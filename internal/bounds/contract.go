package bounds

import (
	"math/bits"
	"math/rand"

	"hypertree/internal/elimgraph"
	"hypertree/internal/hypergraph"
)

// contractGraph is a throwaway graph supporting edge contraction and vertex
// deletion, used by the minor-based lower bounds. Adjacency is a bitset
// matrix: the bounds run at every node of the exact searches, so this is
// one of the hottest structures in the repository.
type contractGraph struct {
	n     int // original vertex count
	words int // words per adjacency row
	adj   []uint64
	alive []bool
	deg   []int
	live  int
}

func newContractGraphSized(n int) *contractGraph {
	words := (n + 63) / 64
	return &contractGraph{
		n:     n,
		words: words,
		adj:   make([]uint64, n*words),
		alive: make([]bool, n),
		deg:   make([]int, n),
	}
}

func newContractGraph(g *hypergraph.Graph) *contractGraph {
	c := newContractGraphSized(g.N())
	for v := 0; v < g.N(); v++ {
		c.alive[v] = true
	}
	c.live = g.N()
	for _, e := range g.Edges() {
		c.setEdge(e[0], e[1])
	}
	return c
}

// newContractGraphOf builds the contractGraph of h's primal graph straight
// from its hyperedges; it equals newContractGraph(h.PrimalGraph()).
func newContractGraphOf(h *hypergraph.Hypergraph) *contractGraph {
	c := newContractGraphSized(h.N())
	for v := range c.alive {
		c.alive[v] = true
	}
	c.live = h.N()
	for i := 0; i < h.M(); i++ {
		e := h.Edge(i)
		for j, u := range e {
			for _, v := range e[j+1:] {
				c.setEdge(u, v)
			}
		}
	}
	return c
}

// newContractGraphFromElim builds a contractGraph over the live subgraph of
// an elimination graph, so lower bounds can be evaluated at interior search
// states without materializing a snapshot graph.
func newContractGraphFromElim(e *elimgraph.ElimGraph) *contractGraph {
	n := e.N()
	c := newContractGraphSized(n)
	var buf []int
	for v := 0; v < n; v++ {
		if e.Eliminated(v) {
			continue
		}
		c.alive[v] = true
		c.live++
		buf = e.Neighbors(v, buf)
		row := c.row(v)
		for _, u := range buf {
			row[u>>6] |= 1 << (uint(u) & 63)
		}
		c.deg[v] = len(buf)
	}
	return c
}

func (c *contractGraph) row(v int) []uint64 {
	return c.adj[v*c.words : (v+1)*c.words]
}

func (c *contractGraph) setEdge(u, v int) {
	ru, rv := c.row(u), c.row(v)
	mu, mv := uint64(1)<<(uint(v)&63), uint64(1)<<(uint(u)&63)
	if ru[v>>6]&mu == 0 {
		ru[v>>6] |= mu
		rv[u>>6] |= mv
		c.deg[u]++
		c.deg[v]++
	}
}

func (c *contractGraph) hasEdge(u, v int) bool {
	return c.row(u)[v>>6]&(1<<(uint(v)&63)) != 0
}

func (c *contractGraph) degree(v int) int { return c.deg[v] }

// eachNeighbor calls fn for every live neighbor of v, in ascending order.
func (c *contractGraph) eachNeighbor(v int, fn func(w int)) {
	row := c.row(v)
	for wi, word := range row {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			fn(wi*64 + b)
		}
	}
}

// contract merges v into u (u survives). Both must be live and adjacent or
// not — self-loops are discarded either way.
func (c *contractGraph) contract(u, v int) {
	ru := c.row(u)
	c.eachNeighbor(v, func(w int) {
		rw := c.row(w)
		rw[v>>6] &^= 1 << (uint(v) & 63)
		if w == u {
			return
		}
		mw := uint64(1) << (uint(w) & 63)
		if ru[w>>6]&mw != 0 {
			c.deg[w]-- // was adjacent to both: edges merge
		} else {
			ru[w>>6] |= mw
			rw[u>>6] |= 1 << (uint(u) & 63)
		}
	})
	// Recompute u's row/degree: union minus self-loops.
	rv := c.row(v)
	for i := range ru {
		ru[i] |= rv[i]
	}
	ru[u>>6] &^= 1 << (uint(u) & 63)
	ru[v>>6] &^= 1 << (uint(v) & 63)
	d := 0
	for _, w := range ru {
		d += bits.OnesCount64(w)
	}
	c.deg[u] = d
	// Kill v.
	for i := range rv {
		rv[i] = 0
	}
	c.deg[v] = 0
	c.alive[v] = false
	c.live--
}

// remove deletes vertex v and its incident edges.
func (c *contractGraph) remove(v int) {
	c.eachNeighbor(v, func(w int) {
		c.row(w)[v>>6] &^= 1 << (uint(v) & 63)
		c.deg[w]--
	})
	rv := c.row(v)
	for i := range rv {
		rv[i] = 0
	}
	c.deg[v] = 0
	c.alive[v] = false
	c.live--
}

// minDegreeVertex returns a live vertex of minimum degree, tie-broken by
// rng (or lowest index when rng is nil).
func (c *contractGraph) minDegreeVertex(rng *rand.Rand) (int, int) {
	v, vd, ties := -1, 0, 0
	for u := 0; u < c.n; u++ {
		if !c.alive[u] {
			continue
		}
		d := c.deg[u]
		switch {
		case v < 0 || d < vd:
			v, vd, ties = u, d, 1
		case d == vd:
			ties++
			if rng != nil && rng.Intn(ties) == 0 {
				v = u
			}
		}
	}
	return v, vd
}

// minNeighbor returns the live neighbor of v with minimum degree, breaking
// ties via rng. Returns -1 if v is isolated.
func (c *contractGraph) minNeighbor(v int, rng *rand.Rand) int {
	best, bestDeg, ties := -1, 0, 0
	c.eachNeighbor(v, func(u int) {
		d := c.deg[u]
		switch {
		case best < 0 || d < bestDeg:
			best, bestDeg, ties = u, d, 1
		case d == bestDeg:
			ties++
			if rng != nil && rng.Intn(ties) == 0 {
				best = u
			}
		}
	})
	return best
}
