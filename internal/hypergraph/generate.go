package hypergraph

import (
	"fmt"
	"math/rand"
	"sort"
)

// This file contains deterministic generators for the benchmark families used
// in the thesis's evaluation chapters. Families with exact mathematical
// definitions (queen, mycielski, grid) reproduce the original instances
// vertex-for-vertex. Families distributed only as data files (random DSJC/le
// classes, register-allocation graphs, ISCAS circuit hypergraphs) are
// substituted by seeded generators matching the published vertex/edge counts
// and structural class; see DESIGN.md "Substitutions".

// Grid returns the n×n grid graph. Its treewidth is n (for n >= 2).
func Grid(n int) *Graph {
	g := NewGraph(n * n)
	id := func(r, c int) int { return r*n + c }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < n {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Queen returns the n×n queen graph: one vertex per board square, edges
// between squares sharing a row, column or diagonal. queen5_5 .. queen16_16
// in the DIMACS coloring suite are exactly these graphs.
func Queen(n int) *Graph {
	g := NewGraph(n * n)
	id := func(r, c int) int { return r*n + c }
	for r1 := 0; r1 < n; r1++ {
		for c1 := 0; c1 < n; c1++ {
			for r2 := 0; r2 < n; r2++ {
				for c2 := 0; c2 < n; c2++ {
					if r1 == r2 && c1 == c2 {
						continue
					}
					if r1 == r2 || c1 == c2 || r1-c1 == r2-c2 || r1+c1 == r2+c2 {
						g.AddEdge(id(r1, c1), id(r2, c2))
					}
				}
			}
		}
	}
	return g
}

// Mycielski returns the iterated Mycielskian myciel_k used by DIMACS:
// myciel2 = K2 (an edge), myciel3 = C5's Mycielskian (the Grötzsch graph,
// 11 vertices / 20 edges), and myciel(k+1) = Mycielskian(myciel k).
// Sizes match DIMACS: myciel3 (11,20), myciel4 (23,71), myciel5 (47,236),
// myciel6 (95,755), myciel7 (191,2360).
func Mycielski(k int) *Graph {
	if k < 2 {
		panic("hypergraph: Mycielski requires k >= 2")
	}
	g := NewGraph(2)
	g.AddEdge(0, 1)
	for i := 1; i < k; i++ { // k-1 applications: K2 → C5 → Grötzsch → …
		g = mycielskian(g)
	}
	return g
}

// mycielskian applies the Mycielski construction: for G with vertices v_i it
// adds shadow vertices u_i (u_i adjacent to N(v_i)) and an apex w adjacent to
// every u_i.
func mycielskian(g *Graph) *Graph {
	n := g.N()
	out := NewGraph(2*n + 1)
	for _, e := range g.Edges() {
		out.AddEdge(e[0], e[1])
		out.AddEdge(e[0]+n, e[1])
		out.AddEdge(e[0], e[1]+n)
	}
	w := 2 * n
	for i := 0; i < n; i++ {
		out.AddEdge(i+n, w)
	}
	return out
}

// CliqueGraph returns the complete graph K_n.
func CliqueGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// RandomGraph returns a seeded Erdős–Rényi-style graph with exactly m
// distinct edges, sampled uniformly. It substitutes for the DIMACS random
// classes (DSJC*, le450_*, school*, games120 and the book graphs), matching
// their published vertex and edge counts.
func RandomGraph(n, m int, seed int64) *Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("hypergraph: RandomGraph(%d, %d): too many edges (max %d)", n, m, maxM))
	}
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n)
	for g.M() < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		g.AddEdge(u, v)
	}
	return g
}

// RandomIntervalGraph returns a seeded interval graph with n intervals whose
// lengths are drawn so the expected edge count is near m. Interval graphs are
// chordal (treewidth = max clique - 1), which mirrors the near-chordal
// register-allocation DIMACS instances (fpsol2, inithx, mulsol, zeroin) that
// exact solvers close quickly via simplicial reductions.
func RandomIntervalGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	los := make([]float64, n)
	lens := make([]float64, n)
	for i := 0; i < n; i++ {
		los[i] = rng.Float64()
		lens[i] = rng.Float64()
	}
	// Edge count is monotone in a global length scale; bisect it so the
	// graph lands as close to the requested edge count as possible.
	count := func(scale float64) int {
		c := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if los[i] <= los[j]+lens[j]*scale && los[j] <= los[i]+lens[i]*scale {
					c++
				}
			}
		}
		return c
	}
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 50; iter++ {
		mid := (lo + hi) / 2
		if count(mid) < m {
			lo = mid
		} else {
			hi = mid
		}
	}
	scale := hi
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if los[i] <= los[j]+lens[j]*scale && los[j] <= los[i]+lens[i]*scale {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// RandomGeometricGraph returns a seeded unit-square geometric graph: n random
// points, with an edge whenever two points are within distance r. The DIMACS
// miles* graphs are geometric (cities within driving distance); this
// substitutes for them.
func RandomGeometricGraph(n int, r float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := xs[i] - xs[j]
			dy := ys[i] - ys[j]
			if dx*dx+dy*dy <= r*r {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// RandomGeometricGraphM returns a seeded geometric graph with approximately
// m edges: the points are drawn once from the seed, then the radius is
// bisected until the edge count is as close to m as possible. Deterministic
// for a fixed (n, m, seed).
func RandomGeometricGraphM(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	count := func(r float64) int {
		c := 0
		r2 := r * r
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx, dy := xs[i]-xs[j], ys[i]-ys[j]
				if dx*dx+dy*dy <= r2 {
					c++
				}
			}
		}
		return c
	}
	lo, hi := 0.0, 1.5 // sqrt(2) connects everything in the unit square
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		if count(mid) < m {
			lo = mid
		} else {
			hi = mid
		}
	}
	// The same seed draws the same points.
	return RandomGeometricGraph(n, hi, seed)
}

// CliqueHypergraph returns the hypergraph whose hyperedges are all 2-element
// subsets of n vertices (the CSP library's clique_n instances; clique_20 has
// 20 vertices and 190 binary hyperedges).
func CliqueHypergraph(n int) *Hypergraph {
	return FromGraph(CliqueGraph(n))
}

// Grid2D returns the CSP-library Grid2D_n hypergraph: an n×n checkerboard in
// which cells with even coordinate sum are vertices and cells with odd
// coordinate sum are hyperedges containing their (up to four) orthogonal
// neighbor cells. For even n this yields n²/2 vertices and n²/2 hyperedges
// (grid2d_20: 200 vertices, 200 edges).
func Grid2D(n int) *Hypergraph {
	return gridKD([]int{n, n})
}

// Grid3D returns the CSP-library Grid3D_n hypergraph: the same checkerboard
// construction on an n×n×n lattice (grid3d_8: 256 vertices, 256 edges).
func Grid3D(n int) *Hypergraph {
	return gridKD([]int{n, n, n})
}

// Grid4D extends the same construction to 4 dimensions.
func Grid4D(n int) *Hypergraph { return gridKD([]int{n, n, n, n}) }

// gridKD builds the checkerboard grid hypergraph over an arbitrary box.
func gridKD(dims []int) *Hypergraph {
	total := 1
	for _, d := range dims {
		total *= d
	}
	coords := make([]int, len(dims))
	// Map even-parity cells to vertex ids.
	vertexID := make(map[int]int)
	cellIndex := func(c []int) int {
		idx := 0
		for i, x := range c {
			idx = idx*dims[i] + x
		}
		return idx
	}
	parity := func(c []int) int {
		s := 0
		for _, x := range c {
			s += x
		}
		return s & 1
	}
	nv := 0
	for i := 0; i < total; i++ {
		decode(i, dims, coords)
		if parity(coords) == 0 {
			vertexID[cellIndex(coords)] = nv
			nv++
		}
	}
	h := NewHypergraph(nv)
	neighbor := make([]int, len(dims))
	for i := 0; i < total; i++ {
		decode(i, dims, coords)
		if parity(coords) != 1 {
			continue
		}
		var edge []int
		for d := range dims {
			for _, delta := range []int{-1, 1} {
				copy(neighbor, coords)
				neighbor[d] += delta
				if neighbor[d] < 0 || neighbor[d] >= dims[d] {
					continue
				}
				edge = append(edge, vertexID[cellIndex(neighbor)])
			}
		}
		if len(edge) > 0 {
			h.AddEdge(edge...)
		}
	}
	return h
}

// binomial returns C(n, k), saturating at a large value to avoid overflow.
//
// test-only: called by RandomHypergraph only.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	result := 1
	for i := 0; i < k; i++ {
		result = result * (n - i) / (i + 1)
		if result > 1<<40 {
			return 1 << 40
		}
	}
	return result
}

func decode(i int, dims, out []int) {
	for d := len(dims) - 1; d >= 0; d-- {
		out[d] = i % dims[d]
		i /= dims[d]
	}
}

// Adder returns an n-bit ripple-carry adder constraint hypergraph with
// 5n+1 vertices (per bit: a_i, b_i, s_i, carry-in c_i; plus the final carry
// c_n) and 7n+1 hyperedges (adder_75: 376 vertices, 526 edges; adder_99:
// 496/694, matching the CSP-library counts). Each bit contributes seven
// low-arity constraints relating its inputs, sum and carries, so consecutive
// bits share only the carry variable and the family has small ghw.
func Adder(n int) *Hypergraph {
	h := NewHypergraph(5*n + 1)
	// Vertex layout: a_i = 5i, b_i = 5i+1, s_i = 5i+2, c_i = 5i+3 is not
	// used; instead carries live at offset 4: c_i = 5i+4 for i<n and the
	// final carry is vertex 5n. To keep ids dense we use:
	//   a_i=5i, b_i=5i+1, s_i=5i+2, aux_i=5i+3, c_i=5i+4, c_n=5n.
	a := func(i int) int { return 5 * i }
	b := func(i int) int { return 5*i + 1 }
	s := func(i int) int { return 5*i + 2 }
	aux := func(i int) int { return 5*i + 3 }
	c := func(i int) int {
		if i == n {
			return 5 * n
		}
		return 5*i + 4
	}
	for i := 0; i < n; i++ {
		h.AddEdge(a(i), b(i), aux(i))       // partial sum a⊕b
		h.AddEdge(aux(i), c(i), s(i))       // sum out
		h.AddEdge(a(i), b(i), c(i), c(i+1)) // carry out (majority)
		h.AddEdge(a(i), s(i), c(i))         // consistency checks
		h.AddEdge(b(i), s(i), c(i))
		h.AddEdge(aux(i), s(i), c(i+1))
		h.AddEdge(a(i), b(i), s(i))
	}
	h.AddEdge(c(0)) // carry-in pinned by a unary constraint
	return h
}

// Bridge returns the CSP-library-style bridge_n hypergraph: a chain of n
// blocks, each introducing nine fresh vertices constrained by nine hyperedges
// and linked to the next block through two shared interface vertices, plus
// two global vertices; bridge_50 has 9·50+2 = 452 vertices and 452 edges.
func Bridge(n int) *Hypergraph {
	h := NewHypergraph(9*n + 2)
	g1 := 9 * n   // global vertex shared along the chain
	g2 := 9*n + 1 // second global vertex
	base := func(i int) int { return 9 * i }
	for i := 0; i < n; i++ {
		v := base(i)
		next := v // interface into next block (or wrap to first for the last)
		if i+1 < n {
			next = base(i + 1)
		}
		h.AddEdge(v, v+1, v+2)
		h.AddEdge(v+2, v+3, v+4)
		h.AddEdge(v+4, v+5, v+6)
		h.AddEdge(v+6, v+7, v+8)
		h.AddEdge(v+8, next)    // chain link
		h.AddEdge(v+1, v+5, g1) // bridge rails
		h.AddEdge(v+3, v+7, g2)
		h.AddEdge(v, v+4, v+8)
		h.AddEdge(v+2, v+6, next)
	}
	h.AddEdge(g1, base(0))
	h.AddEdge(g2, base(n-1))
	return h
}

// RandomCircuit returns a seeded gate-level circuit hypergraph with n signal
// vertices and m gate hyperedges: each gate's hyperedge contains one output
// signal and 1–4 input signals with strictly smaller index (a DAG), mirroring
// the structure of the ISCAS b*/c* netlist benchmarks (b06, b08…c880) whose
// original files are not redistributable. Inputs are biased toward recent
// signals so the hypergraph is locally clustered like a real netlist.
func RandomCircuit(n, m int, seed int64) *Hypergraph {
	if n < 6 {
		panic("hypergraph: RandomCircuit needs at least 6 signals")
	}
	if m < (n+4)/5 {
		panic("hypergraph: RandomCircuit needs enough gates to cover every signal")
	}
	rng := rand.New(rand.NewSource(seed))
	h := NewHypergraph(n)
	seen := make(map[string]struct{})
	covered := make([]bool, n)
	addGate := func(vs []int) bool {
		sort.Ints(vs)
		key := fmt.Sprint(vs)
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		h.AddEdge(vs...)
		for _, v := range vs {
			covered[v] = true
		}
		return true
	}
	// Phase 1: cover every signal. Each gate's output is the highest
	// uncovered signal, its inputs prefer uncovered lower signals, so the
	// sweep needs roughly n/5 gates.
	for {
		u := -1
		for v := n - 1; v >= 0; v-- {
			if !covered[v] {
				u = v
				break
			}
		}
		if u < 0 {
			break
		}
		var out int
		var inputsFrom int
		if u >= 5 {
			out = u
			inputsFrom = u
		} else {
			// Remaining uncovered signals are primary inputs: feed them into
			// a gate with an arbitrary higher output.
			out = 5 + rng.Intn(n-5)
			inputsFrom = 5
		}
		edge := map[int]struct{}{out: {}}
		const sweepFanin = 4 // wide gates keep the covering sweep short
		for v := inputsFrom - 1; v >= 0 && len(edge) < sweepFanin+1; v-- {
			if !covered[v] {
				edge[v] = struct{}{}
			}
		}
		for len(edge) < sweepFanin+1 && len(edge) < inputsFrom+1 {
			edge[rng.Intn(inputsFrom)] = struct{}{}
		}
		vs := make([]int, 0, len(edge))
		for v := range edge {
			vs = append(vs, v)
		}
		if !addGate(vs) {
			continue // duplicate; re-roll
		}
		if h.M() > m {
			panic("hypergraph: RandomCircuit covering sweep exceeded the edge budget")
		}
	}
	// Phase 2: random locally-clustered gates up to the edge budget.
	for h.M() < m {
		out := 5 + rng.Intn(n-5) // first 5 signals are primary inputs
		fanin := 1 + rng.Intn(4)
		edge := map[int]struct{}{out: {}}
		for len(edge) < fanin+1 {
			// Locality bias: half the inputs come from the 16 preceding
			// signals, the rest from anywhere below out.
			var in int
			if rng.Intn(2) == 0 && out > 16 {
				in = out - 1 - rng.Intn(16)
			} else {
				in = rng.Intn(out)
			}
			edge[in] = struct{}{}
		}
		vs := make([]int, 0, len(edge))
		for v := range edge {
			vs = append(vs, v)
		}
		addGate(vs)
	}
	return h
}

// RandomHypergraph returns a seeded hypergraph with n vertices and m edges of
// arity between minArity and maxArity, each edge a uniform random subset.
//
// test-only: the random-instance generator of the hypergraph, bounds, core,
// elim, htd and search tests.
func RandomHypergraph(n, m, minArity, maxArity int, seed int64) *Hypergraph {
	if minArity < 1 || maxArity < minArity || maxArity > n {
		panic("hypergraph: bad arity bounds")
	}
	// Guard against asking for more distinct edges than exist.
	capacity := 0
	for k := minArity; k <= maxArity; k++ {
		capacity += binomial(n, k)
		if capacity >= m {
			break
		}
	}
	if capacity < m {
		panic(fmt.Sprintf("hypergraph: RandomHypergraph(%d, %d, %d, %d): only %d distinct edges exist",
			n, m, minArity, maxArity, capacity))
	}
	rng := rand.New(rand.NewSource(seed))
	h := NewHypergraph(n)
	seen := make(map[string]struct{})
	for h.M() < m {
		k := minArity + rng.Intn(maxArity-minArity+1)
		edge := make(map[int]struct{}, k)
		for len(edge) < k {
			edge[rng.Intn(n)] = struct{}{}
		}
		vs := make([]int, 0, k)
		for v := range edge {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		key := fmt.Sprint(vs)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		h.AddEdge(vs...)
	}
	return h
}
