package decomp

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hypertree/internal/hypergraph"
	"hypertree/internal/setcover"
)

// The map-based checkers the linear validators replaced, kept as the
// reference they are tested against: per-vertex scans of every bag with a
// set per vertex, a covered-vertex set per node, and a per-edge scan of
// every bag.

func refTDValidate(td *TreeDecomposition, h *hypergraph.Hypergraph) error {
	if err := td.Tree.Validate(); err != nil {
		return err
	}
	if len(td.Bags) != len(td.Parent) {
		return fmt.Errorf("decomp: %d bags for %d nodes", len(td.Bags), len(td.Parent))
	}
	for i, b := range td.Bags {
		for j, v := range b {
			if v < 0 || v >= h.N() {
				return fmt.Errorf("decomp: bag %d contains invalid vertex %d", i, v)
			}
			if j > 0 && b[j-1] >= v {
				return fmt.Errorf("decomp: bag %d is not strictly sorted", i)
			}
		}
	}
	for e := 0; e < h.M(); e++ {
		edge := h.Edge(e)
		found := false
		for _, b := range td.Bags {
			if containsAll(b, edge) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("decomp: hyperedge %d (%v) not contained in any bag", e, edge)
		}
	}
	for v := 0; v < h.N(); v++ {
		var s []int
		for i, b := range td.Bags {
			if containsSorted(b, v) {
				s = append(s, i)
			}
		}
		if len(s) == 0 {
			continue
		}
		inS := make(map[int]struct{}, len(s))
		for _, i := range s {
			inS[i] = struct{}{}
		}
		withParent := 0
		for _, i := range s {
			if p := td.Parent[i]; p >= 0 {
				if _, ok := inS[p]; ok {
					withParent++
				}
			}
		}
		if withParent != len(s)-1 {
			return fmt.Errorf("decomp: vertex %d violates connectedness (nodes %v)", v, s)
		}
	}
	return nil
}

func refGHDValidate(g *GHD, h *hypergraph.Hypergraph) error {
	if err := refTDValidate(&g.TreeDecomposition, h); err != nil {
		return err
	}
	if len(g.Lambdas) != len(g.Bags) {
		return fmt.Errorf("decomp: %d lambda sets for %d nodes", len(g.Lambdas), len(g.Bags))
	}
	for i, l := range g.Lambdas {
		covered := make(map[int]struct{})
		for _, e := range l {
			if e < 0 || e >= h.M() {
				return fmt.Errorf("decomp: node %d references invalid hyperedge %d", i, e)
			}
			for _, v := range h.Edge(e) {
				covered[v] = struct{}{}
			}
		}
		for _, v := range g.Bags[i] {
			if _, ok := covered[v]; !ok {
				return fmt.Errorf("decomp: node %d: vertex %d in χ not covered by λ", i, v)
			}
		}
	}
	return nil
}

func refIsComplete(g *GHD, h *hypergraph.Hypergraph) bool {
	for e := 0; e < h.M(); e++ {
		edge := h.Edge(e)
		found := false
		for i := range g.Bags {
			if !containsAll(g.Bags[i], edge) {
				continue
			}
			for _, le := range g.Lambdas[i] {
				if le == e {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// randomHypergraph returns a hypergraph on n vertices whose random edges
// (2–4 vertices) are followed by a unary edge per vertex no edge reached,
// so every bag is coverable.
func randomHypergraph(rng *rand.Rand, n, m int) *hypergraph.Hypergraph {
	h := hypergraph.NewHypergraph(n)
	seen := make([]bool, n)
	for e := 0; e < m; e++ {
		k := 2 + rng.Intn(3)
		vs := rng.Perm(n)[:k]
		h.AddEdge(vs...)
		for _, v := range vs {
			seen[v] = true
		}
	}
	for v, ok := range seen {
		if !ok {
			h.AddEdge(v)
		}
	}
	return h
}

// primal returns h's primal graph as an n×n adjacency matrix.
func primal(h *hypergraph.Hypergraph) []bool {
	n := h.N()
	adj := make([]bool, n*n)
	for e := 0; e < h.M(); e++ {
		edge := h.Edge(e)
		for _, a := range edge {
			for _, b := range edge {
				if a != b {
					adj[a*n+b] = true
				}
			}
		}
	}
	return adj
}

// minFillOrder is the min-fill elimination ordering of h, lowest index
// breaking ties.
func minFillOrder(h *hypergraph.Hypergraph) []int {
	n := h.N()
	adj := primal(h)
	done := make([]bool, n)
	order := make([]int, 0, n)
	live := func(v int) []int {
		var ns []int
		for u := 0; u < n; u++ {
			if !done[u] && u != v && adj[v*n+u] {
				ns = append(ns, u)
			}
		}
		return ns
	}
	for len(order) < n {
		best, bestFill := -1, 0
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			ns, fill := live(v), 0
			for i, a := range ns {
				for _, b := range ns[i+1:] {
					if !adj[a*n+b] {
						fill++
					}
				}
			}
			if best < 0 || fill < bestFill {
				best, bestFill = v, fill
			}
		}
		ns := live(best)
		for _, a := range ns {
			for _, b := range ns {
				if a != b {
					adj[a*n+b] = true
				}
			}
		}
		done[best] = true
		order = append(order, best)
	}
	return order
}

// eliminationTD is the vertex-elimination tree decomposition of order
// (thesis Figure 2.12), built on a plain adjacency matrix: node i is the
// i-th eliminated vertex with its live neighbours, its parent the
// earliest-eliminated of those neighbours, and neighbourless nodes chain to
// the next node.
func eliminationTD(h *hypergraph.Hypergraph, order []int) *TreeDecomposition {
	n := h.N()
	adj := primal(h)
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	done := make([]bool, n)
	td := &TreeDecomposition{Tree: Tree{Parent: make([]int, n), Root: n - 1}, Bags: make([][]int, n)}
	for i, v := range order {
		var ns []int
		for u := 0; u < n; u++ {
			if !done[u] && u != v && adj[v*n+u] {
				ns = append(ns, u)
			}
		}
		for _, a := range ns {
			for _, b := range ns {
				if a != b {
					adj[a*n+b] = true
				}
			}
		}
		done[v] = true
		bag := append(slices.Clone(ns), v)
		slices.Sort(bag)
		td.Bags[i] = bag
		parent := -1
		for _, u := range ns {
			if parent < 0 || pos[u] < parent {
				parent = pos[u]
			}
		}
		if parent < 0 && i+1 < n {
			parent = i + 1
		}
		td.Parent[i] = parent
	}
	return td
}

// cloneGHD deep-copies g, so a corruption leaves the original intact.
func cloneGHD(g *GHD) *GHD {
	c := &GHD{
		TreeDecomposition: TreeDecomposition{
			Tree: Tree{Parent: slices.Clone(g.Parent), Root: g.Root},
			Bags: make([][]int, len(g.Bags)),
		},
		Lambdas: make([][]int, len(g.Lambdas)),
	}
	for i := range g.Bags {
		c.Bags[i] = slices.Clone(g.Bags[i])
	}
	for i := range g.Lambdas {
		c.Lambdas[i] = slices.Clone(g.Lambdas[i])
	}
	return c
}

// corruptions each take a valid GHD of h and return a possibly invalid
// variant (some leave it valid, e.g. dropping a vertex another bag
// duplicates); the hypergraph may change too.
var corruptions = map[string]func(rng *rand.Rand, g *GHD, h *hypergraph.Hypergraph) (*GHD, *hypergraph.Hypergraph){
	"vertex dropped from a bag": func(rng *rand.Rand, g *GHD, h *hypergraph.Hypergraph) (*GHD, *hypergraph.Hypergraph) {
		i := rng.Intn(len(g.Bags))
		if b := g.Bags[i]; len(b) > 0 {
			k := rng.Intn(len(b))
			g.Bags[i] = slices.Delete(b, k, k+1)
		}
		return g, h
	},
	"broken vertex subtree": func(rng *rand.Rand, g *GHD, h *hypergraph.Hypergraph) (*GHD, *hypergraph.Hypergraph) {
		v := rng.Intn(h.N())
		i := rng.Intn(len(g.Bags))
		if j, found := slices.BinarySearch(g.Bags[i], v); !found {
			g.Bags[i] = slices.Insert(g.Bags[i], j, v)
		}
		return g, h
	},
	"edge in no bag": func(rng *rand.Rand, g *GHD, h *hypergraph.Hypergraph) (*GHD, *hypergraph.Hypergraph) {
		h2 := hypergraph.NewHypergraph(h.N())
		for e := 0; e < h.M(); e++ {
			h2.AddEdge(h.Edge(e)...)
		}
		h2.AddEdge(rng.Perm(h.N())[:2+rng.Intn(3)]...)
		return g, h2
	},
	"λ misses a bag vertex": func(rng *rand.Rand, g *GHD, h *hypergraph.Hypergraph) (*GHD, *hypergraph.Hypergraph) {
		i := rng.Intn(len(g.Lambdas))
		if l := g.Lambdas[i]; len(l) > 0 {
			k := rng.Intn(len(l))
			g.Lambdas[i] = slices.Delete(l, k, k+1)
		}
		return g, h
	},
	"out-of-range λ edge": func(rng *rand.Rand, g *GHD, h *hypergraph.Hypergraph) (*GHD, *hypergraph.Hypergraph) {
		i := rng.Intn(len(g.Lambdas))
		bad := h.M() + rng.Intn(3)
		if rng.Intn(2) == 0 {
			bad = -1 - rng.Intn(3)
		}
		g.Lambdas[i] = append(g.Lambdas[i], bad)
		return g, h
	},
	"parent cycle": func(rng *rand.Rand, g *GHD, h *hypergraph.Hypergraph) (*GHD, *hypergraph.Hypergraph) {
		// Hang a non-root node below one of its own descendants (or itself).
		x := rng.Intn(len(g.Parent))
		if x == g.Root {
			return g, h
		}
		var desc []int
		for y := range g.Parent {
			for a := y; a >= 0; a = g.Parent[a] {
				if a == x {
					desc = append(desc, y)
					break
				}
			}
		}
		g.Parent[x] = desc[rng.Intn(len(desc))]
		return g, h
	},
}

// Property: on random valid GHDs and on every corruption of them, the
// linear validators give the reference's verdict, and IsComplete agrees
// with the reference wherever the GHD is valid.
func TestValidateMatchesReferenceProperty(t *testing.T) {
	names := make([]string, 0, len(corruptions))
	for name := range corruptions {
		names = append(names, name)
	}
	slices.Sort(names)
	invalid := make(map[string]int)
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 4+rng.Intn(12), 2+rng.Intn(14))
		g, err := FromTreeDecompositionWithEngine(setcover.NewEngine(h, 0), eliminationTD(h, rng.Perm(h.N())), CoverGreedy, rng)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			g.Complete(h)
		}
		check := func(label string, g *GHD, h *hypergraph.Hypergraph) bool {
			t.Helper()
			wantTD, gotTD := refTDValidate(&g.TreeDecomposition, h), g.TreeDecomposition.Validate(h)
			if (wantTD == nil) != (gotTD == nil) {
				t.Fatalf("seed %d, %s: TD verdict %v, reference %v", seed, label, gotTD, wantTD)
			}
			want, got := refGHDValidate(g, h), g.Validate(h)
			if (want == nil) != (got == nil) {
				t.Fatalf("seed %d, %s: GHD verdict %v, reference %v", seed, label, got, want)
			}
			if got == nil && g.IsComplete(h) != refIsComplete(g, h) {
				t.Fatalf("seed %d, %s: IsComplete %v, reference %v", seed, label, g.IsComplete(h), refIsComplete(g, h))
			}
			return got == nil
		}
		if !check("valid", g, h) {
			t.Fatalf("seed %d: the valid GHD was rejected", seed)
		}
		for _, name := range names {
			cg, ch := corruptions[name](rng, cloneGHD(g), h)
			if !check(name, cg, ch) {
				invalid[name]++
			}
		}
	}
	// Each corruption must actually produce invalid inputs, or the property
	// above compares only valid ones.
	for _, name := range names {
		if invalid[name] == 0 {
			t.Errorf("corruption %q never produced an invalid GHD", name)
		}
	}
}

// A GHD built on a tree decomposition shares its tree and bags; Complete
// appends nodes to the GHD and must leave the tree decomposition as it was.
func TestFromTreeDecompositionSharesAndCompleteLeavesTD(t *testing.T) {
	h := example5()
	h.AddEdge(0, 4, 5) // a duplicate edge no λ-set names: Complete adds a node
	td := example5TD()
	want := &TreeDecomposition{Tree: Tree{Parent: slices.Clone(td.Parent), Root: td.Root}}
	for _, b := range td.Bags {
		want.Bags = append(want.Bags, slices.Clone(b))
	}
	g, err := FromTreeDecompositionWithEngine(setcover.NewEngine(h, 0), td, CoverGreedy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &g.Bags[0][0] != &td.Bags[0][0] || &g.Parent[0] != &td.Parent[0] {
		t.Fatal("the GHD copied the tree decomposition's tree or bags")
	}
	g.Complete(h)
	if len(g.Bags) == len(td.Bags) {
		t.Fatal("Complete added no node; the test needs one")
	}
	if !reflect.DeepEqual(td, want) {
		t.Fatalf("Complete changed the tree decomposition: %+v, want %+v", td, want)
	}
	if err := g.Validate(h); err != nil || !g.IsComplete(h) {
		t.Fatalf("completed GHD: valid %v, complete %v", err, g.IsComplete(h))
	}
}

// BenchmarkValidate checks the greedy GHD of a 60-signal circuit's min-fill
// ordering, the shape the portfolio's exit hands off on the serving
// benchmark's decompose requests: one GHD.Validate, which covers its tree
// decomposition too.
func BenchmarkValidate(b *testing.B) {
	h := hypergraph.RandomCircuit(60, 62, 1)
	g, err := FromTreeDecompositionWithEngine(setcover.NewEngine(h, 0), eliminationTD(h, minFillOrder(h)), CoverGreedy, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := g.Validate(h); err != nil {
			b.Fatal(err)
		}
	}
}
