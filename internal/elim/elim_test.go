package elim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hypertree/internal/decomp"
	"hypertree/internal/elimgraph"
	"hypertree/internal/hypergraph"
)

func example5() *hypergraph.Hypergraph {
	h := hypergraph.NewHypergraph(6)
	h.AddEdge(0, 1, 2)
	h.AddEdge(0, 4, 5)
	h.AddEdge(2, 3, 4)
	return h
}

func TestValidateOrdering(t *testing.T) {
	if err := Validate([]int{0, 1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	for name, order := range map[string][]int{
		"short":    {0, 1},
		"repeat":   {0, 1, 1},
		"range":    {0, 1, 5},
		"negative": {0, -1, 2},
	} {
		if err := Validate(order, 3); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWidthOnKnownGraphs(t *testing.T) {
	// Eliminating a path graph in end-to-end order gives width 1.
	path := hypergraph.NewGraph(5)
	for i := 0; i < 4; i++ {
		path.AddEdge(i, i+1)
	}
	if w := WidthOfGraph(path, []int{0, 1, 2, 3, 4}); w != 1 {
		t.Fatalf("path width = %d, want 1", w)
	}
	// A bad ordering on the path (middle first) gives width 2.
	if w := WidthOfGraph(path, []int{2, 0, 1, 3, 4}); w != 2 {
		t.Fatalf("path bad order width = %d, want 2", w)
	}
	// Any ordering of K4 gives width 3.
	if w := WidthOfGraph(hypergraph.CliqueGraph(4), []int{2, 0, 3, 1}); w != 3 {
		t.Fatalf("K4 width = %d, want 3", w)
	}
}

func TestTDFromOrderingExample5(t *testing.T) {
	h := example5()
	// Eliminate x6,x5,x4,x3,x2,x1 -> thesis σ = (x1,...,x6) reversed; the
	// thesis's Figure 2.11 discussion uses this ordering shape.
	order := []int{5, 4, 3, 2, 1, 0}
	td := TDFromOrdering(h, order)
	if err := td.Validate(h); err != nil {
		t.Fatal(err)
	}
	be := BucketElimination(h, order)
	if err := be.Validate(h); err != nil {
		t.Fatal(err)
	}
	if td.Width() != be.Width() {
		t.Fatalf("vertex elim width %d != bucket elim width %d", td.Width(), be.Width())
	}
}

func TestGHDFromOrderingExample5(t *testing.T) {
	h := example5()
	g, err := GHDFromOrdering(h, []int{5, 4, 3, 2, 1, 0}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(h); err != nil {
		t.Fatal(err)
	}
	if g.Width() > 2 {
		t.Fatalf("ghd width = %d, want <= 2", g.Width())
	}
}

func TestGHWEvaluatorMatchesGHD(t *testing.T) {
	h := example5()
	ev := NewGHWEvaluator(h, true, nil)
	order := []int{5, 4, 3, 2, 1, 0}
	w := ev.Width(order)
	g, err := GHDFromOrdering(h, order, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w != g.Width() {
		t.Fatalf("evaluator width %d != GHD width %d", w, g.Width())
	}
}

func TestGHWEvaluatorUncoverable(t *testing.T) {
	h := hypergraph.NewHypergraph(3)
	h.AddEdge(0, 1) // vertex 2 uncovered
	ev := NewGHWEvaluator(h, false, nil)
	if w := ev.Width([]int{2, 1, 0}); w != -1 {
		t.Fatalf("width = %d, want -1", w)
	}
}

func TestMinFillOrderingOnChordal(t *testing.T) {
	// On a tree (chordal, tw=1), min-fill must find width 1.
	tree := hypergraph.NewGraph(7)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}} {
		tree.AddEdge(e[0], e[1])
	}
	order := MinFillOrdering(tree, nil)
	if w := WidthOfGraph(tree, order); w != 1 {
		t.Fatalf("min-fill width on tree = %d, want 1", w)
	}
	// On K5, any ordering gives 4.
	k5 := hypergraph.CliqueGraph(5)
	if w := WidthOfGraph(k5, MinFillOrdering(k5, nil)); w != 4 {
		t.Fatalf("min-fill width on K5 = %d, want 4", w)
	}
}

func TestMinDegreeOrderingValid(t *testing.T) {
	g := hypergraph.Queen(4)
	order := greedyOrdering(elimgraph.New(g), rand.New(rand.NewSource(1)), nil, func(e *elimgraph.ElimGraph, v int) int {
		return e.Degree(v)
	})
	if err := Validate(order, g.N()); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustiveTreewidthKnown(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *hypergraph.Graph
		want int
	}{
		{"K4", hypergraph.CliqueGraph(4), 3},
		{"C4=grid2", hypergraph.Grid(2), 2},
		{"grid3", hypergraph.Grid(3), 3},
		{"edge", hypergraph.RandomGraph(2, 1, 1), 1},
	} {
		if got := ExhaustiveTreewidth(tc.g); got != tc.want {
			t.Errorf("%s: treewidth = %d, want %d", tc.name, got, tc.want)
		}
	}
	// C5 has treewidth 2.
	c5 := hypergraph.NewGraph(5)
	for i := 0; i < 5; i++ {
		c5.AddEdge(i, (i+1)%5)
	}
	if got := ExhaustiveTreewidth(c5); got != 2 {
		t.Errorf("C5 treewidth = %d, want 2", got)
	}
}

func TestExhaustiveGHWKnown(t *testing.T) {
	// Acyclic hypergraph: ghw = 1.
	h := hypergraph.NewHypergraph(4)
	h.AddEdge(0, 1, 2)
	h.AddEdge(2, 3)
	if got := ExhaustiveGHW(h); got != 1 {
		t.Errorf("acyclic ghw = %d, want 1", got)
	}
	// Triangle (cyclic): ghw = 2.
	tri := hypergraph.NewHypergraph(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	if got := ExhaustiveGHW(tri); got != 2 {
		t.Errorf("triangle ghw = %d, want 2", got)
	}
	// Example 5: the thesis exhibits a width-2 GHD and the hypergraph is
	// cyclic, so ghw = 2.
	if got := ExhaustiveGHW(example5()); got != 2 {
		t.Errorf("example 5 ghw = %d, want 2", got)
	}
}

// Property (thesis §2.5.3): bucket elimination and vertex elimination
// produce identical bags for every (hypergraph, ordering) pair.
func TestBucketEqualsVertexEliminationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(7)
		m := 2 + rng.Intn(8)
		h := hypergraph.RandomHypergraph(n, m, 1, minInt(4, n), seed)
		order := rng.Perm(n)
		a := TDFromOrdering(h, order)
		b := BucketElimination(h, order)
		if len(a.Bags) != len(b.Bags) {
			return false
		}
		for i := range a.Bags {
			if len(a.Bags[i]) != len(b.Bags[i]) {
				return false
			}
			for j := range a.Bags[i] {
				if a.Bags[i][j] != b.Bags[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: the TD built from any ordering is valid, and its width equals
// the fast Width evaluator's result.
func TestTDFromOrderingValidAndWidthAgreesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(7)
		m := 2 + rng.Intn(8)
		h := hypergraph.RandomHypergraph(n, m, 1, minInt(4, n), seed)
		order := rng.Perm(n)
		td := TDFromOrdering(h, order)
		if td.Validate(h) != nil {
			return false
		}
		return td.Width() == Width(elimgraph.FromHypergraph(h), order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: GHDs built from orderings validate, and the exact-cover GHD is
// never wider than the greedy one.
func TestGHDFromOrderingValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(6)
		m := 3 + rng.Intn(8)
		h := coveringHypergraph(n, m, seed)
		order := rng.Perm(n)
		exact, err := GHDFromOrdering(h, order, true, nil)
		if err != nil || exact.Validate(h) != nil {
			return false
		}
		greedy, err := GHDFromOrdering(h, order, false, rng)
		if err != nil || greedy.Validate(h) != nil {
			return false
		}
		return exact.Width() <= greedy.Width()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property (thesis Theorem 2 pipeline): extract an ordering from any
// ordering-induced decomposition via leaf normal form + dca; the re-induced
// decomposition is never wider, both for treewidth and for ghw with exact
// covers.
func TestTheorem2Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(6)
		m := 3 + rng.Intn(8)
		h := coveringHypergraph(n, m, seed)
		order := rng.Perm(n)
		td := TDFromOrdering(h, order)
		order2 := decomp.OrderingFromDecomposition(h, td)
		if Validate(order2, n) != nil {
			return false
		}
		td2 := TDFromOrdering(h, order2)
		if td2.Width() > td.Width() {
			return false
		}
		ev := NewGHWEvaluator(h, true, nil)
		g1, err := GHDFromOrdering(h, order, true, nil)
		if err != nil {
			return false
		}
		return ev.Width(order2) <= g1.Width()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property (thesis Theorem 3, small scale): the minimum over all orderings
// with exact covers equals the exhaustive ghw by definition, and is bounded
// below by 1 and above by exhaustive treewidth + 1.
func TestGHWBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4) // 3..6: exhaustive search stays fast
		h := coveringHypergraph(n, n+1, seed)
		ghw := ExhaustiveGHW(h)
		tw := ExhaustiveTreewidth(h.PrimalGraph())
		return ghw >= 1 && ghw <= tw+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// coveringHypergraph returns a random hypergraph in which every vertex is
// covered (adds singleton edges for any uncovered vertex).
func coveringHypergraph(n, m int, seed int64) *hypergraph.Hypergraph {
	h := hypergraph.RandomHypergraph(n, m, 1, minInt(4, n), seed)
	covered := make([]bool, n)
	for _, e := range h.Edges() {
		for _, v := range e {
			covered[v] = true
		}
	}
	for v, c := range covered {
		if !c {
			h.AddEdge(v)
		}
	}
	return h
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BucketElimination builds the same tree decomposition as TDFromOrdering
// using the thesis's bucket formulation (Figure 2.10): each hyperedge is
// placed in the bucket of its first-eliminated vertex; processing buckets in
// elimination order, the bucket's content minus the processed vertex is
// forwarded to the bucket of its first-eliminated member. The tests check
// TDFromOrdering, the faster equivalent, against it.
func BucketElimination(h *hypergraph.Hypergraph, order []int) *decomp.TreeDecomposition {
	if err := Validate(order, h.N()); err != nil {
		panic(err)
	}
	n := h.N()
	if n == 0 {
		panic("elim: empty hypergraph")
	}
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	buckets := make([]map[int]struct{}, n) // indexed by position
	for i := range buckets {
		buckets[i] = map[int]struct{}{order[i]: {}}
	}
	for _, edge := range h.Edges() {
		// First-eliminated vertex of the edge owns it.
		min := pos[edge[0]]
		for _, v := range edge[1:] {
			if pos[v] < min {
				min = pos[v]
			}
		}
		for _, v := range edge {
			buckets[min][v] = struct{}{}
		}
	}
	parent := make([]int, n)
	for i := 0; i < n; i++ {
		v := order[i]
		// A = bucket minus v; forward to the first-eliminated member of A.
		next := -1
		for u := range buckets[i] {
			if u == v {
				continue
			}
			if next < 0 || pos[u] < next {
				next = pos[u]
			}
		}
		if next >= 0 {
			for u := range buckets[i] {
				if u != v {
					buckets[next][u] = struct{}{}
				}
			}
			parent[i] = next
		} else if i+1 < n {
			parent[i] = i + 1
		} else {
			parent[i] = -1
		}
	}
	bags := make([][]int, n)
	for i := range bags {
		bag := make([]int, 0, len(buckets[i]))
		for v := range buckets[i] {
			bag = append(bag, v)
		}
		sort.Ints(bag)
		bags[i] = bag
	}
	return &decomp.TreeDecomposition{
		Tree: decomp.Tree{Parent: parent, Root: n - 1},
		Bags: bags,
	}
}

// BenchmarkTDFromOrdering builds the tree decomposition of a 60-signal
// circuit's min-fill ordering, the hand-off a portfolio winner's exit makes
// on the serving benchmark's decompose requests.
func BenchmarkTDFromOrdering(b *testing.B) {
	h := hypergraph.RandomCircuit(60, 62, 1)
	order := MinFillOrdering(h.PrimalGraph(), rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tdSink = TDFromOrdering(h, order)
	}
}

// tdSink keeps BenchmarkTDFromOrdering's result live.
var tdSink *decomp.TreeDecomposition
