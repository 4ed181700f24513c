package decomp

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hypertree/internal/hypergraph"
)

// subset reports whether a ⊆ b, with a map per call: the reference side of
// the Compact tests.
func subset(a, b []int) bool {
	in := make(map[int]bool, len(b))
	for _, v := range b {
		in[v] = true
	}
	for _, v := range a {
		if !in[v] {
			return false
		}
	}
	return true
}

// refMaximalBags is what Compact must keep, by a quadratic scan: td's
// distinct bags that no other bag strictly contains, sorted. Running
// intersection puts a bag inside some other bag exactly when it lies inside
// a neighbour's, so a tree without nested edges has pairwise incomparable
// bags, and those are the maximal ones.
func refMaximalBags(td *TreeDecomposition) [][]int {
	var out [][]int
	for i, b := range td.Bags {
		maximal := true
		for j, c := range td.Bags {
			if i != j && subset(b, c) && (len(c) > len(b) || j < i) {
				maximal = false // strictly inside c, or a later copy of it
				break
			}
		}
		if maximal {
			out = append(out, b)
		}
	}
	slices.SortFunc(out, slices.Compare)
	return out
}

// relabel returns td with its nodes renumbered by a random permutation, so
// the root and the parents fall anywhere in index order.
func relabel(rng *rand.Rand, td *TreeDecomposition) *TreeDecomposition {
	perm := rng.Perm(len(td.Parent))
	out := &TreeDecomposition{
		Tree: Tree{Parent: make([]int, len(perm)), Root: perm[td.Root]},
		Bags: make([][]int, len(perm)),
	}
	for i, p := range td.Parent {
		out.Parent[perm[i]] = -1
		if p >= 0 {
			out.Parent[perm[i]] = perm[p]
		}
		out.Bags[perm[i]] = td.Bags[i]
	}
	return out
}

// randomSubset returns a sorted random subset of bag, sometimes all of it.
func randomSubset(rng *rand.Rand, bag []int) []int {
	var s []int
	all := rng.Intn(3) == 0
	for _, v := range bag {
		if all || rng.Intn(2) == 0 {
			s = append(s, v)
		}
	}
	return s
}

// injectNested adds nodes to a valid td that keep it valid and nest: a leaf
// below a node holding a subset of its bag (all of it: a duplicate), a node
// subdividing a tree edge holding the edge's intersection or a copy of
// either end's bag, and a new root holding a subset of the old root's bag.
func injectNested(rng *rand.Rand, td *TreeDecomposition) *TreeDecomposition {
	out := &TreeDecomposition{
		Tree: Tree{Parent: slices.Clone(td.Parent), Root: td.Root},
		Bags: slices.Clone(td.Bags),
	}
	add := func(parent int, bag []int) int {
		out.Parent = append(out.Parent, parent)
		out.Bags = append(out.Bags, bag)
		return len(out.Bags) - 1
	}
	for k := 1 + rng.Intn(5); k > 0; k-- {
		i := rng.Intn(len(out.Bags))
		switch p := out.Parent[i]; {
		case rng.Intn(3) == 0:
			add(i, randomSubset(rng, out.Bags[i]))
		case p >= 0:
			var bag []int
			switch rng.Intn(3) {
			case 0:
				for _, v := range out.Bags[i] {
					if containsSorted(out.Bags[p], v) {
						bag = append(bag, v)
					}
				}
			case 1:
				bag = slices.Clone(out.Bags[i])
			default:
				bag = slices.Clone(out.Bags[p])
			}
			out.Parent[i] = add(p, bag)
		default:
			r := add(-1, randomSubset(rng, out.Bags[i]))
			out.Parent[i] = r
			out.Root = r
		}
	}
	return out
}

// checkCompact asserts Compact's contract on a valid td of h against the
// map-based reference.
func checkCompact(t *testing.T, label string, td *TreeDecomposition, h *hypergraph.Hypergraph) *TreeDecomposition {
	t.Helper()
	if err := refTDValidate(td, h); err != nil {
		t.Fatalf("%s: the input is invalid: %v", label, err)
	}
	before := &TreeDecomposition{Tree: Tree{Parent: slices.Clone(td.Parent), Root: td.Root}, Bags: slices.Clone(td.Bags)}
	out := td.Compact()
	if !reflect.DeepEqual(td, before) {
		t.Fatalf("%s: Compact changed its input", label)
	}
	if err := refTDValidate(out, h); err != nil {
		t.Fatalf("%s: the compacted decomposition is invalid: %v", label, err)
	}
	if out.Width() != td.Width() {
		t.Fatalf("%s: width %d, input width %d", label, out.Width(), td.Width())
	}
	for i, b := range td.Bags {
		inside := false
		for _, c := range out.Bags {
			if subset(b, c) {
				inside = true
				break
			}
		}
		if !inside {
			t.Fatalf("%s: input bag %d %v lies inside no output bag", label, i, b)
		}
	}
	for i, p := range out.Parent {
		if p >= 0 && (subset(out.Bags[i], out.Bags[p]) || subset(out.Bags[p], out.Bags[i])) {
			t.Fatalf("%s: tree edge %d–%d joins nested bags %v and %v", label, i, p, out.Bags[i], out.Bags[p])
		}
	}
	got := slices.Clone(out.Bags)
	slices.SortFunc(got, slices.Compare)
	if want := refMaximalBags(td); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: kept bags %v, want the maximal bags %v", label, got, want)
	}
	shared := make(map[*int]bool, len(td.Bags))
	for _, b := range td.Bags {
		if len(b) > 0 {
			shared[&b[0]] = true
		}
	}
	for i, b := range out.Bags {
		if len(b) > 0 && !shared[&b[0]] {
			t.Fatalf("%s: output bag %d is a copy, not one of the input's slices", label, i)
		}
	}
	if again := out.Compact(); !reflect.DeepEqual(again, out) {
		t.Fatalf("%s: Compact is not idempotent", label)
	}
	if twice := td.Compact(); !reflect.DeepEqual(twice, out) {
		t.Fatalf("%s: Compact is not deterministic", label)
	}
	return out
}

// Property: on elimination decompositions of random orderings, and on
// valid decompositions with nested and duplicate bags injected and nodes
// renumbered, Compact keeps exactly the maximal bags on a valid tree of the
// same width with no nested tree edge, sharing the input's bag slices.
// On elimination decompositions a bag never lies inside its parent's, and
// a parent's lies inside its child's exactly when it is one vertex smaller.
func TestCompactProperty(t *testing.T) {
	contracted := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 4+rng.Intn(12), 1+rng.Intn(14))
		td := eliminationTD(h, rng.Perm(h.N()))
		for i, p := range td.Parent {
			if p < 0 {
				continue
			}
			if subset(td.Bags[i], td.Bags[p]) {
				t.Fatalf("seed %d: elimination bag %v lies inside its parent's %v", seed, td.Bags[i], td.Bags[p])
			}
			if subset(td.Bags[p], td.Bags[i]) != (len(td.Bags[p]) == len(td.Bags[i])-1) {
				t.Fatalf("seed %d: parent bag %v, child bag %v", seed, td.Bags[p], td.Bags[i])
			}
		}
		if out := checkCompact(t, "elimination", td, h); len(out.Bags) < len(td.Bags) {
			contracted++
		}
		checkCompact(t, "elimination, renumbered", relabel(rng, td), h)
		checkCompact(t, "injected", relabel(rng, injectNested(rng, td)), h)
	}
	if contracted == 0 {
		t.Fatal("no elimination decomposition had a nested edge; the property checked nothing")
	}
}

// Compact on thesis Example 5's elimination decomposition of the ordering
// x2, x4, x6, x3, x1, x5: the chain {x5} ⊂ {x1,x5} ⊂ {x1,x5,x6} at the top
// becomes the one node {x1,x5,x6}, which takes the root's place, and
// {x1,x3,x5} hangs below it.
func TestCompactExample5Chain(t *testing.T) {
	h := example5()
	td := eliminationTD(h, []int{1, 3, 5, 2, 0, 4})
	want := &TreeDecomposition{
		Tree: Tree{Parent: []int{3, 3, -1, 2}, Root: 2},
		Bags: [][]int{{0, 1, 2}, {2, 3, 4}, {0, 4, 5}, {0, 2, 4}},
	}
	if got := td.Compact(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Compact = %+v, want %+v (input %+v)", got, want, td)
	}
}
