package main

import (
	"strings"
	"testing"

	"hypertree/internal/csp"
	"hypertree/internal/hypergraph"
)

// path is the hypergraph a - b - c - d with edges e1 = {a,b}, e2 = {b,c},
// e3 = {c,d}, and pathTree a valid width-1 decomposition of it.
func path() *hypergraph.Hypergraph {
	h := hypergraph.NewHypergraph(4)
	for v, name := range []string{"a", "b", "c", "d"} {
		h.SetVertexName(v, name)
	}
	for i, e := range [][]int{{0, 1}, {1, 2}, {2, 3}} {
		h.SetEdgeName(h.AddEdge(e...), "e"+string(rune('1'+i)))
	}
	return h
}

func pathTree() *treeJSON {
	return &treeJSON{
		Bags:    [][]string{{"a", "b"}, {"b", "c"}, {"c", "d"}},
		Lambdas: [][]string{{"e1"}, {"e2"}, {"e3"}},
		Parent:  []int{-1, 0, 1},
		Root:    0,
		Width:   1,
	}
}

func TestCheckTree(t *testing.T) {
	h := path()
	if err := checkTree(h, pathTree(), 1, 1); err != nil {
		t.Fatalf("valid decomposition rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*treeJSON)
		want   string
	}{
		{"missing edge", func(tr *treeJSON) { tr.Bags[2] = []string{"c"} }, "lies in no bag"},
		{"disconnected vertex", func(tr *treeJSON) {
			tr.Bags = append(tr.Bags, []string{"a"})
			tr.Lambdas = append(tr.Lambdas, []string{"e1"})
			tr.Parent = append(tr.Parent, 2)
		}, "components"},
		{"uncovered bag", func(tr *treeJSON) { tr.Lambdas[1] = []string{"e1"} }, "does not cover"},
		{"width is not the largest λ", func(tr *treeJSON) { tr.Lambdas[0] = []string{"e1", "e2"} }, "largest λ"},
		{"parent cycle", func(tr *treeJSON) { tr.Parent = []int{-1, 2, 1} }, "does not reach the root"},
	}
	for _, c := range cases {
		tr := pathTree()
		c.mutate(tr)
		err := checkTree(h, tr, 1, 1)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
	if err := checkTree(h, pathTree(), 1, 2); err == nil {
		t.Error("lower bound above the width accepted")
	}
}

// atMostOne is the CSP over x0, x1, x2 in {0,1} with one constraint
// allowing at most one 1.
func atMostOne() *csp.CSP {
	c := csp.New(3, []int{0, 1})
	c.AddConstraint([]int{0, 1, 2}, [][]int{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	return c
}

func TestCheckAnswers(t *testing.T) {
	c := atMostOne()
	yes, one, two := true, 1, 2
	qs := []querySpec{
		{Op: "count", Assign: map[string]int{"0": 1}},
		{Op: "solve", Assign: map[string]int{"1": 1}},
		{Op: "enumerate", Assign: map[string]int{"2": 0}, Limit: 2},
	}
	counts := []int{1, 1, 3}
	good := func() []queryResult {
		return []queryResult{
			{Op: "count", Count: &one},
			{Op: "solve", Sat: &yes, Assignment: []int{0, 1, 0}},
			{Op: "enumerate", Solutions: [][]int{{0, 0, 0}, {1, 0, 0}}},
		}
	}
	if err := checkAnswers(c, qs, counts, good()); err != nil {
		t.Fatalf("correct answers rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func([]queryResult)
		want   string
	}{
		{"wrong count", func(r []queryResult) { r[0].Count = &two }, "in-process count"},
		{"assignment breaks a pin", func(r []queryResult) { r[1].Assignment = []int{1, 0, 0} }, "pinned"},
		{"assignment breaks a constraint", func(r []queryResult) { r[1].Assignment = []int{0, 1, 1} }, "violated"},
		{"repeated row", func(r []queryResult) { r[2].Solutions = [][]int{{0, 0, 0}, {0, 0, 0}} }, "repeats"},
		{"short enumeration", func(r []queryResult) { r[2].Solutions = r[2].Solutions[:1] }, "want 2"},
	}
	for _, cs := range cases {
		r := good()
		cs.mutate(r)
		err := checkAnswers(c, qs, counts, r)
		if err == nil || !strings.Contains(err.Error(), cs.want) {
			t.Errorf("%s: got %v, want an error containing %q", cs.name, err, cs.want)
		}
	}
}
