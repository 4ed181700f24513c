package hypergraph

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseDIMACS(t *testing.T) {
	src := `c a comment
p edge 4 3
e 1 2
e 2 3
e 1 4
`
	g, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(0, 3) {
		t.Fatal("edges wrong")
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	for name, src := range map[string]string{
		"no problem line":   "e 1 2\n",
		"empty":             "",
		"bad record":        "p edge 2 1\nx 1 2\n",
		"out of range":      "p edge 2 1\ne 1 3\n",
		"malformed edge":    "p edge 2 1\ne 1\n",
		"duplicate problem": "p edge 2 0\np edge 2 0\n",
	} {
		if _, err := ParseDIMACS(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	g := Queen(5)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed size: %v vs %v", g2, g)
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e[0], e[1]) {
			t.Fatalf("round trip lost edge %v", e)
		}
	}
}

func TestParseHG(t *testing.T) {
	src := `% the thesis Example 5 hypergraph
c1(x1,x2,x3),
c2(x1,x5,x6),
c3(x3,x4,x5).
`
	h, err := ParseHG(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 6 || h.M() != 3 {
		t.Fatalf("n=%d m=%d", h.N(), h.M())
	}
	if h.VertexName(0) != "x1" || h.EdgeName(0) != "c1" {
		t.Fatalf("names: %q %q", h.VertexName(0), h.EdgeName(0))
	}
	// x3 appears in c1 (3rd position) and c3.
	x3 := -1
	for v := 0; v < h.N(); v++ {
		if h.VertexName(v) == "x3" {
			x3 = v
		}
	}
	if x3 < 0 || len(h.IncidentEdges(x3)) != 2 {
		t.Fatalf("x3 incident edges wrong")
	}
}

func TestParseHGErrors(t *testing.T) {
	for name, src := range map[string]string{
		"missing paren": "c1 x1,x2.",
		"unterminated":  "c1(x1,x2",
		"empty var":     "c1(x1,,x2).",
	} {
		if _, err := ParseHG(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestHGRoundTrip(t *testing.T) {
	h := Adder(3)
	var buf bytes.Buffer
	if err := WriteHG(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := ParseHG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.N() != h.N() || h2.M() != h.M() {
		t.Fatalf("round trip changed size: %v vs %v", h2, h)
	}
	for e := 0; e < h.M(); e++ {
		if len(h2.Edge(e)) != len(h.Edge(e)) {
			t.Fatalf("edge %d arity changed", e)
		}
	}
}

func TestParseEdgeList(t *testing.T) {
	src := "# comment\n0 1 2\n\n2 3\n"
	h, err := ParseEdgeList(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 4 || h.M() != 2 {
		t.Fatalf("n=%d m=%d", h.N(), h.M())
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	h := Grid2D(6)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := ParseEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.N() != h.N() || h2.M() != h.M() {
		t.Fatalf("round trip changed size")
	}
}

func TestFormatEdge(t *testing.T) {
	h := NewHypergraph(3)
	h.SetVertexName(0, "a")
	h.SetVertexName(1, "b")
	e := h.AddEdge(1, 0)
	if got := FormatEdge(h, e); got != "{a, b}" {
		t.Fatalf("FormatEdge = %q", got)
	}
}
