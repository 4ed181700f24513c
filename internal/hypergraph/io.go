package hypergraph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// maxParseVertices caps the vertex count a parser will allocate for. Header
// counts are attacker-controlled in fuzzing (and typo-prone in practice): a
// declared "p edge 1152921504606846976 0" must fail with an error, not take
// the process down trying to allocate adjacency structures for it.
const maxParseVertices = 1 << 22

// ParseDIMACS reads a graph in DIMACS graph-coloring format:
//
//	c comment
//	p edge <n> <m>
//	e <u> <v>        (1-based vertex indices)
//
// The declared edge count is advisory; the actual edges read are returned.
//
// The input is capped at MaxParseBytes; larger payloads fail with a
// *PayloadTooLargeError.
func ParseDIMACS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(LimitReader(r, MaxParseBytes))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "c":
			// comment
		case "p":
			if g != nil {
				return nil, fmt.Errorf("dimacs line %d: duplicate problem line", line)
			}
			if len(fields) < 4 {
				return nil, fmt.Errorf("dimacs line %d: malformed problem line", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("dimacs line %d: bad vertex count %q", line, fields[2])
			}
			if n > maxParseVertices {
				return nil, fmt.Errorf("dimacs line %d: vertex count %d exceeds limit %d", line, n, maxParseVertices)
			}
			g = NewGraph(n)
		case "e":
			if g == nil {
				return nil, fmt.Errorf("dimacs line %d: edge before problem line", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("dimacs line %d: malformed edge", line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("dimacs line %d: bad edge endpoints", line)
			}
			if u < 1 || u > g.N() || v < 1 || v > g.N() {
				return nil, fmt.Errorf("dimacs line %d: endpoint out of range", line)
			}
			g.AddEdge(u-1, v-1)
		default:
			return nil, fmt.Errorf("dimacs line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("dimacs: missing problem line")
	}
	return g, nil
}

// WriteDIMACS writes g in DIMACS graph-coloring format.
func WriteDIMACS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p edge %d %d\n", g.N(), g.M())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "e %d %d\n", e[0]+1, e[1]+1)
	}
	return bw.Flush()
}

// ParseHG reads a hypergraph in the detkdecomp/hypertree-library text format:
// a sequence of atoms "name(v1,v2,...)" separated by commas, with '%'
// line comments; vertex identifiers are arbitrary tokens. Example:
//
//	% two constraints
//	c1(x1,x2,x3),
//	c2(x3,x4).
//
// A trailing '.' or ',' after the final atom is accepted.
//
// The input is capped at MaxParseBytes; larger payloads fail with a
// *PayloadTooLargeError.
func ParseHG(r io.Reader) (*Hypergraph, error) {
	data, err := io.ReadAll(LimitReader(r, MaxParseBytes))
	if err != nil {
		return nil, err
	}
	// Strip % comments.
	var sb strings.Builder
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '%'); i >= 0 {
			line = line[:i]
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	text := sb.String()

	type atom struct {
		name string
		vars []string
	}
	var atoms []atom
	i := 0
	n := len(text)
	skipSpace := func() {
		for i < n && (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' || text[i] == '\r') {
			i++
		}
	}
	readToken := func() string {
		start := i
		for i < n {
			c := text[i]
			if c == '(' || c == ')' || c == ',' || c == '.' || c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				break
			}
			i++
		}
		return text[start:i]
	}
	for {
		skipSpace()
		if i >= n {
			break
		}
		if text[i] == '.' || text[i] == ',' {
			i++
			continue
		}
		name := readToken()
		if name == "" {
			return nil, fmt.Errorf("hg: unexpected character %q at offset %d", text[i], i)
		}
		skipSpace()
		if i >= n || text[i] != '(' {
			return nil, fmt.Errorf("hg: expected '(' after atom %q", name)
		}
		i++ // consume '('
		var vars []string
		for {
			skipSpace()
			tok := readToken()
			if tok == "" {
				return nil, fmt.Errorf("hg: empty variable in atom %q", name)
			}
			vars = append(vars, tok)
			skipSpace()
			if i >= n {
				return nil, fmt.Errorf("hg: unterminated atom %q", name)
			}
			if text[i] == ',' {
				i++
				continue
			}
			if text[i] == ')' {
				i++
				break
			}
			return nil, fmt.Errorf("hg: unexpected character %q in atom %q", text[i], name)
		}
		atoms = append(atoms, atom{name, vars})
	}

	// Assign dense vertex ids in first-appearance order.
	id := make(map[string]int)
	var names []string
	for _, a := range atoms {
		for _, v := range a.vars {
			if _, ok := id[v]; !ok {
				id[v] = len(names)
				names = append(names, v)
			}
		}
	}
	h := NewHypergraph(len(names))
	for v, name := range names {
		h.SetVertexName(v, name)
	}
	for _, a := range atoms {
		vs := make([]int, len(a.vars))
		for j, v := range a.vars {
			vs[j] = id[v]
		}
		e := h.AddEdge(vs...)
		h.SetEdgeName(e, a.name)
	}
	return h, nil
}

// WriteHG writes h in the detkdecomp text format.
func WriteHG(w io.Writer, h *Hypergraph) error {
	bw := bufio.NewWriter(w)
	for e := 0; e < h.M(); e++ {
		vars := make([]string, 0, len(h.Edge(e)))
		for _, v := range h.Edge(e) {
			vars = append(vars, h.VertexName(v))
		}
		sep := ","
		if e == h.M()-1 {
			sep = "."
		}
		fmt.Fprintf(bw, "%s(%s)%s\n", h.EdgeName(e), strings.Join(vars, ","), sep)
	}
	return bw.Flush()
}

// ParseEdgeList reads a hypergraph in a plain whitespace format: each
// non-empty, non-'#' line lists the 0-based vertex indices of one hyperedge.
// The vertex count is one more than the largest index seen.
//
// The input is capped at MaxParseBytes; larger payloads fail with a
// *PayloadTooLargeError.
func ParseEdgeList(r io.Reader) (*Hypergraph, error) {
	sc := bufio.NewScanner(LimitReader(r, MaxParseBytes))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var edges [][]int
	maxV := -1
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		var edge []int
		for _, f := range strings.Fields(txt) {
			v, err := strconv.Atoi(f)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("edgelist line %d: bad vertex %q", line, f)
			}
			if v > maxParseVertices {
				return nil, fmt.Errorf("edgelist line %d: vertex %d exceeds limit %d", line, v, maxParseVertices)
			}
			if v > maxV {
				maxV = v
			}
			edge = append(edge, v)
		}
		edges = append(edges, edge)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	h := NewHypergraph(maxV + 1)
	for _, e := range edges {
		h.AddEdge(e...)
	}
	return h, nil
}

// WriteEdgeList writes h in the plain whitespace hyperedge format.
func WriteEdgeList(w io.Writer, h *Hypergraph) error {
	bw := bufio.NewWriter(w)
	for e := 0; e < h.M(); e++ {
		parts := make([]string, 0, len(h.Edge(e)))
		for _, v := range h.Edge(e) {
			parts = append(parts, strconv.Itoa(v))
		}
		fmt.Fprintln(bw, strings.Join(parts, " "))
	}
	return bw.Flush()
}
