package hypertree

// TestReach defines production code as the code some binary reaches. It
// links every main package under cmd/ and examples/, plus servebench's
// load generator (its own module, which calls into this one), with
// inlining off for this module and the linker's -dumpdep flag, which
// prints every "caller -> callee" edge of the dead-code pass. A declared
// non-test function that appears in no edge of any binary is unreached.
//
// An unreached function must carry a doc-comment line starting
// "// test-only:" that names its test callers; a reached function must not.
// Either mismatch fails the test, naming the function. Run it with
// `make reach`.
//
// Matching is by exact linker symbol, after dropping generic instantiation
// lists ("pkg.F[go.shape.int]" is "pkg.F"). Aux symbols such as
// "pkg.F.arginfo1" or "pkg.F.stkobj" are never folded into "pkg.F": the
// linker deduplicates identical aux symbols, so a dead function's aux symbol
// can name a live one's content. Interface-dispatched methods appear only as
// callees of "type:*pkg.T <UsedInIface> -> pkg.(*T).M" edges, so both sides
// of every edge count, annotations stripped. A main package's symbols are
// "main.F" in every binary, so they are scoped by the "# <import path>"
// header the go command prints before each link's output.

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

const testOnlyMarker = "// test-only:"

// reachDecl is one declared non-test function.
type reachDecl struct {
	sym    string // linker symbol, with the package's import path
	pos    string // file:line of the declaration
	lines  int    // lines of the declaration, doc comment excluded
	doc    int    // lines of its doc comment
	marked bool   // doc comment carries a test-only marker
}

func TestReach(t *testing.T) {
	if testing.Short() {
		t.Skip("links every binary; skipped under -short")
	}
	decls, err := declaredFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	var roots []string
	for _, pattern := range []string{"cmd/*/*.go", "examples/*/*.go"} {
		files, _ := filepath.Glob(pattern) // the patterns are well-formed
		for _, f := range files {
			if dir := "./" + filepath.ToSlash(filepath.Dir(f)); len(roots) == 0 || roots[len(roots)-1] != dir {
				roots = append(roots, dir)
			}
		}
	}
	// One go build links every main package of this module; servebench is
	// its own module and links from its own directory.
	reached := map[string]bool{}
	dir := t.TempDir()
	if err := linkEdges(".", dir+string(filepath.Separator), roots, reached); err != nil {
		t.Fatal(err)
	}
	if err := linkEdges("servebench", filepath.Join(dir, "servebench"), []string{"."}, reached); err != nil {
		t.Fatal(err)
	}

	unreached, lines, withDoc, marked, markedLines := 0, 0, 0, 0, 0
	for _, d := range decls {
		switch r := reached[d.sym]; {
		case !r && !d.marked:
			t.Errorf("unreached: %s (%s, %d lines): no binary calls it; delete it, move it into a _test.go file, or mark it %q naming its test callers", d.sym, d.pos, d.lines, testOnlyMarker)
			unreached++
			lines += d.lines
			withDoc += d.lines + d.doc
		case r && d.marked:
			t.Errorf("stale marker: %s (%s) is reached by a binary; remove its %q line", d.sym, d.pos, testOnlyMarker)
		case d.marked:
			marked++
			markedLines += d.lines
		}
	}
	if unreached > 0 {
		t.Errorf("%d unreached functions without a marker: %d lines, %d with doc comments", unreached, lines, withDoc)
	}
	t.Logf("%d declared functions, %d carry a %q marker (%d lines)", len(decls), marked, testOnlyMarker, markedLines)
}

// linkEdges builds pkgs from dir with inlining off for this module and the
// linker's dependency dump on, and records every symbol on either side of
// an edge in reached. Symbols of package main are recorded under the import
// path of the binary they were linked into.
func linkEdges(dir, out string, pkgs []string, reached map[string]bool) error {
	args := append([]string{"build", "-o", out, "-gcflags=hypertree/...=-l", "-ldflags=-dumpdep"}, pkgs...)
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		// A failed build prints the edges it got before its error.
		msg := stderr.String()
		if len(msg) > 4000 {
			msg = msg[len(msg)-4000:]
		}
		return fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, msg)
	}
	binaries, binary := 0, ""
	sc := bufio.NewScanner(&stderr)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# ") {
			binary = strings.TrimPrefix(line, "# ")
			binaries++
			continue
		}
		caller, callee, ok := strings.Cut(line, " -> ")
		if !ok {
			continue
		}
		for _, s := range []string{caller, callee} {
			if i := strings.Index(s, " <"); i >= 0 {
				s = s[:i]
			}
			s = stripInstantiation(s)
			if strings.HasPrefix(s, "main.") {
				s = binary + s[len("main"):]
			}
			reached[s] = true
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if binaries < len(pkgs) {
		return fmt.Errorf("go build in %s printed the edges of %d binaries, want %d (was a link skipped?)", dir, binaries, len(pkgs))
	}
	return nil
}

// stripInstantiation drops every bracketed type-argument list from a
// symbol: "p.(*T[go.shape.int]).M" is "p.(*T).M".
func stripInstantiation(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declaredFuncs parses every non-test Go file of the main module under
// root, skipping servebench/ (its own module), testdata/ and hidden
// directories, and returns each function and method it declares.
func declaredFuncs(root string) ([]reachDecl, error) {
	fset := token.NewFileSet()
	var decls []reachDecl
	inits := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "servebench" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "hypertree"
		if rel := filepath.ToSlash(filepath.Dir(path)); rel != "." {
			pkg += "/" + rel
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			sym := pkg + "." + funcSymbol(fn)
			if fn.Recv == nil && fn.Name.Name == "init" {
				// The compiler numbers a package's init functions in
				// source order; WalkDir visits files in lexical order,
				// which is the order the go command compiles them in.
				sym = fmt.Sprintf("%s.init.%d", pkg, inits[pkg])
				inits[pkg]++
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			rd := reachDecl{sym: sym, pos: fmt.Sprintf("%s:%d", path, start.Line), lines: end.Line - start.Line + 1}
			if fn.Doc != nil {
				rd.doc = start.Line - fset.Position(fn.Doc.Pos()).Line
				for _, c := range fn.Doc.List {
					if strings.HasPrefix(c.Text, testOnlyMarker) && strings.TrimSpace(c.Text[len(testOnlyMarker):]) != "" {
						rd.marked = true
					}
				}
			}
			decls = append(decls, rd)
		}
		return nil
	})
	sort.Slice(decls, func(i, j int) bool { return decls[i].sym < decls[j].sym })
	return decls, err
}

// funcSymbol writes a declaration the way the linker names it: F, (*T).M
// or T.M, with any type parameters dropped.
func funcSymbol(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star, ptr := typ.(*ast.StarExpr)
	if ptr {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")." + fn.Name.Name
	}
	return name + "." + fn.Name.Name
}
