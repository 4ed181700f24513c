package csp

import (
	"sort"
	"strconv"
	"strings"
)

// This file keeps the original string-keyed relational operators as
// differential-test references for the uint64-hash implementations in
// relation.go. They are correct but slow: every hashed row pays a
// strconv.Itoa + strings.Builder round trip, which is exactly the per-row
// cost the compiled query engine (internal/csp/engine) and the rewritten
// operators exist to avoid. Nothing outside the tests should call these.

// key encodes the values of row at the given columns for hashing. The '|'
// delimiter keeps the encoding prefix-free (so {1, 23} and {12, 3} differ)
// including for negative values; key(row, nil) is "" for every row, which is
// the correct nullary key (all rows agree on zero columns).
func key(row []Value, cols []int) string {
	var sb strings.Builder
	for _, c := range cols {
		sb.WriteString(strconv.Itoa(row[c]))
		sb.WriteByte('|')
	}
	return sb.String()
}

// joinRef is the reference natural join a ⋈ b.
func joinRef(a, b *Table) *Table {
	ai, bi := sharedColumns(a, b, nil, nil)
	sharedB := make(map[int]bool, len(bi))
	for _, j := range bi {
		sharedB[j] = true
	}
	outVars := append([]int(nil), a.Vars...)
	var extraB []int
	for j, v := range b.Vars {
		if !sharedB[j] {
			outVars = append(outVars, v)
			extraB = append(extraB, j)
		}
	}
	index := make(map[string][][]Value)
	for _, rb := range b.Rows {
		k := key(rb, bi)
		index[k] = append(index[k], rb)
	}
	out := &Table{Vars: outVars}
	for _, ra := range a.Rows {
		for _, rb := range index[key(ra, ai)] {
			row := make([]Value, 0, len(outVars))
			row = append(row, ra...)
			for _, j := range extraB {
				row = append(row, rb[j])
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// semijoinRef is the reference semijoin a ⋉ b, including the Semijoin
// ownership fix (the no-shared-vars nonempty branch returns a defensive
// copy, never the input table aliased).
func semijoinRef(a, b *Table) *Table {
	ai, bi := sharedColumns(a, b, nil, nil)
	if len(ai) == 0 {
		if len(b.Rows) == 0 {
			return &Table{Vars: a.Vars}
		}
		return &Table{Vars: a.Vars, Rows: append([][]Value(nil), a.Rows...)}
	}
	keys := make(map[string]struct{}, len(b.Rows))
	for _, rb := range b.Rows {
		keys[key(rb, bi)] = struct{}{}
	}
	out := &Table{Vars: a.Vars}
	for _, ra := range a.Rows {
		if _, ok := keys[key(ra, ai)]; ok {
			out.Rows = append(out.Rows, ra)
		}
	}
	return out
}

// projectRef is the reference projection π_vars(a) with dedup.
func projectRef(a *Table, vars []int) *Table {
	var cols []int
	var outVars []int
	pos := make(map[int]int, len(a.Vars))
	for i, v := range a.Vars {
		pos[v] = i
	}
	sorted := append([]int(nil), vars...)
	sort.Ints(sorted)
	for _, v := range sorted {
		if i, ok := pos[v]; ok {
			cols = append(cols, i)
			outVars = append(outVars, v)
		}
	}
	out := &Table{Vars: outVars}
	seen := make(map[string]struct{})
	for _, r := range a.Rows {
		row := make([]Value, len(cols))
		for i, c := range cols {
			row[i] = r[c]
		}
		k := key(row, allCols(len(row)))
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func allCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}
