package csp

import (
	"fmt"
	"slices"

	"hypertree/internal/budget"
)

// Table is a relation with named columns: Vars lists the variable index of
// each column, Rows the tuples. The relational operators below are the ones
// Acyclic Solving needs (thesis §2.2.3): natural join with projection, and
// semijoin.
//
// The operators hash rows by uint64 tuple hashes (see rowIndex) instead of
// the original string keys; the string-keyed implementations are kept in
// the package tests as differential references. All operators preserve
// input row order, so the two implementations produce identical tables.
type Table struct {
	Vars []int
	Rows [][]Value
}

// sharedColumns returns, for tables a and b, the column positions of their
// common variables (parallel slices).
func sharedColumns(a, b *Table) (ai, bi []int) {
	posB := make(map[int]int, len(b.Vars))
	for j, v := range b.Vars {
		posB[v] = j
	}
	for i, v := range a.Vars {
		if j, ok := posB[v]; ok {
			ai = append(ai, i)
			bi = append(bi, j)
		}
	}
	return
}

// hashRow mixes the values of row at the given columns into a uint64. The
// hash is only a bucket discriminator: every probe re-verifies candidate
// rows value-by-value, so a collision costs a comparison, never a wrong
// answer (see rowIndex.matches).
func hashRow(row []Value, cols []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h ^= uint64(row[c])
		h *= 1099511628211
	}
	// Final avalanche so low-entropy value sets still spread over buckets.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// rowIndex buckets the rows of one table by the uint64 hash of their values
// at a fixed column set. Buckets keep insertion (row) order, and every probe
// verifies candidates exactly, so hash collisions degrade to linear scans of
// one bucket instead of producing phantom matches.
type rowIndex struct {
	rows [][]Value
	cols []int
	hash func(row []Value, cols []int) uint64
	m    map[uint64][]int32
}

// hashRowHook is the hash the relational operators use. Tests swap in
// adversarial hashes (e.g. a constant) to prove correctness never depends on
// hash quality; production code must not reassign it.
var hashRowHook = hashRow

// newRowIndex indexes rows on cols with the production hash. Tests inject
// adversarial hash functions (e.g. a constant) through newRowIndexFunc or by
// swapping hashRowHook.
func newRowIndex(rows [][]Value, cols []int) *rowIndex {
	return newRowIndexFunc(rows, cols, hashRowHook)
}

func newRowIndexFunc(rows [][]Value, cols []int, hash func([]Value, []int) uint64) *rowIndex {
	ix := &rowIndex{rows: rows, cols: cols, hash: hash, m: make(map[uint64][]int32, len(rows))}
	for i, r := range rows {
		h := hash(r, cols)
		ix.m[h] = append(ix.m[h], int32(i))
	}
	return ix
}

// matches reports whether indexed row ri agrees with probe at probeCols
// (parallel to the index's cols) — the exact comparison behind every hash
// bucket hit.
func (ix *rowIndex) matches(ri int32, probe []Value, probeCols []int) bool {
	row := ix.rows[ri]
	for k, c := range ix.cols {
		if row[c] != probe[probeCols[k]] {
			return false
		}
	}
	return true
}

// probe calls fn for each indexed row matching probe at probeCols, in row
// order. fn returning false stops the scan early.
func (ix *rowIndex) probe(probe []Value, probeCols []int, fn func(ri int32) bool) {
	for _, ri := range ix.m[ix.hash(probe, probeCols)] {
		if ix.matches(ri, probe, probeCols) {
			if !fn(ri) {
				return
			}
		}
	}
}

// contains reports whether any indexed row matches probe at probeCols.
func (ix *rowIndex) contains(probe []Value, probeCols []int) bool {
	found := false
	ix.probe(probe, probeCols, func(int32) bool { found = true; return false })
	return found
}

// InterruptedError is the typed error the table builders return when their
// budget trips mid-table: the work is abandoned (no partial table escapes)
// and Reason says which limit ended it — deadline, node budget, or context
// cancellation.
type InterruptedError struct {
	Reason budget.StopReason
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("csp: table materialization interrupted (%s)", e.Reason)
}

// Interrupted wraps bu's latched stop reason. Call it only after a Tick or
// Check returned false, so the reason is already set.
func Interrupted(bu *budget.B) error {
	return &InterruptedError{Reason: bu.Reason()}
}

// JoinProject computes π_keep(a ⋈ b), projecting each joined row as it is
// built, so the full join never materializes. The output columns are the
// variables of keep that occur in a or b, in increasing order. Rows come
// in join order (a's rows in order, each followed by its matches in b's row
// order), and only the first occurrence of each projected tuple is kept, so
// the result is the projection of the whole join with first-occurrence
// dedup, row order included. It ticks bu (nil = unbounded) once per
// probing row of a and once per joined row, bounding both the scan and the
// (possibly multiplicative) join, and returns an *InterruptedError as soon
// as the budget trips.
func JoinProject(a, b *Table, keep []int, bu *budget.B) (*Table, error) {
	vars := slices.Clone(keep)
	slices.Sort(vars)
	// src[k] is output column k's source: column src[k] of a, or column
	// src[k]-len(a.Vars) of b. A variable of both reads a, which agrees
	// with b on every joined row.
	out := &Table{}
	var src []int
	for i, v := range vars {
		if i > 0 && v == vars[i-1] {
			continue
		}
		if c := slices.Index(a.Vars, v); c >= 0 {
			src = append(src, c)
		} else if c := slices.Index(b.Vars, v); c >= 0 {
			src = append(src, len(a.Vars)+c)
		} else {
			continue
		}
		out.Vars = append(out.Vars, v)
	}
	cols := make([]int, len(src))
	for i := range cols {
		cols[i] = i
	}
	// Dedup by the hash of the projected row: last[h] is 1 + the index of
	// the latest kept row hashing to h, and prev chains back to the earlier
	// ones, which are compared value by value, so a collision cannot drop a
	// distinct row.
	last := make(map[uint64]int32)
	var prev []int32
	row := make([]Value, len(src))
	na := len(a.Vars)
	ai, bi := sharedColumns(a, b)
	ix := newRowIndex(b.Rows, bi)
	stop := false
	for _, ra := range a.Rows {
		if !bu.Tick() {
			return nil, Interrupted(bu)
		}
		ix.probe(ra, ai, func(ri int32) bool {
			if !bu.Tick() {
				stop = true
				return false
			}
			rb := b.Rows[ri]
			for k, s := range src {
				if s < na {
					row[k] = ra[s]
				} else {
					row[k] = rb[s-na]
				}
			}
			h := hashRowHook(row, cols)
			for i := last[h]; i != 0; i = prev[i-1] {
				if slices.Equal(out.Rows[i-1], row) {
					return true
				}
			}
			prev = append(prev, last[h])
			out.Rows = append(out.Rows, slices.Clone(row))
			last[h] = int32(len(out.Rows))
			return true
		})
		if stop {
			return nil, Interrupted(bu)
		}
	}
	return out, nil
}

// Semijoin computes a ⋉ b: the rows of a that join with at least one row of
// b. If a and b share no variables, the join would be a cross product, so
// the result is all of a's rows when b is nonempty and no rows when b is
// empty. The returned table is always a fresh *Table that shares no slice
// headers with a — callers may append to or filter the result's Rows without
// corrupting a (the row slices themselves stay shared, as in every branch).
func Semijoin(a, b *Table) *Table {
	ai, bi := sharedColumns(a, b)
	if len(ai) == 0 {
		if len(b.Rows) == 0 {
			return &Table{Vars: a.Vars}
		}
		return &Table{Vars: a.Vars, Rows: append([][]Value(nil), a.Rows...)}
	}
	ix := newRowIndex(b.Rows, bi)
	out := &Table{Vars: a.Vars}
	for _, ra := range a.Rows {
		if ix.contains(ra, ai) {
			out.Rows = append(out.Rows, ra)
		}
	}
	return out
}

// selectConsistent returns the rows of t agreeing with the partial
// assignment (assigned[v] true means variable v is pinned to assignment[v]).
func selectConsistent(t *Table, assignment []Value, assigned []bool) [][]Value {
	var out [][]Value
	for _, r := range t.Rows {
		ok := true
		for i, v := range t.Vars {
			if assigned[v] && assignment[v] != r[i] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}
