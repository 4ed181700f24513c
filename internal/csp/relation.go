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
// The operators hash rows by uint64 tuple hashes (see RowIndex) instead of
// the original string keys; the string-keyed implementations are kept in
// the package tests as differential references. All operators preserve
// input row order, so the two implementations produce identical tables.
type Table struct {
	Vars []int
	Rows [][]Value
}

// sharedColumns appends to ai and bi (after truncating them) the column
// positions, in a and in b, of the variables the two tables share
// (parallel slices, in a's column order).
func sharedColumns(a, b *Table, ai, bi []int) ([]int, []int) {
	ai, bi = ai[:0], bi[:0]
	for i, v := range a.Vars {
		if j := slices.Index(b.Vars, v); j >= 0 {
			ai = append(ai, i)
			bi = append(bi, j)
		}
	}
	return ai, bi
}

// hashRow mixes the values of row at the given columns into a uint64. The
// hash is only a bucket discriminator: every lookup re-verifies candidate
// rows value by value, so a collision costs a comparison, never a wrong
// answer. Each value is mixed (a multiply and a fold of its high half)
// before it is folded into FNV-1a: XORed in whole, a negative value flips
// its sign-extended high bits, which the multiplies only carry upward and
// out, so short tuples of small negative values collided in all 64 bits
// ((−2, −2, 0) with (−2, 0, −2)).
func hashRow(row []Value, cols []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range cols {
		x := uint64(row[c]) * 0x9e3779b97f4a7c15
		h ^= x ^ x>>32
		h *= 1099511628211
	}
	// Final avalanche so low-entropy value sets still spread over buckets.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// hashRowHook is the hash the relational operators and RowIndex use. Tests
// swap in adversarial hashes (e.g. a constant) through SetRowHash to prove
// correctness never depends on hash quality; production code must not
// reassign it.
var hashRowHook = hashRow

// SetRowHash makes h the hash of every RowIndex and of JoinProject's dedup
// until the returned function restores the previous one. It is not safe
// while any lookup runs.
//
// test-only: the csp forced-collision tests (TestRowIndexForcedCollisions,
// TestHashOpsUnderForcedCollisions and TestGHDTablesEqualJoinThenProject's
// constant-hash run), and the constant-hash run of the csp/engine test
// TestPlanMatchesReferenceReduction.
func SetRowHash(h func(row []Value, cols []int) uint64) (restore func()) {
	old := hashRowHook
	hashRowHook = h
	return func() { hashRowHook = old }
}

// RowIndex finds the rows of one table that agree with a probe row on a
// fixed column set: the keyed lookup behind JoinProject, Semijoin and the
// engine's tree-edge groups. Its entries are rows (or a chosen subset of
// them, see Reset), hashed on their values at the index's columns into a
// power-of-two head array; each bucket chains its entries through next in
// entry order. Every lookup verifies candidates value by value, so hash
// collisions lengthen one chain instead of producing phantom matches. The
// arrays are reused from one Reset to the next.
type RowIndex struct {
	rows [][]Value
	ids  []int32 // entry -> its row in rows; nil: entry e is row e
	cols []int
	mask uint64
	head []int32 // bucket -> 1 + its first entry, 0 when empty
	next []int32 // entry -> 1 + the next entry of its bucket, 0 at the end
}

// Reset indexes rows on cols, reusing the index's arrays. With ids nil
// every row is an entry, entry e being row e; otherwise entry e is row
// ids[e]. rows, ids and cols are kept, not copied, until the next Reset.
func (ix *RowIndex) Reset(rows [][]Value, ids []int32, cols []int) {
	n := len(rows)
	if ids != nil {
		n = len(ids)
	}
	size := 1
	for size < 2*n { // a load of at most 1/2 keeps chains short
		size <<= 1
	}
	ix.rows, ix.ids, ix.cols, ix.mask = rows, ids, cols, uint64(size-1)
	ix.head = resize(ix.head, size)
	clear(ix.head)
	ix.next = resize(ix.next, n)
	// Inserting entries last to first at each chain's front leaves every
	// chain in entry order.
	for e := n - 1; e >= 0; e-- {
		b := hashRowHook(ix.row(int32(e)), cols) & ix.mask
		ix.next[e] = ix.head[b]
		ix.head[b] = int32(e + 1)
	}
}

// row returns entry e's row.
func (ix *RowIndex) row(e int32) []Value {
	if ix.ids != nil {
		return ix.rows[ix.ids[e]]
	}
	return ix.rows[e]
}

// Find returns the first entry agreeing with probe at probeCols (parallel
// to the index's cols), or -1 if none does.
func (ix *RowIndex) Find(probe []Value, probeCols []int) int32 {
	return ix.scan(ix.head[hashRowHook(probe, probeCols)&ix.mask], probe, probeCols)
}

// Next returns the first entry after e, in entry order, that agrees with
// probe at probeCols, or -1. e must be a match of the same probe.
func (ix *RowIndex) Next(e int32, probe []Value, probeCols []int) int32 {
	return ix.scan(ix.next[e], probe, probeCols)
}

// scan walks a chain from link (1 + an entry, 0 at the end) to the first
// entry whose row agrees with probe.
func (ix *RowIndex) scan(link int32, probe []Value, probeCols []int) int32 {
outer:
	for ; link != 0; link = ix.next[link-1] {
		row := ix.row(link - 1)
		for k, c := range ix.cols {
			if row[c] != probe[probeCols[k]] {
				continue outer
			}
		}
		return link - 1
	}
	return -1
}

// resize returns s with length n, reusing its array when it is big enough
// and otherwise allocating room for max(n, twice its capacity). The
// contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// grow returns s with room for n more elements. Unlike append, which grows
// a large slice by a quarter, it at least doubles the capacity when it
// reallocates, so a table written row by row allocates about twice its
// final size in all, not five times.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
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
// dedup, row order included. The result's rows are views of one flat
// array; a result with no rows has nil Rows. It ticks bu (nil =
// unbounded) once per probing row of a and once per joined row, bounding
// both the scan and the (possibly multiplicative) join, and returns an
// *InterruptedError as soon as the budget trips.
//
// test-only: the csp operator and budget tests, and the csp/engine test
// TestJoinProjectAllocsLogarithmic. GHDTables runs the same join through
// its own scratch.
func JoinProject(a, b *Table, keep []int, bu *budget.B) (*Table, error) {
	var s joinScratch
	out := &flatTable{}
	if err := s.joinProject(a, b, keep, out, bu); err != nil {
		return nil, err
	}
	return &out.Table, nil
}

// joinScratch is JoinProject's reusable state: the index over b's rows,
// the dedup slot table, and the column buffers. GHDTables runs a whole
// λ-fold through one, so a compile allocates per node, not per row.
type joinScratch struct {
	ix RowIndex
	// The dedup table of the output rows: open-addressed slots holding 1 +
	// an output row (0 when empty), over the rows' stored hashes.
	slots  []int32
	hashes []uint64
	// src[k] is output column k's source: column src[k] of a, or column
	// src[k]-len(a.Vars) of b. cols is 0, 1, ..., the output's columns.
	src, cols []int
	vars      []int // keep, sorted
	ai, bi    []int // the columns a and b share
	// GHDTables' keep list and its ping-pong intermediate tables.
	keep []int
	bufs [2]flatTable
}

// flatTable is a table whose rows are views of vals (see rowViews). All
// three slices are reused when the table is rewritten.
type flatTable struct {
	Table
	vals []Value
}

// joinProject is JoinProject, writing the result into out.
func (s *joinScratch) joinProject(a, b *Table, keep []int, out *flatTable, bu *budget.B) error {
	s.vars = append(s.vars[:0], keep...)
	slices.Sort(s.vars)
	// A variable of both a and b reads a, which agrees with b on every
	// joined row.
	na := len(a.Vars)
	out.Vars, s.src, s.cols = out.Vars[:0], s.src[:0], s.cols[:0]
	for i, v := range s.vars {
		if i > 0 && v == s.vars[i-1] {
			continue
		}
		if c := slices.Index(a.Vars, v); c >= 0 {
			s.src = append(s.src, c)
		} else if c := slices.Index(b.Vars, v); c >= 0 {
			s.src = append(s.src, na+c)
		} else {
			continue
		}
		s.cols = append(s.cols, len(out.Vars))
		out.Vars = append(out.Vars, v)
	}
	w := len(s.src)
	s.ai, s.bi = sharedColumns(a, b, s.ai, s.bi)
	s.ix.Reset(b.Rows, nil, s.bi)
	s.hashes = s.hashes[:0]
	size := 16
	for size < 2*len(a.Rows) {
		size <<= 1
	}
	s.rehash(size)
	vals := out.vals[:0]
	for _, ra := range a.Rows {
		if !bu.Tick() {
			return Interrupted(bu)
		}
		for e := s.ix.Find(ra, s.ai); e >= 0; e = s.ix.Next(e, ra, s.ai) {
			if !bu.Tick() {
				return Interrupted(bu)
			}
			rb := b.Rows[e]
			n := len(vals)
			vals = grow(vals, w)[:n+w]
			row := vals[n:]
			for k, c := range s.src {
				if c < na {
					row[k] = ra[c]
				} else {
					row[k] = rb[c-na]
				}
			}
			if !s.insert(vals, w) {
				vals = vals[:n]
			}
		}
	}
	out.vals = vals
	out.Rows = rowViews(out.Rows, vals, len(s.hashes), w)
	return nil
}

// insert adds the last row of vals (rows of w values, the earlier ones
// already kept) to the dedup table and reports true, or reports false when
// an equal row was kept before. Equal hashes are compared value by value,
// so a collision cannot drop a distinct row.
func (s *joinScratch) insert(vals []Value, w int) bool {
	n := len(s.hashes)
	row := vals[n*w:]
	h := hashRowHook(row, s.cols)
	mask := len(s.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := int(s.slots[i])
		if e == 0 {
			s.slots[i] = int32(n + 1)
			s.hashes = append(grow(s.hashes, 1), h)
			if 2*len(s.hashes) > len(s.slots) {
				s.rehash(2 * len(s.slots))
			}
			return true
		}
		if s.hashes[e-1] == h && slices.Equal(vals[(e-1)*w:e*w], row) {
			return false
		}
	}
}

// rehash rebuilds the dedup table with size (a power of two) slots over
// the stored hashes.
func (s *joinScratch) rehash(size int) {
	s.slots = resize(s.slots, size)
	clear(s.slots)
	mask := size - 1
	for e, h := range s.hashes {
		i := int(h) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(e + 1)
	}
}

// Semijoin computes a ⋉ b: the rows of a that join with at least one row of
// b. If a and b share no variables, the join would be a cross product, so
// the result is all of a's rows when b is nonempty and no rows when b is
// empty. The returned table is always a fresh *Table that shares no slice
// headers with a — callers may append to or filter the result's Rows without
// corrupting a (the row slices themselves stay shared, as in every branch).
//
// test-only: the reference semijoin of the csp and csp/engine tests, and
// ReduceBottomUp's step.
func Semijoin(a, b *Table) *Table {
	ai, bi := sharedColumns(a, b, nil, nil)
	if len(ai) == 0 {
		if len(b.Rows) == 0 {
			return &Table{Vars: a.Vars}
		}
		return &Table{Vars: a.Vars, Rows: append([][]Value(nil), a.Rows...)}
	}
	var ix RowIndex
	ix.Reset(b.Rows, nil, bi)
	out := &Table{Vars: a.Vars}
	for _, ra := range a.Rows {
		if ix.Find(ra, ai) >= 0 {
			out.Rows = append(out.Rows, ra)
		}
	}
	return out
}

// selectConsistent returns the rows of t agreeing with the partial
// assignment (assigned[v] true means variable v is pinned to assignment[v]).
//
// test-only: acyclicOnTables's row filter.
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
