package csp

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// randomTable builds a table over up to 4 variables drawn from a small pool,
// with values that include negatives (the old string keys and the new hashes
// must both keep -1|2 distinct from 1|-2 and friends).
func randomTable(rng *rand.Rand) *Table {
	nv := 1 + rng.Intn(3)
	pool := rng.Perm(5)[:nv]
	t := &Table{Vars: pool}
	rows := rng.Intn(8)
	for i := 0; i < rows; i++ {
		row := make([]Value, nv)
		for j := range row {
			row[j] = rng.Intn(5) - 2
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// identity is the nullary identity table: a ⋈ identity = a.
func identity() *Table { return &Table{Rows: [][]Value{{}}} }

// join and project run JoinProject unbudgeted, where it cannot fail: join
// keeps every variable of both tables, project joins with the identity.
func join(a, b *Table) *Table {
	t, _ := JoinProject(a, b, append(slices.Clone(a.Vars), b.Vars...), nil)
	return t
}

func project(a *Table, vars []int) *Table {
	t, _ := JoinProject(a, identity(), vars, nil)
	return t
}

// joinRefAll is the reference for join: the string-keyed join, projected
// onto all of its variables (JoinProject's columns are in increasing
// variable order, and a duplicated row is kept once).
func joinRefAll(a, b *Table) *Table {
	j := joinRef(a, b)
	return projectRef(j, j.Vars)
}

// Property: JoinProject and Semijoin produce byte-identical tables to the
// string-keyed references, including row order (the engine's exact-equality
// differential tests depend on order preservation).
func TestHashOpsMatchReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomTable(rng), randomTable(rng)
		if !reflect.DeepEqual(join(a, b), joinRefAll(a, b)) {
			return false
		}
		keep := rng.Perm(5)[:1+rng.Intn(4)]
		if got, _ := JoinProject(a, b, keep, nil); !reflect.DeepEqual(got, projectRef(joinRef(a, b), keep)) {
			return false
		}
		if !reflect.DeepEqual(Semijoin(a, b), semijoinRef(a, b)) {
			return false
		}
		vars := rng.Perm(5)[:1+rng.Intn(3)]
		return reflect.DeepEqual(project(a, vars), projectRef(a, vars))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Regression for the Semijoin ownership hazard: the no-shared-vars nonempty
// branch used to return the input *Table aliased, so a caller mutating the
// result (appending rows, filtering in place) corrupted the original table.
func TestSemijoinDisjointReturnsDefensiveCopy(t *testing.T) {
	a := &Table{Vars: []int{0, 1}, Rows: [][]Value{{1, 2}, {3, 4}}}
	b := &Table{Vars: []int{7}, Rows: [][]Value{{1}}}
	got := Semijoin(a, b)
	if got == a {
		t.Fatal("Semijoin returned the input table aliased")
	}
	if len(got.Rows) != 2 {
		t.Fatalf("semijoin kept %d rows, want 2", len(got.Rows))
	}
	// Mutating the result's Rows slice must not corrupt a.
	got.Rows = got.Rows[:1]
	got.Rows = append(got.Rows, []Value{9, 9}, []Value{8, 8})
	if len(a.Rows) != 2 || a.Rows[1][0] != 3 || a.Rows[1][1] != 4 {
		t.Fatalf("mutating the semijoin result corrupted the input: %+v", a.Rows)
	}
	// Same contract for the reference implementation.
	if ref := semijoinRef(a, b); ref == a {
		t.Fatal("semijoinRef returned the input table aliased")
	}
}

// The string key must stay collision-free for negative values, and the
// nullary (no columns) key must map every row to the same bucket.
func TestStringKeyNegativeAndEmptyCols(t *testing.T) {
	cols := []int{0, 1}
	pairs := [][2][]Value{
		{{-1, 2}, {1, -2}},
		{{-1, 2}, {-12, 2}},
		{{1, 23}, {12, 3}},
		{{-1, -2}, {-12, 0}},
	}
	for _, p := range pairs {
		if key(p[0][:], cols) == key(p[1][:], cols) {
			t.Fatalf("key collision: %v vs %v", p[0], p[1])
		}
	}
	if key([]Value{5, 6}, nil) != "" || key([]Value{-7}, nil) != "" {
		t.Fatal("nullary key should be empty for every row")
	}
	if key([]Value{5, 6}, nil) != key([]Value{7, 8}, nil) {
		t.Fatal("all rows must share the nullary key")
	}
}

// Adversarial forced-collision test: index rows with a constant hash so
// every row lands in one bucket, and check lookups still return exactly the
// value-equal rows — the exact-comparison fallback, not the hash, decides
// membership. An index over a subset of the rows (ids) numbers its entries
// by position in ids.
func TestRowIndexForcedCollisions(t *testing.T) {
	defer SetRowHash(func([]Value, []int) uint64 { return 42 })()
	rows := [][]Value{{1, 2}, {3, 4}, {1, 2}, {-1, 2}, {1, -2}}
	cols := []int{0, 1}
	var ix RowIndex
	ix.Reset(rows, nil, cols)
	all := func(probe []Value) []int32 {
		var got []int32
		for e := ix.Find(probe, cols); e >= 0; e = ix.Next(e, probe, cols) {
			got = append(got, e)
		}
		return got
	}
	if got := all([]Value{1, 2}); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("lookup under forced collisions returned %v, want [0 2]", got)
	}
	if ix.Find([]Value{3, 4}, cols) != 1 {
		t.Fatal("Find missed a genuine match under forced collisions")
	}
	if ix.Find([]Value{2, 1}, cols) >= 0 {
		t.Fatal("Find reported a phantom match under forced collisions")
	}
	if ix.Find([]Value{-1, -2}, cols) >= 0 {
		t.Fatal("Find conflated negative-value rows under forced collisions")
	}
	ix.Reset(rows, []int32{4, 2, 0}, cols)
	if got := all([]Value{1, 2}); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("lookup over ids [4 2 0] returned %v, want [1 2]", got)
	}
	if ix.Find([]Value{3, 4}, cols) >= 0 {
		t.Fatal("Find matched a row outside ids")
	}
}

// JoinProject and Semijoin must agree with the references even when every
// hash collides (all-bucket scans, every row a dedup candidate): correctness
// never depends on hash quality.
func TestHashOpsUnderForcedCollisions(t *testing.T) {
	defer SetRowHash(func([]Value, []int) uint64 { return 0 })()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		a, b := randomTable(rng), randomTable(rng)
		if !reflect.DeepEqual(join(a, b), joinRefAll(a, b)) {
			t.Fatalf("JoinProject (join) diverged under forced collisions (iter %d)", i)
		}
		if !reflect.DeepEqual(Semijoin(a, b), semijoinRef(a, b)) {
			t.Fatalf("Semijoin diverged under forced collisions (iter %d)", i)
		}
		vars := rng.Perm(5)[:2]
		if !reflect.DeepEqual(project(a, vars), projectRef(a, vars)) {
			t.Fatalf("JoinProject (project) diverged under forced collisions (iter %d)", i)
		}
	}
}

// tupleHashes hashes every tuple of the given width over values, with
// hashRow over all of its columns, and returns how many distinct hashes
// they take and how many tuples there are.
func tupleHashes(values []Value, width int) (distinct, tuples int) {
	cols := make([]int, width)
	for i := range cols {
		cols[i] = i
	}
	row := make([]Value, width)
	seen := make(map[uint64]bool)
	var rec func(i int)
	rec = func(i int) {
		if i == width {
			seen[hashRow(row, cols)] = true
			tuples++
			return
		}
		for _, v := range values {
			row[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return len(seen), tuples
}

// hashRow must not collide, in all 64 bits, on short tuples of small
// values: negative ones (whole values XORed into FNV-1a once gave the 125
// tuples of {−2..2}³ only 83 hashes), 0/1 tuples up to width 14, and
// {0..7}³.
func TestHashRowDistinctOnSmallTuples(t *testing.T) {
	cases := []struct {
		name   string
		values []Value
		widths []int
	}{
		{"{-2..2}^3", []Value{-2, -1, 0, 1, 2}, []int{3}},
		{"{0,1}^w, w<=14", []Value{0, 1}, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
		{"{0..7}^3", []Value{0, 1, 2, 3, 4, 5, 6, 7}, []int{3}},
	}
	for _, c := range cases {
		for _, w := range c.widths {
			if distinct, tuples := tupleHashes(c.values, w); distinct != tuples {
				t.Errorf("%s, width %d: %d tuples take only %d distinct hashes", c.name, w, tuples, distinct)
			}
		}
	}
}
