package csp

import (
	"math/rand"
	"reflect"
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

// join and project run the operators unbudgeted, where they cannot fail.
func join(a, b *Table) *Table {
	t, _ := Join(a, b, nil)
	return t
}

func project(a *Table, vars []int) *Table {
	t, _ := Project(a, vars, nil)
	return t
}

// Property: the uint64-hash operators produce byte-identical tables to the
// string-keyed references, including row order (the engine's exact-equality
// differential tests depend on order preservation).
func TestHashOpsMatchReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomTable(rng), randomTable(rng)
		if !reflect.DeepEqual(join(a, b), joinRef(a, b)) {
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
// every row lands in one bucket, and check probes still return exactly the
// value-equal rows — the exact-comparison fallback, not the hash, decides
// membership.
func TestRowIndexForcedCollisions(t *testing.T) {
	rows := [][]Value{{1, 2}, {3, 4}, {1, 2}, {-1, 2}, {1, -2}}
	constant := func([]Value, []int) uint64 { return 42 }
	ix := newRowIndexFunc(rows, []int{0, 1}, constant)
	var got []int32
	ix.probe([]Value{1, 2}, []int{0, 1}, func(ri int32) bool {
		got = append(got, ri)
		return true
	})
	if !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("probe under forced collisions returned %v, want [0 2]", got)
	}
	if ix.contains([]Value{3, 4}, []int{0, 1}) != true {
		t.Fatal("contains missed a genuine match under forced collisions")
	}
	if ix.contains([]Value{2, 1}, []int{0, 1}) {
		t.Fatal("contains reported a phantom match under forced collisions")
	}
	if ix.contains([]Value{-1, -2}, []int{0, 1}) {
		t.Fatal("contains conflated negative-value rows under forced collisions")
	}
}

// Join and Semijoin must agree with the references even when every hash
// collides (all-bucket scans): correctness never depends on hash quality.
func TestHashOpsUnderForcedCollisions(t *testing.T) {
	old := hashRowHook
	hashRowHook = func([]Value, []int) uint64 { return 0 }
	defer func() { hashRowHook = old }()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		a, b := randomTable(rng), randomTable(rng)
		if !reflect.DeepEqual(join(a, b), joinRef(a, b)) {
			t.Fatalf("Join diverged under forced collisions (iter %d)", i)
		}
		if !reflect.DeepEqual(Semijoin(a, b), semijoinRef(a, b)) {
			t.Fatalf("Semijoin diverged under forced collisions (iter %d)", i)
		}
		vars := rng.Perm(5)[:2]
		if !reflect.DeepEqual(project(a, vars), projectRef(a, vars)) {
			t.Fatalf("Project diverged under forced collisions (iter %d)", i)
		}
	}
}
