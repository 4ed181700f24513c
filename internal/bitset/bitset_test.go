package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// FromInts returns a new set of capacity n holding the given elements.
func FromInts(n int, elems []int) Set {
	s := New(n)
	for _, v := range elems {
		s.Add(v)
	}
	return s
}

// count is the set's size, read through AppendTo.
func count(s Set) int { return len(s.AppendTo(nil)) }

func TestBasicOps(t *testing.T) {
	s := New(130)
	for _, v := range []int{0, 63, 64, 65, 129} {
		s.Add(v)
	}
	if count(s) != 5 || s.AndCount(s) != 5 {
		t.Fatalf("count = %d, AndCount with itself = %d, want 5", count(s), s.AndCount(s))
	}
	got := s.AppendTo(nil)
	want := []int{0, 63, 64, 65, 129}
	if len(got) != len(want) {
		t.Fatalf("AppendTo = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("AppendTo = %v, want %v", got, want)
		}
	}
	if !FromInts(130, []int{0, 64}).SubsetOf(s) || FromInts(130, []int{1}).SubsetOf(s) {
		t.Fatal("membership wrong")
	}
}

func TestEmptyAndClear(t *testing.T) {
	s := New(0)
	if s.Any() || count(s) != 0 {
		t.Fatal("empty-capacity set should be empty")
	}
	s = FromInts(100, []int{3, 99})
	s.Clear()
	if s.Any() {
		t.Fatal("Clear left elements")
	}
}

// Mirror set semantics against Go maps on random operation sequences.
func TestAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a, b := New(n), New(n)
		ma, mb := map[int]bool{}, map[int]bool{}
		for i := 0; i < 300; i++ {
			v := rng.Intn(n)
			if rng.Intn(2) == 0 {
				a.Add(v)
				ma[v] = true
			} else {
				b.Add(v)
				mb[v] = true
			}
		}
		inter, diff := 0, 0
		subset := true
		for v := range ma {
			if mb[v] {
				inter++
			} else {
				diff++
				subset = false
			}
		}
		if a.AndCount(b) != inter || a.SubsetOf(b) != subset {
			return false
		}
		c := a.Clone()
		c.And(b)
		if count(c) != inter {
			return false
		}
		c.CopyFrom(a)
		c.AndNot(b)
		if count(c) != diff {
			return false
		}
		want := make([]int, 0, len(ma))
		for v := range ma {
			want = append(want, v)
		}
		sort.Ints(want)
		got := a.AppendTo(nil)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyUniqueness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[string]string{} // key -> canonical element string
	var buf []byte
	for i := 0; i < 2000; i++ {
		s := New(300)
		for j := 0; j < rng.Intn(12); j++ {
			s.Add(rng.Intn(300))
		}
		buf = s.AppendKey(buf[:0])
		elems := ""
		for _, v := range s.AppendTo(nil) {
			elems += "," + string(rune(v))
		}
		if prev, ok := seen[string(buf)]; ok && prev != elems {
			t.Fatalf("key collision: %q vs %q", prev, elems)
		}
		seen[string(buf)] = elems
	}
	// Equal sets must produce equal keys even across capacities' zero tails.
	a := FromInts(64, []int{1, 2})
	b := FromInts(640, []int{1, 2})
	if string(a.AppendKey(nil)) != string(b.AppendKey(nil)) {
		t.Fatal("trailing-zero trim should make equal sets key-equal")
	}
}

// TestEqual: sets with the same elements are equal, and AppendKey, the
// package's equality test, encodes them equally; one more element makes
// them unequal.
func TestEqual(t *testing.T) {
	a := FromInts(70, []int{0, 69})
	b := FromInts(70, []int{0, 69})
	if string(a.AppendKey(nil)) != string(b.AppendKey(nil)) || !a.SubsetOf(b) || !b.SubsetOf(a) {
		t.Fatal("equal sets not equal")
	}
	b.Add(5)
	if string(a.AppendKey(nil)) == string(b.AppendKey(nil)) || b.SubsetOf(a) {
		t.Fatal("unequal sets equal")
	}
}

func TestPool(t *testing.T) {
	p := NewPool(100)
	s := p.Get()
	s.Add(42)
	p.Put(s)
	s2 := p.Get()
	if s2.Any() {
		t.Fatal("pooled set not cleared on Get")
	}
	if len(s2) != Words(100) {
		t.Fatalf("pooled set has %d words", len(s2))
	}
	p.Put(s2)
	if len(p.free) != 1 {
		t.Fatalf("pool free list = %d, want 1", len(p.free))
	}
}
