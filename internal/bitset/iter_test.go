package bitset

import (
	"math/rand"
	"testing"
)

// TestNextSetBit checks the cursor iterator against the members added to
// random sets, including word-boundary members and out-of-range cursors.
func TestNextSetBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		s := New(n)
		var want []int
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				s.Add(v)
				want = append(want, v)
			}
		}
		var got []int
		for v := s.NextSetBit(0); v >= 0; v = s.NextSetBit(v + 1) {
			got = append(got, v)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d members, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: member %d = %d, want %d", trial, i, got[i], want[i])
			}
		}
		if v := s.NextSetBit(n + 64); v != -1 {
			t.Fatalf("trial %d: cursor past the set returned %d", trial, v)
		}
		if v := s.NextSetBit(-5); len(want) > 0 && v != want[0] {
			t.Fatalf("trial %d: negative cursor returned %d, want %d", trial, v, want[0])
		}
	}
}

func TestNextSetBitWordEdges(t *testing.T) {
	s := New(130)
	for _, v := range []int{0, 63, 64, 127, 128, 129} {
		s.Add(v)
	}
	want := []int{0, 63, 64, 127, 128, 129}
	for i, from := range []int{0, 1, 64, 65, 128, 129} {
		if got := s.NextSetBit(from); got != want[i] {
			t.Errorf("NextSetBit(%d) = %d, want %d", from, got, want[i])
		}
	}
	if got := s.NextSetBit(130); got != -1 {
		t.Errorf("NextSetBit(130) = %d, want -1", got)
	}
}

// BenchmarkIterate pins the iteration path at zero allocations per pass (it
// sits inside the cover engine's restriction loop, the hottest loop of the
// exact searches).
func BenchmarkIterate(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	s := New(512)
	for v := 0; v < 512; v++ {
		if rng.Intn(4) == 0 {
			s.Add(v)
		}
	}
	b.Run("NextSetBit", func(b *testing.B) {
		b.ReportAllocs()
		sum := 0
		for i := 0; i < b.N; i++ {
			for v := s.NextSetBit(0); v >= 0; v = s.NextSetBit(v + 1) {
				sum += v
			}
		}
		sinkInt = sum
	})
}

var sinkInt int
