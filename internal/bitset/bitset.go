// Package bitset implements the word-packed vertex/edge sets underlying the
// set-cover engine: fixed-capacity bitsets with the boolean algebra the
// cover algorithms need (And/AndNot, subset test, intersection counting),
// plus a pooled scratch allocator so the search hot paths reuse word slices
// instead of allocating per bag.
//
// A Set is a plain []uint64; the zero-length Set is a valid empty set. All
// operations treat bits beyond the constructed capacity as absent, and
// binary operations require both operands to come from the same capacity
// (same word count) — the callers in this repository always size sets to a
// fixed universe (the hypergraph's vertices, a bag's element positions).
package bitset

import "math/bits"

const wordBits = 64

// Set is a fixed-capacity bitset over elements 0..cap-1, packed 64 per word.
type Set []uint64

// Words returns the number of words needed for capacity n.
func Words(n int) int { return (n + wordBits - 1) / wordBits }

// New returns an empty set with capacity for elements 0..n-1.
func New(n int) Set { return make(Set, Words(n)) }

// Add inserts v. The caller must keep v within the constructed capacity.
func (s Set) Add(v int) { s[v/wordBits] |= 1 << (uint(v) % wordBits) }

// Clear empties the set in place.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// CopyFrom overwrites s with o (same capacity).
func (s Set) CopyFrom(o Set) { copy(s, o) }

// Clone returns an independent copy of s.
//
// test-only: the setcover tests' reference exactCore and
// TestAgainstMapModel.
func (s Set) Clone() Set { return append(Set(nil), s...) }

// Any reports whether the set is non-empty.
func (s Set) Any() bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// And intersects s with o in place.
func (s Set) And(o Set) {
	for i := range s {
		s[i] &= o[i]
	}
}

// AndNot removes every element of o from s in place.
func (s Set) AndNot(o Set) {
	for i := range s {
		s[i] &^= o[i]
	}
}

// AndCount returns |s ∩ o| without materializing the intersection — the
// greedy cover's gain computation.
func (s Set) AndCount(o Set) int {
	n := 0
	for i, w := range s {
		n += bits.OnesCount64(w & o[i])
	}
	return n
}

// SubsetOf reports whether every element of s is in o.
func (s Set) SubsetOf(o Set) bool {
	for i, w := range s {
		if w&^o[i] != 0 {
			return false
		}
	}
	return true
}

// NextSetBit returns the smallest element >= from, or -1 when no such
// element exists. It is the allocation-free iteration primitive of the cover
// engine's hot paths:
//
//	for v := s.NextSetBit(0); v >= 0; v = s.NextSetBit(v + 1) { ... }
//
// It needs no closure, so loop bodies that write to captured locals stay off
// the heap.
func (s Set) NextSetBit(from int) int {
	if from < 0 {
		from = 0
	}
	i := from / wordBits
	if i >= len(s) {
		return -1
	}
	if w := s[i] >> (uint(from) % wordBits); w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for i++; i < len(s); i++ {
		if w := s[i]; w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// AppendTo appends the elements in ascending order to buf and returns it.
func (s Set) AppendTo(buf []int) []int {
	for i, w := range s {
		base := i * wordBits
		for w != 0 {
			buf = append(buf, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return buf
}

// AppendKey appends a compact byte encoding of the set to dst and returns
// it. Two sets of the same capacity encode equally iff they are equal;
// trailing zero words are trimmed so sparse sets over large universes stay
// short. Use string(s.AppendKey(buf[:0])) as a map key.
func (s Set) AppendKey(dst []byte) []byte {
	last := len(s) - 1
	for last >= 0 && s[last] == 0 {
		last--
	}
	for i := 0; i <= last; i++ {
		w := s[i]
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// Pool is a free list of equal-capacity scratch sets. The cover engine's
// branch-and-bound allocates and releases one set per restriction pass;
// pooling keeps that allocation-free after warm-up. A Pool is not safe for
// concurrent use — each worker owns its own (they are scratch state, like
// the evaluators).
type Pool struct {
	n    int
	free []Set
}

// NewPool returns a pool of sets with capacity for elements 0..n-1.
func NewPool(n int) *Pool { return &Pool{n: n} }

// Get returns an empty set from the pool (or a fresh one).
func (p *Pool) Get() Set {
	if k := len(p.free); k > 0 {
		s := p.free[k-1]
		p.free = p.free[:k-1]
		s.Clear()
		return s
	}
	return New(p.n)
}

// Put returns a set obtained from Get to the pool.
func (p *Pool) Put(s Set) { p.free = append(p.free, s) }
