// Package bitset provides a packed bitset used for coverage (white/grey)
// bookkeeping across the index structures and the algorithm engine. At
// 50k objects a []bool white set occupies 50 kB and thrashes L1 during
// the tight adjacency and leaf scans of the DisC heuristics; the packed
// form is 8x smaller and supports popcount-based white-count refresh.
package bitset

import "math/bits"

const wordBits = 64

// Set is a fixed-length packed bitset over [0, Len()). The zero value is
// an empty set of length 0; use Reset to (re)size it without allocating
// when capacity suffices.
type Set struct {
	words []uint64
	n     int
}

// New returns a zeroed set of length n.
func New(n int) *Set {
	s := &Set{}
	s.Reset(n)
	return s
}

// Len returns the length of the domain.
func (s *Set) Len() int { return s.n }

// Reset resizes the set to n and clears every bit, reusing the backing
// array when it is large enough.
func (s *Set) Reset(n int) {
	w := (n + wordBits - 1) / wordBits
	if cap(s.words) < w {
		s.words = make([]uint64, w)
	} else {
		s.words = s.words[:w]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
}

// Grow extends the domain to n (preserving existing bits); new bits are
// clear. Shrinking is not supported and is a no-op.
func (s *Set) Grow(n int) {
	if n <= s.n {
		return
	}
	w := (n + wordBits - 1) / wordBits
	for len(s.words) < w {
		s.words = append(s.words, 0)
	}
	s.n = n
}

// Fill sets every bit in [0, Len()).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if rem := uint(s.n) & 63; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << rem) - 1
	}
}

// Set sets bit i.
func (s *Set) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s *Set) Clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	return &Set{words: append([]uint64(nil), s.words...), n: s.n}
}

// AppendSet appends the index of every set bit to dst in ascending
// order and returns the extended slice.
func (s *Set) AppendSet(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			dst = append(dst, wi*wordBits+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Count returns the number of set bits (population count).
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// None reports whether no bit is set.
func (s *Set) None() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}
