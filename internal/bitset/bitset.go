// Package bitset provides a dense, growable bit set over small non-negative
// integers. It is the points-to-set representation used by the Andersen
// inclusion-based solver, where set union and difference dominate running
// time.
package bitset

import (
	"encoding/binary"
	"math/bits"
)

const wordBits = 64

// Set is a growable bit set. The zero value is an empty set ready to use.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity hint n bits.
func New(n int) *Set {
	return &Set{words: make([]uint64, 0, (n+wordBits-1)/wordBits)}
}

// ensure grows the word slice to hold bit i, in one step: a set
// jumping to a high bit would otherwise reallocate once per doubling.
// The grow is explicit rather than append(words, make(...)...), which
// the compiler turns into one allocation only in builds without
// instrumentation (not under -race). Capacity at least doubles, so a
// set climbing bit by bit still grows in amortized constant time.
func (s *Set) ensure(i int) {
	w := i/wordBits + 1
	n := len(s.words)
	if n >= w {
		return
	}
	if w <= cap(s.words) {
		s.words = s.words[:w]
		clear(s.words[n:]) // never trust what lies past len
		return
	}
	words := make([]uint64, w, max(w, 2*cap(s.words)))
	copy(words, s.words)
	s.words = words
}

// Add inserts i and reports whether it was newly added.
func (s *Set) Add(i int) bool {
	if i < 0 {
		panic("bitset: negative element")
	}
	s.ensure(i)
	w, m := i/wordBits, uint64(1)<<(i%wordBits)
	if s.words[w]&m != 0 {
		return false
	}
	s.words[w] |= m
	return true
}

// Remove deletes i and reports whether it was present.
func (s *Set) Remove(i int) bool {
	w := i / wordBits
	if i < 0 || w >= len(s.words) {
		return false
	}
	m := uint64(1) << (i % wordBits)
	if s.words[w]&m == 0 {
		return false
	}
	s.words[w] &^= m
	return true
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	w := i / wordBits
	return i >= 0 && w < len(s.words) && s.words[w]&(1<<(i%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// UnionWith adds every element of t to s and reports whether s changed.
func (s *Set) UnionWith(t *Set) bool {
	if t == nil {
		return false
	}
	if len(s.words) < len(t.words) {
		s.ensure(len(t.words)*wordBits - 1)
	}
	changed := false
	for i, w := range t.words {
		old := s.words[i]
		nw := old | w
		if nw != old {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Reset removes every element but keeps the backing storage, so a hot
// loop can recycle delta sets without reallocating.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// UnionInto ors t \ s into both s and acc, reporting whether s changed.
// It is the delta-propagation kernel: one pass computes the newly added
// bits and accumulates them into the receiver's pending-delta set.
func (s *Set) UnionInto(t, acc *Set) bool {
	if t == nil {
		return false
	}
	if len(s.words) < len(t.words) {
		s.ensure(len(t.words)*wordBits - 1)
	}
	if len(acc.words) < len(t.words) {
		acc.ensure(len(t.words)*wordBits - 1)
	}
	changed := false
	for i, w := range t.words {
		add := w &^ s.words[i]
		if add != 0 {
			s.words[i] |= add
			acc.words[i] |= add
			changed = true
		}
	}
	return changed
}

// DiffFrom returns the elements of t not in s (t \ s) as a fresh set.
// It is used by the Andersen solver to propagate only the delta.
func (s *Set) DiffFrom(t *Set) *Set {
	d := &Set{}
	if t == nil {
		return d
	}
	d.words = make([]uint64, len(t.words))
	for i, w := range t.words {
		if i < len(s.words) {
			w &^= s.words[i]
		}
		d.words[i] = w
	}
	return d
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Equal reports whether s and t contain the same elements.
func (s *Set) Equal(t *Set) bool {
	a, b := s.words, t.words
	if len(a) > len(b) {
		a, b = b, a
	}
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	for _, w := range b[len(a):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn on every element in increasing order. If fn returns
// false, iteration stops early.
func (s *Set) ForEach(fn func(int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &^= 1 << b
		}
	}
}

// Elems returns the elements in increasing order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// AppendCanonical appends a canonical byte encoding of the set to b and
// returns the extended slice: a uvarint word count followed by the
// little-endian 64-bit words, with trailing zero words trimmed first.
// Equal sets produce equal bytes regardless of how they were built
// (capacity growth and removed elements leave no trace), which is what
// content-addressed fingerprints require.
func (s *Set) AppendCanonical(b []byte) []byte {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	b = binary.AppendUvarint(b, uint64(n))
	for _, w := range s.words[:n] {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// Intersects reports whether s and t share any element.
func (s *Set) Intersects(t *Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}
