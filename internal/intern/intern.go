// Package intern provides hash-consing substrates for the analysis hot
// paths: dense-integer interning of comparable values and of int32
// sequences, plus a memo table for binary operators over interned IDs.
//
// Interning turns structural equality into integer equality (O(1) compare,
// no heap-allocated keys) and makes memoization of operators like
// condition conjunction a single map probe. The FSCS engine interns its
// constraint atoms, tokens and conditions through these tables; IDs are
// assigned densely in first-intern order, so a fixed interning schedule
// yields a fixed ID assignment (determinism within one table instance).
//
// Tables are NOT safe for concurrent use; each per-cluster engine owns its
// own tables, matching the engine's single-threaded discipline.
package intern

import (
	"encoding/binary"
	"math/bits"
)

// ID is a dense interned identifier. IDs count up from 0 in first-intern
// order within one table.
type ID = int32

// Table interns comparable values to dense IDs. Its map is made on the
// first insert: most per-cluster tables intern nothing.
type Table[K comparable] struct {
	ids  map[K]ID
	vals []K
}

// NewTable returns an empty table; it grows on first use.
func NewTable[K comparable]() *Table[K] {
	return &Table[K]{}
}

// ID interns v, assigning the next dense ID on first sight.
func (t *Table[K]) ID(v K) ID {
	if id, ok := t.ids[v]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = map[K]ID{}
	}
	id := ID(len(t.vals))
	t.ids[v] = id
	t.vals = append(t.vals, v)
	return id
}

// Lookup returns v's ID without interning.
func (t *Table[K]) Lookup(v K) (ID, bool) {
	id, ok := t.ids[v]
	return id, ok
}

// Value returns the value interned as id.
func (t *Table[K]) Value(id ID) K { return t.vals[id] }

// Len returns the number of distinct values interned.
func (t *Table[K]) Len() int { return len(t.vals) }

// SeqTable interns int32 sequences (e.g. sorted atom-ID lists) to dense
// IDs. The empty sequence always interns as ID 0. Its map and value list
// are made on the first insert of a non-empty sequence.
type SeqTable struct {
	ids  map[string]ID
	vals [][]ID
}

// onlyEmpty is the value list of every table that holds only the empty
// sequence. Its capacity is its length, so a table's first insert
// copies it out, and nothing writes it.
var onlyEmpty = [][]ID{nil}

// NewSeqTable returns a sequence table holding only the empty sequence,
// pre-interned as ID 0; it grows on first use.
func NewSeqTable() *SeqTable {
	return &SeqTable{vals: onlyEmpty[:1:1]}
}

// seqKey encodes a sequence as a byte-string map key.
func seqKey(seq []ID) string {
	b := make([]byte, 4*len(seq))
	for i, v := range seq {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return string(b)
}

// ID interns seq (copied; the caller may reuse its backing array).
func (t *SeqTable) ID(seq []ID) ID {
	if len(seq) == 0 {
		return 0
	}
	k := seqKey(seq)
	if id, ok := t.ids[k]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = map[string]ID{}
	}
	id := ID(len(t.vals))
	t.ids[k] = id
	t.vals = append(t.vals, append([]ID(nil), seq...))
	return id
}

// Value returns the sequence interned as id. The caller must not modify it.
func (t *SeqTable) Value(id ID) []ID { return t.vals[id] }

// Len returns the number of distinct sequences interned (≥ 1: the empty
// sequence).
func (t *SeqTable) Len() int { return len(t.vals) }

// PairMemo memoizes a binary operator over IDs: (a, b) -> result. The zero
// value is ready to use.
type PairMemo struct {
	m map[uint64]ID
}

func pairKey(a, b ID) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// Get returns the memoized result for (a, b).
func (m *PairMemo) Get(a, b ID) (ID, bool) {
	v, ok := m.m[pairKey(a, b)]
	return v, ok
}

// Put records the result for (a, b).
func (m *PairMemo) Put(a, b, v ID) {
	if m.m == nil {
		m.m = make(map[uint64]ID, 64)
	}
	m.m[pairKey(a, b)] = v
}

// Len returns the number of memoized pairs.
func (m *PairMemo) Len() int { return len(m.m) }

// InsertSorted returns seq with v inserted in ascending order, reporting
// whether v was newly inserted (false if already present). The returned
// slice may share seq's backing array only when nothing was inserted.
func InsertSorted(seq []ID, v ID) ([]ID, bool) {
	lo, hi := 0, len(seq)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if seq[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(seq) && seq[lo] == v {
		return seq, false
	}
	out := make([]ID, 0, len(seq)+1)
	out = append(out, seq[:lo]...)
	out = append(out, v)
	out = append(out, seq[lo:]...)
	return out, true
}

// MergeSorted returns the deduplicated ascending merge of two sorted
// sequences. When one operand already contains the other, it is returned
// unchanged (no allocation).
func MergeSorted(a, b []ID) []ID {
	if subsetSorted(b, a) {
		return a
	}
	if subsetSorted(a, b) {
		return b
	}
	out := make([]ID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// subsetSorted reports whether every element of a occurs in b (both
// ascending).
func subsetSorted(a, b []ID) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j >= len(b) || b[j] != v {
			return false
		}
		j++
	}
	return true
}

// Pack2x32 packs two 32-bit values into one uint64 key — the idiom for
// integer-keyed caches like (variable, location) points-to memos.
func Pack2x32(hi, lo int32) uint64 {
	return uint64(uint32(hi))<<32 | uint64(uint32(lo))
}

// Unpack2x32 inverts Pack2x32.
func Unpack2x32(k uint64) (hi, lo int32) {
	return int32(uint32(k >> 32)), int32(uint32(k))
}

// Grow returns s with at least n elements, the added ones zero: the
// mark arrays of a pooled scratch, indexed by a dense id, grow this way
// to the largest program they meet.
func Grow[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// NextPow2 rounds n up to a power of two (minimum 1). Ring buffers use it
// to keep index masking a single AND.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
