package fscs

import (
	"cmp"
	"sort"

	"bootstrap/internal/intern"
)

// AtomID is a dense interned identity for one constraint Atom within one
// engine's tables.
type AtomID = intern.ID

// CondID is a dense interned identity for one condition (a set of atoms).
// TrueCondID (0) is always the empty conjunction.
type CondID = intern.ID

// TrueCondID is the interned empty (always satisfiable) condition.
const TrueCondID CondID = 0

// condTab hash-conses conditions: every distinct atom set gets one dense
// CondID, stored as its ascending AtomID sequence, so condition equality is
// integer equality and tuple/worklist keys need no heap-allocated strings.
// With memoization on (the default), the With and And operators are O(1)
// map probes after first computation.
//
// A condTab belongs to one engine and is not safe for concurrent use.
type condTab struct {
	atoms *intern.Table[Atom]
	conds *intern.SeqTable

	withMemo intern.PairMemo // (cond, atom) -> cond
	andMemo  intern.PairMemo // (cond, cond) -> cond
	memo     bool

	maxAtoms int

	// Memo traffic, flushed into the metrics registry when Run ends.
	// Plain (non-atomic) ints: a condTab belongs to one engine.
	memoHits   int64
	memoMisses int64
}

// newCondTab returns empty tables that grow on first use: most engines
// intern only a handful of atoms and conditions, and every engine of a
// cover would pay for whatever a pre-size reserved.
func newCondTab(maxAtoms int, memo bool) *condTab {
	return &condTab{
		atoms:    intern.NewTable[Atom](),
		conds:    intern.NewSeqTable(),
		memo:     memo,
		maxAtoms: maxAtoms,
	}
}

// atomID interns one atom.
func (t *condTab) atomID(a Atom) AtomID { return t.atoms.ID(a) }

// atomIDsOf returns c's ascending AtomID sequence (not to be modified).
func (t *condTab) atomIDsOf(c CondID) []AtomID { return t.conds.Value(c) }

// numAtoms returns the number of conjuncts in c.
func (t *condTab) numAtoms(c CondID) int { return len(t.conds.Value(c)) }

// with returns c ∧ a under the width bound: the condition is widened to
// true (TrueCondID) when the conjunction would exceed maxAtoms — the same
// sound weakening as Cond.With.
func (t *condTab) with(c CondID, a Atom) CondID {
	aid := t.atomID(a)
	if t.memo {
		if r, ok := t.withMemo.Get(c, aid); ok {
			t.memoHits++
			return r
		}
	}
	t.memoMisses++
	r := t.withSlow(c, aid)
	if t.memo {
		t.withMemo.Put(c, aid, r)
	}
	return r
}

func (t *condTab) withSlow(c CondID, aid AtomID) CondID {
	seq := t.conds.Value(c)
	ins, added := intern.InsertSorted(seq, aid)
	if !added {
		return c
	}
	if len(ins) > t.maxAtoms {
		return TrueCondID
	}
	return t.conds.ID(ins)
}

// and returns c ∧ d under the width bound, widening to true when the
// deduplicated union exceeds maxAtoms — matching Cond.And exactly.
func (t *condTab) and(c, d CondID) CondID {
	if c == TrueCondID {
		return d
	}
	if d == TrueCondID || c == d {
		return c
	}
	if t.memo {
		if r, ok := t.andMemo.Get(c, d); ok {
			t.memoHits++
			return r
		}
	}
	t.memoMisses++
	merged := intern.MergeSorted(t.conds.Value(c), t.conds.Value(d))
	var r CondID
	if len(merged) > t.maxAtoms {
		r = TrueCondID
	} else {
		r = t.conds.ID(merged)
	}
	if t.memo {
		t.andMemo.Put(c, d, r)
		t.andMemo.Put(d, c, r) // conjunction of atom sets is commutative
	}
	return r
}

// cond materializes the public structural Cond for an interned condition —
// used only at API boundaries (Summary lists, tuple formatting), never on
// the worklist hot path.
func (t *condTab) cond(c CondID) Cond {
	ids := t.conds.Value(c)
	if len(ids) == 0 {
		return TrueCond()
	}
	atoms := make([]Atom, len(ids))
	for i, id := range ids {
		atoms[i] = t.atoms.Value(id)
	}
	// Reuse the structural canonicalization (sort by atom key) so the
	// materialized Cond is bit-for-bit what the legacy path produced.
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].key() < atoms[j].key() })
	out := TrueCond()
	for _, a := range atoms {
		out = out.With(a, len(atoms))
	}
	return out
}

// intern assigns c's CondID: atoms are interned individually and the
// ascending ID set identifies the condition, so the same atom set built in
// any order yields the same CondID.
func (t *condTab) intern(c Cond) CondID {
	atoms := c.Atoms()
	if len(atoms) == 0 {
		return TrueCondID
	}
	ids := make([]AtomID, len(atoms))
	for i, a := range atoms {
		ids[i] = t.atomID(a)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return t.conds.ID(ids)
}

// tup is the interned internal form of a summary tuple, and of one
// (token, condition) outcome of a statement's backward transfer: a
// comparable 12-byte struct. Tuple sets are slices without duplicates:
// summaries and walk results hold a handful of tuples (at most 17 in the
// autofs@1.0 and mt_daapd@0.3 covers), where a scan beats hashing.
type tup struct {
	tok  Token
	cond CondID
}

// cmpTup orders tuples by token, then condition.
func cmpTup(a, b tup) int {
	if a.tok.Kind != b.tok.Kind {
		return int(a.tok.Kind) - int(b.tok.Kind)
	}
	if a.tok.V != b.tok.V {
		return cmp.Compare(a.tok.V, b.tok.V)
	}
	return cmp.Compare(a.cond, b.cond)
}
