package fscs

import (
	"sync"

	"bootstrap/internal/ir"
)

// walkBack is the engine's core: the backward interprocedural traversal of
// Algorithms 4 and 5. Starting from startLocs in function f with a tracked
// token (the paper's tuple (p, f, l, m, q, cond) — here p and l are fixed
// by the caller, the worklist carries (m, q, cond)), it propagates the
// token against each statement's effect, branching on unresolved points-to
// relations with constraints per Definition 8, splicing callee summaries at
// call nodes, and returning the set of sources: tokens at f's entry (TVar)
// or terminated sequences (TAddr / TNull / TUnknown).
//
// Conditions travel as interned CondIDs and worklist deduplication is an
// epoch-stamped per-location bucket reused across walks — no string keys
// and no per-walk map or slice allocation anywhere on this path.
//
// lookup supplies callee exit summaries; during the recursion fixpoint it
// returns the current (possibly still growing) tuple sets.
func (e *Engine) walkBack(f ir.FuncID, start Token, startLocs []ir.Loc, lookup func(ir.FuncID, ir.VarID) tupSet) tupSet {
	out := tupSet{}
	if !e.checkpoint() {
		// Cancelled: return no sources. Callers observe e.over and widen
		// to the fallback, so an empty set here stays sound.
		return out
	}
	if start.Kind != TVar {
		out.add(tup{tok: start, cond: TrueCondID})
		return out
	}
	entry := e.prog.Func(f).Entry

	s := e.getScratch()
	defer putScratch(s)

	record := func(t Token, c CondID) {
		out.add(tup{tok: t, cond: c})
	}
	push := func(loc ir.Loc, t Token, c CondID) {
		if t.Kind != TVar && !e.hasAssumes {
			// No path constraints to collect: terminated sequences record
			// immediately.
			record(t, c)
			return
		}
		if s.stamp[loc] != s.epoch {
			s.stamp[loc] = s.epoch
			s.bkt[loc] = s.bkt[loc][:0]
		}
		b := s.bkt[loc]
		for i := range b {
			if b[i].tok == t && b[i].cond == c {
				return
			}
		}
		s.bkt[loc] = append(b, wbEntry{tok: t, cond: c})
		s.work = append(s.work, wbItem{loc: loc, tok: t, cond: c})
	}
	if len(startLocs) == 0 {
		// Querying at the function entry: the token's value is whatever it
		// holds on entry.
		record(start, TrueCondID)
		return out
	}
	for _, l := range startLocs {
		push(l, start, TrueCondID)
	}

	for len(s.work) > 0 {
		if !e.charge() {
			return out
		}
		it := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]

		s.outs = e.transfer(s.outs[:0], it.loc, it.tok, it.cond, lookup)
		n := e.prog.Node(it.loc)
		for _, oc := range s.outs {
			if oc.tok.Kind != TVar && !e.hasAssumes {
				record(oc.tok, oc.cond)
				continue
			}
			if it.loc == entry {
				record(oc.tok, oc.cond)
				continue
			}
			for _, pr := range n.Preds {
				push(pr, oc.tok, oc.cond)
			}
		}
	}
	return out
}

// wbItem is one walkBack worklist entry: a tracked token with its path
// condition at a location.
type wbItem struct {
	loc  ir.Loc
	tok  Token
	cond CondID
}

// wbEntry is a (token, condition) pair in a per-location dedup bucket.
type wbEntry struct {
	tok  Token
	cond CondID
}

// walkScratch is the reusable traversal state for one live walkBack. The
// dedup set is an epoch-stamped bucket per location: a stale stamp means
// the bucket logically starts empty this walk, so no clearing pass is
// needed between walks, and membership is a linear scan of the small
// per-location fan-in instead of hashing a 16-byte struct key. Profiles
// showed the per-call map[item]bool — its allocation plus AES hashing —
// dominating whole-cascade CPU.
type walkScratch struct {
	epoch uint32
	stamp []uint32
	bkt   [][]wbEntry
	work  []wbItem
	outs  []outcome // transfer's results for the item being expanded
}

// scratchPool holds the idle walk scratches of every engine in the
// process, so the program-sized scratch retained tracks the walks live at
// once (workers × nesting depth) instead of clusters × program size.
var scratchPool sync.Pool

// getScratch checks a scratch out of the pool. walkBack re-enters itself
// through summary lookups and FSCI value resolution, so each live walk
// owns a scratch. One shorter than the engine's program (left by a smaller
// program, or from before ApplyEdit inserted nodes) is replaced.
func (e *Engine) getScratch() *walkScratch {
	n := len(e.prog.Nodes)
	s, _ := scratchPool.Get().(*walkScratch)
	if s == nil || len(s.stamp) < n {
		s = &walkScratch{stamp: make([]uint32, n), bkt: make([][]wbEntry, n)}
	}
	s.epoch++
	if s.epoch == 0 {
		// Stamp wrap-around: every stale stamp would look current, so force
		// a full reset once per 2^32 walks.
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	return s
}

func putScratch(s *walkScratch) {
	s.work = s.work[:0]
	scratchPool.Put(s)
}

// outcome is one (token, condition) result of pushing a token backwards
// through a statement.
type outcome struct {
	tok  Token
	cond CondID
}

// transfer implements Algorithm 4: the effect of the statement at loc on a
// tracked token, backwards. It appends the possible outcomes (several when
// a points-to relation cannot be resolved and both cases are tracked under
// constraints) to outs, the calling walk's own buffer, and returns it.
func (e *Engine) transfer(outs []outcome, loc ir.Loc, tok Token, cond CondID, lookup func(ir.FuncID, ir.VarID) tupSet) []outcome {
	n := e.prog.Node(loc)
	st := n.Stmt
	q := tok.V
	pass := append(outs, outcome{tok: tok, cond: cond}) // tok unchanged; other branches append over it

	// A terminated token (null / &obj / unknown) is walked further only
	// to pick up the branch constraints guarding its path: assume nodes
	// strengthen its condition; everything else is transparent.
	if tok.Kind != TVar {
		if st.Op == ir.OpAssumeEq || st.Op == ir.OpAssumeNeq {
			if !e.cl.HasVar(st.Dst) || !e.cl.HasVar(st.Src) {
				return pass
			}
			op := OpSameTarget
			if st.Op == ir.OpAssumeNeq {
				op = OpDiffTarget
			}
			return append(outs, outcome{tok: tok, cond: e.tab.with(cond, Atom{Loc: loc, Op: op, X: st.Dst, Y: st.Src})})
		}
		return pass
	}

	// Statements outside St_P cannot modify V_P variables (Algorithm 1
	// includes every statement whose destination is relevant), so they act
	// as skips — this is the Prog_P slicing of Section 2.
	switch st.Op {
	case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpStore, ir.OpNullify:
		if !e.cl.HasStmt(loc) {
			return pass
		}
	}

	switch st.Op {
	case ir.OpSkip, ir.OpRet, ir.OpTouch:
		return pass

	case ir.OpAssumeEq, ir.OpAssumeNeq:
		// Path sensitivity (Section 3): the walk crossed a branch arm
		// guarded by a pointer (in)equality; record it as a same-target /
		// different-target constraint (Definition 8) so refutable tuples
		// are weeded out at satisfiability time. Only constraints over
		// tracked (V_P) pointers are recorded — the FSCI points-to sets
		// used to refute them are only computed for the cluster's slice.
		if !e.cl.HasVar(st.Dst) || !e.cl.HasVar(st.Src) {
			return pass
		}
		op := OpSameTarget
		if st.Op == ir.OpAssumeNeq {
			op = OpDiffTarget
		}
		return append(outs, outcome{tok: tok, cond: e.tab.with(cond, Atom{Loc: loc, Op: op, X: st.Dst, Y: st.Src})})

	case ir.OpCopy:
		if st.Dst == q {
			return append(outs, outcome{tok: VarTok(st.Src), cond: cond})
		}
		return pass

	case ir.OpAddr:
		if st.Dst == q {
			return append(outs, outcome{tok: AddrTok(st.Src), cond: cond})
		}
		return pass

	case ir.OpNullify:
		if st.Dst == q {
			return append(outs, outcome{tok: NullTok(), cond: cond})
		}
		return pass

	case ir.OpLoad: // dst = *s
		if st.Dst != q {
			return pass
		}
		s := st.Src
		base := len(outs)
		if e.sa.SamePartition(s, q) {
			// Cyclic case: s and the tracked pointer share a partition, so
			// the FSCI points-to set of s is not available yet; enumerate
			// the possible objects under constraints (Definition 8).
			for _, o := range e.cl.Vars {
				if e.sa.LocClass(o) == e.sa.ContentClass(s) {
					outs = append(outs, outcome{
						tok:  VarTok(o),
						cond: e.tab.with(cond, Atom{Loc: loc, Op: OpPointsTo, X: s, Y: o}),
					})
				}
			}
			if len(outs) == base {
				return append(outs, outcome{tok: UnknownTok(), cond: cond})
			}
			return outs
		}
		// Top-down resolution: s is strictly higher in the hierarchy, so
		// its FSCI points-to set is computable first (Algorithm 2).
		pt, known := e.PointsToAt(s, loc)
		if !known {
			return append(outs, outcome{tok: UnknownTok(), cond: cond})
		}
		for _, o := range pt {
			if !e.cl.HasVar(o) {
				continue
			}
			outs = append(outs, outcome{
				tok:  VarTok(o),
				cond: e.tab.with(cond, Atom{Loc: loc, Op: OpPointsTo, X: s, Y: o}),
			})
		}
		if len(outs) == base {
			// s points nowhere the analysis tracks: the load yields an
			// unconstrained value.
			return append(outs, outcome{tok: UnknownTok(), cond: cond})
		}
		return outs

	case ir.OpStore: // *d = r
		d, r := st.Dst, st.Src
		// The store can touch q only if q's location class is what d
		// points at under Steensgaard.
		if e.sa.LocClass(q) != e.sa.ContentClass(d) {
			return pass
		}
		both := func() []outcome {
			return append(outs,
				outcome{tok: VarTok(r), cond: e.tab.with(cond, Atom{Loc: loc, Op: OpPointsTo, X: d, Y: q})},
				outcome{tok: tok, cond: e.tab.with(cond, Atom{Loc: loc, Op: OpNotPointsTo, X: d, Y: q})},
			)
		}
		if e.sa.SamePartition(d, q) {
			return both() // cyclic case: track constraints
		}
		pt, known := e.PointsToAt(d, loc)
		if !known {
			return both()
		}
		for _, o := range pt {
			if o == q {
				return both()
			}
		}
		return pass // d provably never points at q here

	case ir.OpCall:
		g := st.Callee
		if g == ir.NoFunc {
			// Undevirtualized indirect call: conservatively unknown for
			// any pointer it might modify.
			if e.cl.HasVar(q) {
				return append(outs, outcome{tok: UnknownTok(), cond: cond})
			}
			return pass
		}
		if !e.Modifies(g, q) {
			// Executing g has no effect on q: jump over the call
			// (Algorithm 5, line 17).
			return pass
		}
		// Splice g's exit summary for q (Algorithm 5, lines 10-13): each
		// source continues in the caller just before the call node, where
		// the parameter-binding copies rebind formals to actuals.
		for t := range lookup(g, q) {
			outs = append(outs, outcome{tok: t.tok, cond: e.tab.and(cond, t.cond)})
		}
		// An empty (provisional) summary yields no outcomes this round;
		// the fixpoint revisits once the callee summary grows.
		return outs
	}
	return pass
}
