package fscs

import (
	"slices"
	"sync"

	"bootstrap/internal/ir"
)

// walkBack is the engine's core: the backward interprocedural traversal of
// Algorithms 4 and 5. Starting from startLocs in function f with a tracked
// token (the paper's tuple (p, f, l, m, q, cond) — here p and l are fixed
// by the caller, the worklist carries (m, q, cond)), it propagates the
// token against each statement's effect, branching on unresolved points-to
// relations with constraints per Definition 8, splicing callee summaries at
// call nodes, and appends to out the set of sources: tokens at f's entry
// (TVar) or terminated sequences (TAddr / TNull / TUnknown), each once.
//
// Conditions travel as interned CondIDs and worklist deduplication is one
// epoch-stamped slot per location in a scratch reused across walks — no
// string keys and no per-walk map or slice allocation anywhere on this
// path; the caller owns out and reuses it across walks.
//
// lookup supplies callee exit summaries; during the recursion fixpoint it
// returns the current (possibly still growing) tuple sets.
func (e *Engine) walkBack(f ir.FuncID, start Token, startLocs []ir.Loc, lookup func(ir.FuncID, ir.VarID) []tup, out []tup) []tup {
	if !e.checkpoint() {
		// Cancelled: return no sources. Callers observe e.over and widen
		// to the fallback, so an empty set here stays sound.
		return out
	}
	if start.Kind != TVar || len(startLocs) == 0 {
		// A terminated token is its own source; a TVar queried at the
		// function entry holds whatever it holds on entry.
		return append(out, tup{tok: start, cond: TrueCondID})
	}
	entry := e.prog.Func(f).Entry

	s := e.getScratch()
	defer putScratch(s)

	base := len(out)
	record := func(t tup) {
		// Results are few (one for most walks), so a scan of this walk's
		// own results is the cheapest set.
		if !slices.Contains(out[base:], t) {
			out = append(out, t)
		}
	}
	for _, l := range startLocs {
		s.push(l, start, TrueCondID)
	}

	for len(s.work) > 0 {
		if !e.charge() {
			return out
		}
		it := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]

		n := e.prog.Nodes[it.loc]
		s.outs = e.transfer(s.outs[:0], n, it.tok, it.cond, lookup)
		for _, oc := range s.outs {
			// Without assume nodes there are no path constraints to
			// collect, so terminated sequences record immediately.
			if (oc.tok.Kind != TVar && !e.hasAssumes) || it.loc == entry {
				record(oc)
				continue
			}
			for _, pr := range n.Preds {
				s.push(pr, oc.tok, oc.cond)
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

// wbLink is one (token, condition) pair pushed at a location, with the
// index of the location's next pair in the scratch's arena (0: none).
type wbLink struct {
	tok  Token
	cond CondID
	next uint32
}

// wbSlot is one location's dedup slot in a walk scratch: the epoch of the
// walk that last wrote it and the first pair that walk pushed at the
// location, heading its overflow chain. 20 bytes; most locations a walk
// reaches see exactly one pair, so most pushes touch only this slot.
type wbSlot struct {
	epoch uint32
	wbLink
}

// walkScratch is the reusable traversal state for one live walkBack. The
// dedup set is one epoch-stamped slot per location: a stale epoch means
// the location logically starts empty this walk, so no clearing pass is
// needed between walks. A location's first pair sits in its slot and
// further pairs chain through links, an arena truncated at checkout, so a
// push usually touches one slot and membership is a scan of the small
// per-location fan-in. Hashing a key per push, or a separately allocated
// bucket per location, costs more than the transfer work a tuple does.
type walkScratch struct {
	epoch uint32
	slots []wbSlot // one per program location
	links []wbLink // overflow pairs of this walk; links[0] is unused
	work  []wbItem
	outs  []tup // transfer's results for the item being expanded
}

// push adds (t, c) at loc to the worklist unless this walk has already
// pushed it there.
func (s *walkScratch) push(loc ir.Loc, t Token, c CondID) {
	if s.insert(loc, t, c) {
		s.work = append(s.work, wbItem{loc: loc, tok: t, cond: c})
	}
}

// insert records (t, c) at loc for this walk and reports whether it was
// new.
func (s *walkScratch) insert(loc ir.Loc, t Token, c CondID) bool {
	sl := &s.slots[loc]
	if sl.epoch != s.epoch {
		*sl = wbSlot{epoch: s.epoch, wbLink: wbLink{tok: t, cond: c}}
		return true
	}
	if sl.tok == t && sl.cond == c {
		return false
	}
	for i := sl.next; i != 0; i = s.links[i].next {
		if s.links[i].tok == t && s.links[i].cond == c {
			return false
		}
	}
	s.links = append(s.links, wbLink{tok: t, cond: c, next: sl.next})
	sl.next = uint32(len(s.links) - 1)
	return true
}

// begin starts a new walk on s: every slot becomes stale and the arena
// empty.
func (s *walkScratch) begin() {
	s.epoch++
	if s.epoch == 0 {
		// Epoch wrap-around: every slot stamped 2^32 walks ago would look
		// current, so clear the stamps once per 2^32 walks.
		for i := range s.slots {
			s.slots[i].epoch = 0
		}
		s.epoch = 1
	}
	s.links = s.links[:1]
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
	if s == nil || len(s.slots) < n {
		s = &walkScratch{slots: make([]wbSlot, n), links: make([]wbLink, 1, 64)}
	}
	s.begin()
	return s
}

func putScratch(s *walkScratch) {
	s.work = s.work[:0]
	scratchPool.Put(s)
}

// transfer implements Algorithm 4: the effect of node n's statement on a
// tracked token, backwards. It appends the possible (token, condition)
// outcomes (several when a points-to relation cannot be resolved and both
// cases are tracked under constraints) to outs, the calling walk's own
// buffer, and returns it.
func (e *Engine) transfer(outs []tup, n *ir.Node, tok Token, cond CondID, lookup func(ir.FuncID, ir.VarID) []tup) []tup {
	loc := n.Loc
	st := &n.Stmt // read in place: a Stmt is 64 bytes and this runs per tuple
	q := tok.V
	pass := append(outs, tup{tok: tok, cond: cond}) // tok unchanged; other branches append over it

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
			return append(outs, tup{tok: tok, cond: e.tab.with(cond, Atom{Loc: loc, Op: op, X: st.Dst, Y: st.Src})})
		}
		return pass
	}

	// Statements outside St_P cannot modify V_P variables (Algorithm 1
	// includes every statement whose destination is relevant), so they act
	// as skips — this is the Prog_P slicing of Section 2. Each assignment
	// case below first asks whether the statement can touch q at all (from
	// the statement and the Steensgaard classes) and consults St_P only
	// when it can.
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
		return append(outs, tup{tok: tok, cond: e.tab.with(cond, Atom{Loc: loc, Op: op, X: st.Dst, Y: st.Src})})

	case ir.OpCopy:
		if st.Dst != q || !e.cl.HasStmt(loc) {
			return pass
		}
		return append(outs, tup{tok: VarTok(st.Src), cond: cond})

	case ir.OpAddr:
		if st.Dst != q || !e.cl.HasStmt(loc) {
			return pass
		}
		return append(outs, tup{tok: AddrTok(st.Src), cond: cond})

	case ir.OpNullify:
		if st.Dst != q || !e.cl.HasStmt(loc) {
			return pass
		}
		return append(outs, tup{tok: NullTok(), cond: cond})

	case ir.OpLoad: // dst = *s
		if st.Dst != q || !e.cl.HasStmt(loc) {
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
					outs = append(outs, tup{
						tok:  VarTok(o),
						cond: e.tab.with(cond, Atom{Loc: loc, Op: OpPointsTo, X: s, Y: o}),
					})
				}
			}
			if len(outs) == base {
				return append(outs, tup{tok: UnknownTok(), cond: cond})
			}
			return outs
		}
		// Top-down resolution: s is strictly higher in the hierarchy, so
		// its FSCI points-to set is computable first (Algorithm 2).
		pt, known := e.PointsToAt(s, loc)
		if !known {
			return append(outs, tup{tok: UnknownTok(), cond: cond})
		}
		for _, o := range pt {
			if !e.cl.HasVar(o) {
				continue
			}
			outs = append(outs, tup{
				tok:  VarTok(o),
				cond: e.tab.with(cond, Atom{Loc: loc, Op: OpPointsTo, X: s, Y: o}),
			})
		}
		if len(outs) == base {
			// s points nowhere the analysis tracks: the load yields an
			// unconstrained value.
			return append(outs, tup{tok: UnknownTok(), cond: cond})
		}
		return outs

	case ir.OpStore: // *d = r
		d, r := st.Dst, st.Src
		// The store can touch q only if q's location class is what d
		// points at under Steensgaard.
		if e.sa.LocClass(q) != e.sa.ContentClass(d) || !e.cl.HasStmt(loc) {
			return pass
		}
		both := func() []tup {
			return append(outs,
				tup{tok: VarTok(r), cond: e.tab.with(cond, Atom{Loc: loc, Op: OpPointsTo, X: d, Y: q})},
				tup{tok: tok, cond: e.tab.with(cond, Atom{Loc: loc, Op: OpNotPointsTo, X: d, Y: q})},
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
				return append(outs, tup{tok: UnknownTok(), cond: cond})
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
		for _, t := range lookup(g, q) {
			outs = append(outs, tup{tok: t.tok, cond: e.tab.and(cond, t.cond)})
		}
		// An empty (provisional) summary yields no outcomes this round;
		// the fixpoint revisits once the callee summary grows.
		return outs
	}
	return pass
}
