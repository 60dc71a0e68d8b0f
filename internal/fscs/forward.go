package fscs

import (
	"sort"

	"bootstrap/internal/ir"
)

// This file implements the second phase of the paper's Algorithm 3 as
// presented: the "Computation of Q". Having computed the set A of sources
// with maximally complete update sequences to p (the backward phase,
// collectValues), the paper propagates those sources *forward* from the
// program entry and collects every pointer holding one of them at the
// query location — the FSCI alias set.
//
// The default query path (Engine.Aliases) instead intersects backward
// value sets, which answers the same question one cluster pointer at a
// time; ForwardAliases finds all holders in one forward sweep and exists
// both as the faithful rendition of the paper's algorithm and as a
// cross-check (tests assert it covers the exact oracle and the
// intersection-based result).

// fwdItem tracks one pointer holding the propagated source value when
// control reaches loc (before executing it). It is a comparable struct —
// the worklist's seen-set keys on it directly, no string building.
type fwdItem struct {
	loc    ir.Loc
	holder ir.VarID
	cond   CondID
}

// ForwardHolders propagates the value named by src (an object address)
// forward from its creation points and returns the pointers that may hold
// it when control reaches loc. Interprocedural propagation is
// context-insensitive: values enter callees at every call site and leave
// through every return site, and a call additionally passes the holder
// through unchanged (a sound may-approximation when the callee could kill
// it).
func (e *Engine) ForwardHolders(src Token, loc ir.Loc) []ir.VarID {
	if src.Kind != TAddr || !e.checkpoint() {
		return nil
	}
	obj := src.V

	holders := map[ir.VarID]bool{}
	seen := map[fwdItem]bool{}
	var work []fwdItem
	push := func(l ir.Loc, h ir.VarID, c CondID) {
		it := fwdItem{loc: l, holder: h, cond: c}
		if seen[it] {
			return
		}
		seen[it] = true
		work = append(work, it)
	}

	// Gen points: every x = &obj in the slice starts a propagation with x
	// holding the value after the statement executes.
	for _, l := range e.cl.Stmts {
		st := e.prog.Node(l).Stmt
		if st.Op == ir.OpAddr && st.Src == obj {
			for _, s := range e.prog.Node(l).Succs {
				push(s, st.Dst, TrueCondID)
			}
		}
	}

	for len(work) > 0 {
		if !e.charge() {
			break
		}
		it := work[len(work)-1]
		work = work[:len(work)-1]

		if it.loc == loc && e.satisfiable(it.cond) {
			holders[it.holder] = true
		}
		outs := e.fwdTransfer(it)
		n := e.prog.Node(it.loc)
		st := n.Stmt
		for _, oc := range outs {
			// Call nodes additionally propagate into the callee (the
			// value may be observed or killed there)…
			if st.Op == ir.OpCall && st.Callee != ir.NoFunc {
				g := e.prog.Func(st.Callee)
				push(g.Entry, oc.holder, oc.cond)
			}
			// …and exits propagate to every return site.
			if st.Op == ir.OpRet {
				for _, cs := range e.cg.CallSitesOf(n.Fn) {
					for _, s := range e.prog.Node(cs).Succs {
						push(s, oc.holder, oc.cond)
					}
				}
			}
			for _, s := range n.Succs {
				push(s, oc.holder, oc.cond)
			}
		}
	}
	out := make([]ir.VarID, 0, len(holders))
	for h := range holders {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fwdOut is a post-statement holder.
type fwdOut struct {
	holder ir.VarID
	cond   CondID
}

// fwdTransfer applies the statement at it.loc to a holder, forward: copies
// and loads spread the value, assignments to the holder kill it (on this
// item; other items may keep it), stores spread it into pointed-to cells.
func (e *Engine) fwdTransfer(it fwdItem) []fwdOut {
	n := e.prog.Node(it.loc)
	st := n.Stmt
	h, cond := it.holder, it.cond
	keep := []fwdOut{{holder: h, cond: cond}}

	relevant := e.cl.HasStmt(it.loc)
	switch st.Op {
	case ir.OpCopy:
		if !relevant {
			return keep
		}
		if st.Src == h && st.Dst != h {
			return append(keep, fwdOut{holder: st.Dst, cond: cond})
		}
		if st.Dst == h && st.Src != h {
			return nil // killed (a self-copy preserves the value)
		}
		return keep
	case ir.OpAddr, ir.OpNullify:
		if relevant && st.Dst == h {
			return nil // overwritten (a fresh gen point restarts &obj)
		}
		return keep
	case ir.OpLoad: // dst = *s
		if !relevant {
			return keep
		}
		var outs []fwdOut
		killed := st.Dst == h
		// If the value sits in a cell s may reference, it flows to dst.
		if e.sa.LocClass(h) == e.sa.ContentClass(st.Src) {
			c := e.tab.with(cond, Atom{Loc: it.loc, Op: OpPointsTo, X: st.Src, Y: h})
			outs = append(outs, fwdOut{holder: st.Dst, cond: c})
		}
		if !killed {
			outs = append(outs, fwdOut{holder: h, cond: cond})
		}
		return outs
	case ir.OpStore: // *d = r
		if !relevant {
			return keep
		}
		outs := keep
		if st.Src == h {
			// The value flows into every cell d may reference.
			pt, known := e.PointsToAt(st.Dst, it.loc)
			if known {
				for _, o := range pt {
					if e.cl.HasVar(o) {
						c := e.tab.with(cond, Atom{Loc: it.loc, Op: OpPointsTo, X: st.Dst, Y: o})
						outs = append(outs, fwdOut{holder: o, cond: c})
					}
				}
			} else {
				for _, o := range e.sa.PointsToVars(st.Dst) {
					if e.cl.HasVar(o) {
						c := e.tab.with(cond, Atom{Loc: it.loc, Op: OpPointsTo, X: st.Dst, Y: o})
						outs = append(outs, fwdOut{holder: o, cond: c})
					}
				}
			}
		}
		// A holder that d may reference survives only on the ↛ branch.
		if e.sa.LocClass(h) == e.sa.ContentClass(st.Dst) && st.Src != h {
			outs = outs[1:] // drop the unconditional keep
			outs = append(outs, fwdOut{
				holder: h,
				cond:   e.tab.with(cond, Atom{Loc: it.loc, Op: OpNotPointsTo, X: st.Dst, Y: h}),
			})
		}
		return outs
	case ir.OpAssumeEq, ir.OpAssumeNeq:
		if !e.cl.HasVar(st.Dst) || !e.cl.HasVar(st.Src) {
			return keep
		}
		op := OpSameTarget
		if st.Op == ir.OpAssumeNeq {
			op = OpDiffTarget
		}
		return []fwdOut{{holder: h, cond: e.tab.with(cond, Atom{Loc: it.loc, Op: op, X: st.Dst, Y: st.Src})}}
	}
	return keep
}

// ForwardAliases is the paper's Algorithm 3 end to end: the backward
// phase computes the sources A of p at loc; the forward phase collects
// every cluster pointer holding one of those sources at loc.
func (e *Engine) ForwardAliases(p ir.VarID, loc ir.Loc) []ir.VarID {
	defer e.release(e.hold())
	vr := e.collectValues(p, loc)
	set := map[ir.VarID]bool{}
	if vr.unknown {
		// Fall back exactly like MayAlias does.
		for _, q := range e.cl.Pointers {
			if q != p && e.fallbackMayAlias(p, q) {
				set[q] = true
			}
		}
	}
	for _, o := range vr.objs {
		for _, h := range e.ForwardHolders(AddrTok(o), loc) {
			if h != p && e.cl.HasPointer(h) {
				set[h] = true
			}
		}
	}
	out := make([]ir.VarID, 0, len(set))
	for q := range set {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
