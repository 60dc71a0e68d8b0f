package fscs

import (
	"cmp"
	"fmt"
	"slices"

	"bootstrap/internal/intern"
	"bootstrap/internal/ir"
)

// valueResult aggregates the resolved sources of a pointer at a location.
type valueResult struct {
	objs    []ir.VarID // ascending and distinct once the result is complete
	null    bool       // some path leaves the pointer null
	uninit  bool       // some path reaches the program entry unassigned
	unknown bool       // some path lost precision
}

// finish sorts and deduplicates the objects collected so far, completing
// the result: every reader takes objs as the sorted set it then is.
func (vr *valueResult) finish() *valueResult {
	slices.Sort(vr.objs)
	vr.objs = slices.Compact(vr.objs)
	return vr
}

// inProgress is the conservative answer for a value set whose own
// computation asked for it (a cyclic dependency), and the value-set
// cache's entry for it meanwhile: an entry that is never exported and
// never a final set. Shared and read-only.
var inProgress = &valueResult{unknown: true}

// collectValues computes the flow-sensitive context-insensitive value set
// of ptr just before node at (the paper's Algorithm 3 "computation of A"):
// a backward walk inside at's function, with TVar sources at the entry
// propagated into every caller at every call site, context-insensitively,
// until only terminated sources remain.
func (e *Engine) collectValues(ptr ir.VarID, at ir.Loc) *valueResult {
	vr := &valueResult{}
	type frame struct {
		f  ir.FuncID
		v  ir.VarID
		at ir.Loc // the walk starts just before this node
	}
	// A frame's start is its call site (the initial frame is the only one
	// with a caller-supplied start), so (f, v, callsite) identifies a
	// frame; NoLoc marks the initial frame.
	type frameKey struct {
		f  ir.FuncID
		v  ir.VarID
		cs ir.Loc
	}
	f := e.prog.Node(at).Fn
	seen := map[frameKey]bool{}
	queue := []frame{{f: f, v: ptr, at: at}}
	seen[frameKey{f: f, v: ptr, cs: ir.NoLoc}] = true
	defer e.release(e.hold())
	buf := pop(&e.call.tupBufs)
	defer func() { e.putTups(buf) }()

	for len(queue) > 0 {
		fr := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		buf = e.walkBack(VarTok(fr.v), fr.at, e.summaryLookup, buf[:0])
		for _, t := range buf {
			if !e.satisfiable(t.cond) {
				continue
			}
			switch t.tok.Kind {
			case TAddr:
				vr.objs = append(vr.objs, t.tok.V)
			case TNull:
				vr.null = true
			case TUnknown:
				vr.unknown = true
			case TVar:
				// Source is the value of a variable at fr.f's entry.
				if fr.f == e.prog.Entry {
					vr.uninit = true
					continue
				}
				callers := e.cg.Callers(fr.f)
				if len(callers) == 0 {
					vr.uninit = true // unreachable function: treat as entry
					continue
				}
				for _, g := range callers {
					for _, cs := range e.cg.CallSitesIn(g, fr.f) {
						k := frameKey{f: g, v: t.tok.V, cs: cs}
						if !seen[k] {
							seen[k] = true
							queue = append(queue, frame{f: g, v: t.tok.V, at: cs})
						}
					}
				}
			}
		}
		if e.over {
			vr.unknown = true
			break
		}
	}
	return vr.finish()
}

// satisfiable checks a tuple's points-to constraints against the FSCI
// points-to sets, as Section 3 prescribes ("the satisfiability of cond can
// be checked at the time of computing the frontier"). Unresolvable atoms
// are assumed satisfiable, which is sound for may-aliasing. The true
// condition (no atoms) short-circuits without touching the tables.
func (e *Engine) satisfiable(c CondID) bool {
	if c == TrueCondID {
		return true
	}
	for _, aid := range e.tab.atomIDsOf(c) {
		a := e.tab.atoms.Value(aid)
		switch a.Op {
		case OpPointsTo:
			pt, known := e.PointsToAt(a.X, a.Loc)
			if !known {
				continue
			}
			found := false
			for _, o := range pt {
				if o == a.Y {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		case OpSameTarget:
			px, okx := e.PointsToAt(a.X, a.Loc)
			py, oky := e.PointsToAt(a.Y, a.Loc)
			if okx && oky && len(px) > 0 && len(py) > 0 && !intersects(px, py) {
				return false
			}
		case OpNotPointsTo:
			// Refutable only with must-information: when X definitely
			// points to Y on every path, X ↛ Y is unsatisfiable.
			if e.mustPointTo(a.X, a.Loc, a.Y) {
				return false
			}
		case OpDiffTarget:
			// Refutable only when both sides must-point-to the same
			// single object.
			px, okx := e.PointsToAt(a.X, a.Loc)
			if okx && len(px) == 1 && e.mustPointTo(a.X, a.Loc, px[0]) && e.mustPointTo(a.Y, a.Loc, px[0]) {
				return false
			}
		}
	}
	return true
}

func intersects(a, b []ir.VarID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// valuesAt returns the cached flow-sensitive context-insensitive value set
// of v at loc. While the set is being computed (a cyclic dependency) its
// entry is the inProgress marker, a conservative unknown result. The
// cache is keyed by the packed (v, loc) pair — one map probe on an
// integer, no struct hashing.
func (e *Engine) valuesAt(v ir.VarID, loc ir.Loc) *valueResult {
	k := intern.Pack2x32(int32(v), int32(loc))
	if vr, ok := e.ptsVR[k]; ok {
		return vr
	}
	if e.ptsVR == nil {
		e.ptsVR = map[uint64]*valueResult{}
	}
	e.ptsVR[k] = inProgress
	vr := e.collectValues(v, loc)
	e.ptsVR[k] = vr
	return vr
}

// PointsToAt returns the flow-sensitive context-insensitive points-to set
// of v at loc (the objects v may reference when control is at loc), and
// whether the set is precise. known is false while the set is being
// computed (a cyclic dependency) or when some path lost precision — the
// caller must then fall back conservatively. The slice is the engine's
// memoized, sorted set: callers must not modify it.
func (e *Engine) PointsToAt(v ir.VarID, loc ir.Loc) ([]ir.VarID, bool) {
	vr := e.valuesAt(v, loc)
	return vr.objs, !vr.unknown
}

// mustPointTo reports whether v definitely references y at loc: the value
// set is precise, definitely initialized and non-null, and contains
// exactly y. This soundly refutes NotPointsTo constraints, matching the
// paper's frontier-time satisfiability check.
func (e *Engine) mustPointTo(v ir.VarID, loc ir.Loc, y ir.VarID) bool {
	vr := e.valuesAt(v, loc)
	return !vr.unknown && !vr.null && !vr.uninit && len(vr.objs) == 1 && vr.objs[0] == y
}

// Values returns the objects p may reference at loc under the FSCS
// analysis, with precise=false when some path lost precision (callers
// should then widen with a flow-insensitive fallback).
func (e *Engine) Values(p ir.VarID, loc ir.Loc) ([]ir.VarID, bool) {
	vr := e.collectValues(p, loc)
	return vr.objs, !vr.unknown
}

// ValueState is the full resolution of a pointer's possible values at a
// location, including the non-object outcomes client analyses care about
// (e.g. the null-dereference checker).
type ValueState struct {
	Objs    []ir.VarID // objects p may reference
	Null    bool       // some path leaves p null (incl. after free)
	Uninit  bool       // some path reaches the entry with p unassigned
	Unknown bool       // some path lost precision; Objs is incomplete
}

// ValueState resolves p's value set at loc with all outcome flags.
func (e *Engine) ValueState(p ir.VarID, loc ir.Loc) ValueState {
	vr := e.collectValues(p, loc)
	return ValueState{
		Objs:    vr.objs,
		Null:    vr.null,
		Uninit:  vr.uninit,
		Unknown: vr.unknown,
	}
}

// fallbackMayAlias is the flow-insensitive widening used when the precise
// walk lost information.
func (e *Engine) fallbackMayAlias(p, q ir.VarID) bool {
	if e.fallback != nil {
		return e.fallback.MayAlias(p, q)
	}
	return e.sa.SamePartition(p, q)
}

// MayAlias reports whether p and q may reference the same object at loc
// (Theorem 5: they share a maximally-complete-update-sequence source).
func (e *Engine) MayAlias(p, q ir.VarID, loc ir.Loc) bool {
	if p == q {
		return true
	}
	defer e.release(e.hold())
	vp := e.collectValues(p, loc)
	vq := e.collectValues(q, loc)
	if vp.unknown || vq.unknown {
		return e.fallbackMayAlias(p, q)
	}
	return intersects(vp.objs, vq.objs)
}

// Aliases returns the cluster pointers that may alias p at loc, sorted.
// Per Theorem 6/7 this is exactly Alias(p, St_P) for this cluster; the
// program-wide alias set is the union over the clusters containing p.
func (e *Engine) Aliases(p ir.VarID, loc ir.Loc) []ir.VarID {
	defer e.release(e.hold())
	var out []ir.VarID
	for _, q := range e.cl.Pointers {
		if q != p && e.MayAlias(p, q, loc) {
			out = append(out, q)
		}
	}
	return out
}

// MustAlias conservatively reports whether p and q definitely reference
// the same object at loc: both resolve precisely to the same single
// object on every path, with no null, uninitialized or unknown source.
// This is the predicate lockset-based race detection needs.
func (e *Engine) MustAlias(p, q ir.VarID, loc ir.Loc) bool {
	defer e.release(e.hold())
	vp := e.collectValues(p, loc)
	vq := e.collectValues(q, loc)
	if p == q {
		return !vp.unknown && !vp.null && !vp.uninit && len(vp.objs) > 0
	}
	if vp.unknown || vq.unknown || vp.null || vq.null || vp.uninit || vq.uninit {
		return false
	}
	if len(vp.objs) != 1 || len(vq.objs) != 1 {
		return false
	}
	return vp.objs[0] == vq.objs[0]
}

// Context is a call path from the program entry: the call-site locations
// (OpCall nodes) leading, in order, from the entry function to the queried
// function. An empty context means the query location is in the entry
// function itself.
type Context []ir.Loc

// ValidateContext checks that ctx is a well-formed call path ending in the
// function containing loc.
func (e *Engine) ValidateContext(ctx Context, loc ir.Loc) error {
	cur := e.prog.Entry
	for i, cs := range ctx {
		n := e.prog.Node(cs)
		if n.Stmt.Op != ir.OpCall || n.Stmt.Callee == ir.NoFunc {
			return fmt.Errorf("fscs: context[%d] = L%d is not a direct call", i, cs)
		}
		if n.Fn != cur {
			return fmt.Errorf("fscs: context[%d] = L%d is in %s, want %s", i, cs,
				e.prog.Func(n.Fn).Name, e.prog.Func(cur).Name)
		}
		cur = n.Stmt.Callee
	}
	if e.prog.Node(loc).Fn != cur {
		return fmt.Errorf("fscs: location L%d is in %s but the context ends in %s",
			loc, e.prog.Func(e.prog.Node(loc).Fn).Name, e.prog.Func(cur).Name)
	}
	return nil
}

// collectValuesInContext is the context-sensitive variant of
// collectValues: a TVar source at the entry of the current function is
// chased only through the given call path, splicing the local update
// sequences of f1...fn in order (Section 3, "Computing Flow and
// Context-Sensitive Aliases").
func (e *Engine) collectValuesInContext(ptr ir.VarID, at ir.Loc, ctx Context) *valueResult {
	vr := &valueResult{}
	type frame struct {
		v     ir.VarID
		at    ir.Loc // the walk starts just before this node
		depth int    // index into ctx of the frame's own call site; -1 = entry
	}
	// The start of every pushed frame is determined by its depth (just
	// before ctx[depth+1]), and the initial frame is the only one at depth
	// len(ctx)-1 with a caller-supplied start, so (depth, v) identifies a
	// frame.
	type frameKey struct {
		depth int
		v     ir.VarID
	}
	seen := map[frameKey]bool{}
	queue := []frame{{v: ptr, at: at, depth: len(ctx) - 1}}
	defer e.release(e.hold())
	buf := pop(&e.call.tupBufs)
	defer func() { e.putTups(buf) }()
	for len(queue) > 0 {
		fr := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		k := frameKey{depth: fr.depth, v: fr.v}
		if seen[k] {
			continue
		}
		seen[k] = true
		buf = e.walkBack(VarTok(fr.v), fr.at, e.summaryLookup, buf[:0])
		for _, t := range buf {
			if !e.satisfiable(t.cond) {
				continue
			}
			switch t.tok.Kind {
			case TAddr:
				vr.objs = append(vr.objs, t.tok.V)
			case TNull:
				vr.null = true
			case TUnknown:
				vr.unknown = true
			case TVar:
				if fr.depth < 0 {
					vr.uninit = true
					continue
				}
				cs := ctx[fr.depth]
				queue = append(queue, frame{v: t.tok.V, at: cs, depth: fr.depth - 1})
			}
		}
		if e.over {
			vr.unknown = true
			break
		}
	}
	return vr.finish()
}

// ValuesInContext returns the objects p may reference at loc when reached
// via the given call path.
func (e *Engine) ValuesInContext(p ir.VarID, loc ir.Loc, ctx Context) ([]ir.VarID, bool, error) {
	if err := e.ValidateContext(ctx, loc); err != nil {
		return nil, false, err
	}
	vr := e.collectValuesInContext(p, loc, ctx)
	return vr.objs, !vr.unknown, nil
}

// MustAliasInContext is the context-sensitive must-alias predicate.
func (e *Engine) MustAliasInContext(p, q ir.VarID, loc ir.Loc, ctx Context) (bool, error) {
	if err := e.ValidateContext(ctx, loc); err != nil {
		return false, err
	}
	defer e.release(e.hold())
	vp := e.collectValuesInContext(p, loc, ctx)
	vq := e.collectValuesInContext(q, loc, ctx)
	if vp.unknown || vq.unknown || vp.null || vq.null || vp.uninit || vq.uninit {
		return false, nil
	}
	if p == q {
		return len(vp.objs) > 0, nil
	}
	if len(vp.objs) != 1 || len(vq.objs) != 1 {
		return false, nil
	}
	return vp.objs[0] == vq.objs[0], nil
}

// Run executes the full cluster workload: exit summaries for every
// function that can modify cluster pointers, built in increasing
// Steensgaard-depth order (Algorithm 2's dovetailing), then FSCI value
// sets for every cluster pointer at each of its occurrences in St_P. This
// is the per-cluster unit of work the paper's Table 1 times.
//
// On abort Run returns the cause: ErrBudget, the context's error
// (WithContext), or the hook's error (WithHook). Results computed so far
// remain queryable; queries degrade soundly to the fallback.
//
// When a registry was attached (WithMetrics), Run flushes the engine's
// work counters into it on the way out, clean or not.
func (e *Engine) Run() error {
	// The whole solve is one call: its walks share each function's
	// Prog_P view. The solved engine keeps only its results: later
	// queries are few next to the solve, and a cover's engines all stay
	// alive.
	defer e.release(e.hold())
	err := e.run()
	e.flushMetrics()
	return err
}

func (e *Engine) run() error {
	if !e.checkpoint() {
		return e.cause
	}
	var vars []ir.VarID
	for _, m := range e.mods {
		vars = append(vars[:0], m.vars...)
		slices.SortStableFunc(vars, func(a, b ir.VarID) int { return cmp.Compare(e.sa.Depth(a), e.sa.Depth(b)) })
		for _, v := range vars {
			e.summaryLookup(e.modKey(m.f, v))
			if e.over {
				return e.cause
			}
		}
	}
	// Value sets at each occurrence of each cluster pointer.
	occ := map[ir.VarID][]ir.Loc{}
	for _, loc := range e.cl.Stmts {
		st := e.prog.Node(loc).Stmt
		for _, v := range []ir.VarID{st.Dst, st.Src} {
			if v != ir.NoVar && e.cl.HasPointer(v) {
				occ[v] = append(occ[v], loc)
			}
		}
	}
	for _, p := range e.cl.Pointers {
		for _, loc := range occ[p] {
			e.PointsToAt(p, loc)
			if e.over {
				return e.cause
			}
		}
	}
	return nil
}
