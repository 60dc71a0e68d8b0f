package check

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"bootstrap/internal/core"
	"bootstrap/internal/ir"
	"bootstrap/internal/lockset"
)

// UAFPass detects use-after-free and double-free: free(p) lowers to a
// Free-marked nullify (paper, Remark 1), and the pass tracks the freed
// pointers and freed objects forward through each root's interprocedural
// CFG as a may-analysis (union at joins). A later dereference of a freed
// pointer — directly, through a copy, or through any pointer whose
// flow-sensitive value set lies in the freed objects — is a
// use-after-free; a second free of the same pointer or object is a
// double-free.
//
// Object resolution rides the demand-driven cascade: PointsToContext at
// the free site yields the pre-free value set (the analysis state on
// entry to the free node). Imprecise (deadline-degraded) value sets are
// never used to report object-overlap findings — degradation loses
// findings and flags the pass incomplete, it never fabricates them.
//
// The dataflow roots are the program entry and the thread entries of
// the lockset model (lockset.ThreadPrefix).
type UAFPass struct{}

// Name implements Pass.
func (p *UAFPass) Name() string { return "uaf" }

// Doc implements Pass.
func (p *UAFPass) Doc() string {
	return "flow-sensitive use-after-free and double-free detection"
}

// Footprint implements Pass: clusters containing a dereferenced or a
// freed pointer.
func (p *UAFPass) Footprint(prog *ir.Program) func(*ir.Var) bool {
	deref := derefFootprint(prog)
	freed := map[ir.VarID]bool{}
	for _, n := range prog.Nodes {
		if n.Stmt.Op == ir.OpNullify && n.Stmt.Free {
			freed[n.Stmt.Dst] = true
		}
	}
	return func(v *ir.Var) bool { return deref(v) || freed[v.ID] }
}

// uafState is the may-state at a program point: pointers known freed
// (pointer variable -> earliest witnessing free site, killed by
// reassignment) and objects known freed (object -> earliest witness,
// never killed — the allocation is gone on every path through a free).
type uafState struct {
	ptrs map[ir.VarID]ir.Loc
	objs map[ir.VarID]ir.Loc
}

func (s *uafState) clone() *uafState {
	c := &uafState{ptrs: make(map[ir.VarID]ir.Loc, len(s.ptrs)), objs: make(map[ir.VarID]ir.Loc, len(s.objs))}
	for k, v := range s.ptrs {
		c.ptrs[k] = v
	}
	for k, v := range s.objs {
		c.objs[k] = v
	}
	return c
}

// join unions t into s (min witness loc for determinism), reporting
// whether s changed.
func (s *uafState) join(t *uafState) bool {
	if t == nil {
		return false
	}
	changed := false
	for k, v := range t.ptrs {
		if old, ok := s.ptrs[k]; !ok || v < old {
			s.ptrs[k] = v
			changed = true
		}
	}
	for k, v := range t.objs {
		if old, ok := s.objs[k]; !ok || v < old {
			s.objs[k] = v
			changed = true
		}
	}
	return changed
}

func (s *uafState) equalKeys(t *uafState) bool {
	if len(s.ptrs) != len(t.ptrs) || len(s.objs) != len(t.objs) {
		return false
	}
	for k, v := range t.ptrs {
		if old, ok := s.ptrs[k]; !ok || old != v {
			return false
		}
	}
	for k, v := range t.objs {
		if old, ok := s.objs[k]; !ok || old != v {
			return false
		}
	}
	return true
}

// uafRun carries one Run's dataflow state.
type uafRun struct {
	ctx  context.Context
	a    *core.Analysis
	prog *ir.Program
	in   map[ir.Loc]*uafState
}

// transfer applies the node at loc to a copy of s.
func (r *uafRun) transfer(loc ir.Loc, s *uafState) *uafState {
	st := r.prog.Node(loc).Stmt
	switch st.Op {
	case ir.OpNullify:
		out := s.clone()
		if st.Free {
			// The freed objects are whatever the pointer may reference
			// just before the free — the node's entry state.
			if objs, precise := r.a.PointsToContext(r.ctx, st.Dst, loc); precise {
				for _, o := range objs {
					if old, ok := out.objs[o]; !ok || loc < old {
						out.objs[o] = loc
					}
				}
			}
			out.ptrs[st.Dst] = loc
		} else {
			// p = null: the pointer no longer dangles.
			delete(out.ptrs, st.Dst)
		}
		return out
	case ir.OpCopy:
		out := s.clone()
		if w, ok := out.ptrs[st.Src]; ok {
			out.ptrs[st.Dst] = w // the copy dangles too
		} else {
			delete(out.ptrs, st.Dst)
		}
		return out
	case ir.OpAddr, ir.OpLoad:
		if _, ok := s.ptrs[st.Dst]; ok {
			out := s.clone()
			delete(out.ptrs, st.Dst) // reassignment revives the pointer
			return out
		}
	}
	return s
}

// flowFunction propagates the state through one function from its entry
// state, updating r.in, and returns the states observed at call sites.
func (r *uafRun) flowFunction(f ir.FuncID, entry *uafState) map[ir.FuncID]*uafState {
	fn := r.prog.Func(f)
	callEntries := map[ir.FuncID]*uafState{}
	if r.in[fn.Entry] == nil {
		r.in[fn.Entry] = &uafState{ptrs: map[ir.VarID]ir.Loc{}, objs: map[ir.VarID]ir.Loc{}}
	}
	r.in[fn.Entry].join(entry)
	work := []ir.Loc{fn.Entry}
	for len(work) > 0 {
		loc := work[len(work)-1]
		work = work[:len(work)-1]
		out := r.transfer(loc, r.in[loc])
		n := r.prog.Node(loc)
		if n.Stmt.Op == ir.OpCall && n.Stmt.Callee != ir.NoFunc {
			cur := callEntries[n.Stmt.Callee]
			if cur == nil {
				cur = &uafState{ptrs: map[ir.VarID]ir.Loc{}, objs: map[ir.VarID]ir.Loc{}}
				callEntries[n.Stmt.Callee] = cur
			}
			cur.join(r.in[loc])
		}
		for _, succ := range n.Succs {
			cur := r.in[succ]
			if cur == nil {
				cur = &uafState{ptrs: map[ir.VarID]ir.Loc{}, objs: map[ir.VarID]ir.Loc{}}
				r.in[succ] = cur
				cur.join(out)
				work = append(work, succ)
				continue
			}
			if !cur.equalKeys(out) && cur.join(out) {
				work = append(work, succ)
			}
		}
	}
	return callEntries
}

// Run implements Pass.
func (p *UAFPass) Run(ctx context.Context, a *core.Analysis) ([]Diagnostic, error) {
	prog := a.Prog
	var roots []ir.FuncID
	if prog.Entry != ir.NoFunc {
		roots = append(roots, prog.Entry)
	}
	for _, f := range prog.Funcs {
		if strings.HasPrefix(f.Name, lockset.ThreadPrefix) {
			roots = append(roots, f.ID)
		}
	}

	var out []Diagnostic
	seen := map[string]bool{}
	for _, root := range roots {
		r := &uafRun{ctx: ctx, a: a, prog: prog, in: map[ir.Loc]*uafState{}}
		// Interprocedural fixpoint over entry states, mirroring the
		// lockset propagation (union where lockset intersects).
		entry := map[ir.FuncID]*uafState{
			root: {ptrs: map[ir.VarID]ir.Loc{}, objs: map[ir.VarID]ir.Loc{}},
		}
		for changed := true; changed; {
			changed = false
			funcs := make([]ir.FuncID, 0, len(entry))
			for f := range entry {
				funcs = append(funcs, f)
			}
			sort.Slice(funcs, func(i, j int) bool { return funcs[i] < funcs[j] })
			for _, f := range funcs {
				for callee, st := range r.flowFunction(f, entry[f]) {
					cur, ok := entry[callee]
					if !ok {
						cur = &uafState{ptrs: map[ir.VarID]ir.Loc{}, objs: map[ir.VarID]ir.Loc{}}
						entry[callee] = cur
						changed = true
					}
					if cur.join(st) {
						changed = true
					}
				}
			}
		}
		// Report against the converged states.
		funcs := make([]ir.FuncID, 0, len(entry))
		for f := range entry {
			funcs = append(funcs, f)
		}
		sort.Slice(funcs, func(i, j int) bool { return funcs[i] < funcs[j] })
		for _, f := range funcs {
			out = append(out, r.reportFunc(f, seen)...)
		}
	}
	return out, ctx.Err()
}

// reportFunc scans one function's reached nodes against the converged
// states and emits deduplicated diagnostics.
func (r *uafRun) reportFunc(f ir.FuncID, seen map[string]bool) []Diagnostic {
	prog := r.prog
	fn := prog.Func(f)
	var out []Diagnostic
	emit := func(d Diagnostic) {
		key := fmt.Sprintf("%s|%s|%d|%d", d.Rule, d.Subject, d.Loc, d.Related[0].Loc)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, d)
	}
	for _, loc := range fn.Nodes {
		st := r.in[loc]
		if st == nil {
			continue
		}
		n := prog.Node(loc)
		if n.Stmt.Op == ir.OpNullify && n.Stmt.Free {
			ptr := n.Stmt.Dst
			if w, ok := st.ptrs[ptr]; ok {
				emit(Diagnostic{
					Rule:     "double-free",
					Severity: SeverityError,
					Loc:      loc,
					Subject:  prog.VarName(ptr),
					Message: fmt.Sprintf("double free of %s: already freed at L%d",
						prog.VarName(ptr), w),
					Related: []Related{{Loc: w, Message: "first freed here"}},
				})
				continue
			}
			if objs, precise := r.a.PointsToContext(r.ctx, ptr, loc); precise {
				if w, obj, ok := freedOverlap(objs, st.objs); ok {
					emit(Diagnostic{
						Rule:     "double-free",
						Severity: SeverityWarning,
						Loc:      loc,
						Subject:  prog.VarName(ptr),
						Message: fmt.Sprintf("double free through %s: object %s already freed at L%d",
							prog.VarName(ptr), prog.VarName(obj), w),
						Related: []Related{{Loc: w, Message: "first freed here"}},
					})
				}
			}
			continue
		}
		var ptr ir.VarID = ir.NoVar
		switch n.Stmt.Op {
		case ir.OpLoad:
			ptr = n.Stmt.Src
		case ir.OpStore:
			ptr = n.Stmt.Dst
		case ir.OpTouch:
			if n.Stmt.Src != ir.NoVar {
				ptr = n.Stmt.Src
			}
		}
		if ptr == ir.NoVar {
			continue
		}
		if w, ok := st.ptrs[ptr]; ok {
			emit(Diagnostic{
				Rule:     "use-after-free",
				Severity: SeverityError,
				Loc:      loc,
				Subject:  prog.VarName(ptr),
				Message: fmt.Sprintf("dereference of %s after free at L%d",
					prog.VarName(ptr), w),
				Related: []Related{{Loc: w, Message: "freed here"}},
			})
			continue
		}
		objs, precise := r.a.PointsToContext(r.ctx, ptr, loc)
		if !precise || len(objs) == 0 {
			continue
		}
		if w, obj, ok := freedOverlap(objs, st.objs); ok {
			sev := SeverityWarning
			if allFreed(objs, st.objs) {
				sev = SeverityError
			}
			emit(Diagnostic{
				Rule:     "use-after-free",
				Severity: sev,
				Loc:      loc,
				Subject:  prog.VarName(ptr),
				Message: fmt.Sprintf("dereference of %s may reach object %s freed at L%d",
					prog.VarName(ptr), prog.VarName(obj), w),
				Related: []Related{{Loc: w, Message: "freed here"}},
			})
		}
	}
	return out
}

// freedOverlap finds the overlap of a value set with the freed objects,
// returning the earliest-witness freed object (ties broken by object
// id — objs is sorted).
func freedOverlap(objs []ir.VarID, freed map[ir.VarID]ir.Loc) (ir.Loc, ir.VarID, bool) {
	best := ir.VarID(0)
	var bestLoc ir.Loc
	found := false
	for _, o := range objs {
		w, ok := freed[o]
		if !ok {
			continue
		}
		if !found || w < bestLoc {
			found, bestLoc, best = true, w, o
		}
	}
	return bestLoc, best, found
}

func allFreed(objs []ir.VarID, freed map[ir.VarID]ir.Loc) bool {
	for _, o := range objs {
		if _, ok := freed[o]; !ok {
			return false
		}
	}
	return len(objs) > 0
}
