package ir

// Program edits: the incremental front door. An Edit is a small,
// validated mutation of an existing Program — replace/delete/insert a
// statement, add a variable, add/remove/rebuild a function. Edits keep
// every existing VarID, FuncID and Loc stable (deletion tombstones nodes
// into skips; removal tombstones functions), which is what lets
// core.ApplyEdit compare the edited program against a previous analysis
// structurally: an untouched cluster's slice names exactly the same ids
// before and after.
//
// Diff(old, new) recovers an edit script between two independently
// lowered programs by matching functions and variables by name. It is
// best-effort by design: shapes Diff cannot express (a renamed or
// removed variable, a changed program entry) report ok=false and the
// caller falls back to analyzing the new program from scratch.

import (
	"fmt"
	"slices"
	"sort"
)

// EditKind discriminates Edit.
type EditKind uint8

const (
	// EditReplaceStmt swaps the statement at Loc for Stmt. The node, its
	// location and its CFG edges are unchanged.
	EditReplaceStmt EditKind = iota
	// EditDeleteStmt tombstones the statement at Loc into a skip.
	EditDeleteStmt
	// EditInsertAfter appends a new node holding Stmt and splices it
	// between Loc and Loc's former successors.
	EditInsertAfter
	// EditAddVar introduces a fresh variable (Name, VarKind, Fn).
	EditAddVar
	// EditAddFunc introduces a new function from Spec.
	EditAddFunc
	// EditRemoveFunc tombstones function Name: its body becomes skips and
	// every direct call to it becomes a skip. The FuncID (and the name)
	// remain allocated.
	EditRemoveFunc
	// EditRebuildFunc replaces function Name's body (and, if Spec names
	// them, its parameters and return variable) wholesale from Spec. Old
	// body nodes are tombstoned; new nodes are appended.
	EditRebuildFunc
)

func (k EditKind) String() string {
	switch k {
	case EditReplaceStmt:
		return "replace"
	case EditDeleteStmt:
		return "delete"
	case EditInsertAfter:
		return "insert"
	case EditAddVar:
		return "addvar"
	case EditAddFunc:
		return "addfunc"
	case EditRemoveFunc:
		return "removefunc"
	case EditRebuildFunc:
		return "rebuildfunc"
	}
	return fmt.Sprintf("editkind(%d)", uint8(k))
}

// FuncSpec describes a function body for EditAddFunc/EditRebuildFunc.
// Statement operands are VarIDs in the id-space of the program the edit
// script is applied to: Diff emits the EditAddVar edits first, so ids of
// to-be-created variables are their projected values (len(Vars)+i).
// Succs, CallLocs, Entry and Exit are indices into Stmts.
type FuncSpec struct {
	Name     string
	Params   []string // parameter variable names (resolved or created)
	Ret      string   // return variable name ("" = none)
	Stmts    []Stmt
	Succs    [][]int
	CallLocs []int // per-stmt local index of the owning call node, -1 = none
	Entry    int
	Exit     int
}

// Edit is one program mutation. Which fields matter depends on Kind; see
// the kind constants.
type Edit struct {
	Kind EditKind
	Loc  Loc     // ReplaceStmt/DeleteStmt target; InsertAfter anchor
	Stmt Stmt    // ReplaceStmt/InsertAfter payload
	Name string  // AddVar/RemoveFunc and Spec-less identification
	Var  VarKind // AddVar kind
	Fn   FuncID  // AddVar owning function (NoFunc = global)
	Spec *FuncSpec
}

// StmtChange records one statement-level mutation for consumers that map
// edits to analysis footprints: the location, the owning function, and
// the statement before and after.
type StmtChange struct {
	Loc Loc
	Fn  FuncID
	Old Stmt
	New Stmt
}

// EditSummary reports what a batch of edits touched, in terms a
// downstream incremental analysis can intersect with per-cluster slices.
type EditSummary struct {
	// Vars are the operand variables of every removed and added
	// statement (deduplicated, sorted).
	Vars []VarID
	// Locs are the locations whose statement changed (not inserted
	// locations: those are new and cannot appear in an old slice).
	Locs []Loc
	// Changes lists every statement mutation including inserts.
	Changes []StmtChange
	// ShapeFns are functions whose CFG shape changed (inserted nodes).
	ShapeFns []FuncID
	// AssumeFns are functions where an assume statement was added,
	// removed or altered. Algorithm 1 pulls the assumes of every sliced
	// function into the slice unconditionally, so these dirty at
	// function granularity.
	AssumeFns []FuncID
	// Structural is set when the batch cannot be mapped onto an existing
	// cluster cover: function-set changes, signature changes, or edits
	// that add/remove/alter calls and returns. Consumers must fall back
	// to full reanalysis.
	Structural bool
	// Reason says why Structural was set.
	Reason string
}

func (s *EditSummary) markStructural(reason string) {
	if !s.Structural {
		s.Structural = true
		s.Reason = reason
	}
}

func (s *EditSummary) addChange(p *Program, loc Loc, fn FuncID, old, new Stmt) {
	s.Changes = append(s.Changes, StmtChange{Loc: loc, Fn: fn, Old: old, New: new})
	for _, st := range [2]Stmt{old, new} {
		for _, v := range st.Operands() {
			s.Vars = append(s.Vars, v)
		}
		if st.Op == OpAssumeEq || st.Op == OpAssumeNeq {
			s.AssumeFns = append(s.AssumeFns, fn)
		}
		if st.Op == OpCall || st.Op == OpRet {
			s.markStructural("edit adds or removes a call/return")
		}
	}
}

func (s *EditSummary) finish() {
	s.Vars = dedupVars(s.Vars)
	sort.Slice(s.Locs, func(i, j int) bool { return s.Locs[i] < s.Locs[j] })
	s.ShapeFns = dedupFns(s.ShapeFns)
	s.AssumeFns = dedupFns(s.AssumeFns)
}

func dedupVars(vs []VarID) []VarID {
	if len(vs) == 0 {
		return vs
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	out := vs[:1]
	for _, v := range vs[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func dedupFns(fs []FuncID) []FuncID {
	if len(fs) == 0 {
		return fs
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	out := fs[:1]
	for _, f := range fs[1:] {
		if f != out[len(out)-1] {
			out = append(out, f)
		}
	}
	return out
}

// Operands returns the variables a statement reads or writes (call
// statements include the callee arguments and the function-pointer).
func (st Stmt) Operands() []VarID {
	var out []VarID
	add := func(v VarID) {
		if v != NoVar {
			out = append(out, v)
		}
	}
	add(st.Dst)
	add(st.Src)
	add(st.FPtr)
	for _, a := range st.Args {
		add(a)
	}
	return out
}

// Clone returns a copy of p with the same ids; writing the copy never
// writes p. The copy is copy-on-write: it has its own Vars, Funcs and
// Nodes slices but shares every variable, node and function, and the
// name maps, with p. MutNode and MutFunc copy a shared node or function,
// with its lists, before its first write, and AddVar and AddFunc copy
// the name map they add to. p must not be written once it has been
// cloned, since the clone reads what it shares from p: core.ApplyEdit
// edits a clone of its previous analysis' program and never writes that
// program.
func (p *Program) Clone() *Program {
	return &Program{
		Vars:            slices.Clone(p.Vars),
		Funcs:           slices.Clone(p.Funcs),
		Nodes:           slices.Clone(p.Nodes),
		FuncByName:      p.FuncByName,
		VarByName:       p.VarByName,
		FuncValue:       p.FuncValue,
		Entry:           p.Entry,
		sharedNodes:     allBits(len(p.Nodes)),
		sharedFuncs:     allBits(len(p.Funcs)),
		sharedVarNames:  true,
		sharedFuncNames: true,
		cloned:          true,
	}
}

// ApplyEdits applies the script to p in order, mutating p, and reports
// what it touched. On error p may be partially edited and must be
// discarded. The edited program is re-validated before returning.
func ApplyEdits(p *Program, edits []Edit) (*EditSummary, error) {
	sum := &EditSummary{}
	for i, e := range edits {
		if err := applyOne(p, e, sum); err != nil {
			return nil, fmt.Errorf("edit %d (%s): %w", i, e.Kind, err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("edited program invalid: %w", err)
	}
	sum.finish()
	return sum, nil
}

func applyOne(p *Program, e Edit, sum *EditSummary) error {
	switch e.Kind {
	case EditReplaceStmt, EditDeleteStmt:
		if e.Loc < 0 || int(e.Loc) >= len(p.Nodes) {
			return fmt.Errorf("loc %d out of range", e.Loc)
		}
		n := p.MutNode(e.Loc)
		newStmt := e.Stmt
		if e.Kind == EditDeleteStmt {
			newStmt = Stmt{Op: OpSkip, Dst: NoVar, Src: NoVar, Callee: NoFunc, FPtr: NoVar}
		}
		if n.CallLoc != NoLoc {
			// The node is a call's return-binding companion; rewriting it
			// would desynchronize the interprocedural walk.
			sum.markStructural("edit rewrites a call-binding node")
		}
		sum.addChange(p, e.Loc, n.Fn, n.Stmt, newStmt)
		sum.Locs = append(sum.Locs, e.Loc)
		n.Stmt = newStmt
		return nil

	case EditInsertAfter:
		if e.Loc < 0 || int(e.Loc) >= len(p.Nodes) {
			return fmt.Errorf("anchor loc %d out of range", e.Loc)
		}
		a := p.MutNode(e.Loc)
		loc := p.AddNode(a.Fn, e.Stmt)
		n := p.MutNode(loc)
		// Splice: the new node inherits the anchor's successors.
		n.Succs = append(n.Succs, a.Succs...)
		for _, sl := range n.Succs {
			s := p.MutNode(sl)
			for i, pr := range s.Preds {
				if pr == e.Loc {
					s.Preds[i] = loc
				}
			}
		}
		a.Succs = a.Succs[:0]
		p.AddEdge(e.Loc, loc)
		sum.addChange(p, loc, a.Fn, Stmt{Op: OpSkip, Dst: NoVar, Src: NoVar, Callee: NoFunc, FPtr: NoVar}, e.Stmt)
		sum.ShapeFns = append(sum.ShapeFns, a.Fn)
		return nil

	case EditAddVar:
		if e.Name == "" {
			return fmt.Errorf("addvar needs a name")
		}
		if _, dup := p.VarByName[e.Name]; dup {
			return fmt.Errorf("variable %q already exists", e.Name)
		}
		p.AddVar(e.Name, e.Var, e.Fn)
		return nil

	case EditAddFunc:
		if e.Spec == nil {
			return fmt.Errorf("addfunc needs a spec")
		}
		if _, dup := p.FuncByName[e.Spec.Name]; dup {
			return fmt.Errorf("function %q already exists", e.Spec.Name)
		}
		sum.markStructural("function added")
		f := p.AddFunc(e.Spec.Name)
		return buildBody(p, f, e.Spec, sum)

	case EditRemoveFunc:
		id, ok := p.FuncByName[e.Name]
		if !ok {
			return fmt.Errorf("function %q not found", e.Name)
		}
		sum.markStructural("function removed")
		f := p.Func(id)
		for _, loc := range f.Nodes {
			tombstone(p, loc, sum)
		}
		// Direct calls to the removed function become skips too.
		for _, n := range p.Nodes {
			if n.Stmt.Op == OpCall && n.Stmt.Callee == id {
				tombstone(p, n.Loc, sum)
				if n.CallLoc == NoLoc {
					// Also blank the companion binding node if present.
					for _, sl := range n.Succs {
						if p.Node(sl).CallLoc == n.Loc {
							tombstone(p, sl, sum)
							p.MutNode(sl).CallLoc = NoLoc
						}
					}
				}
			}
		}
		return nil

	case EditRebuildFunc:
		if e.Spec == nil {
			return fmt.Errorf("rebuildfunc needs a spec")
		}
		id, ok := p.FuncByName[e.Spec.Name]
		if !ok {
			return fmt.Errorf("function %q not found", e.Spec.Name)
		}
		sum.markStructural("function rebuilt")
		f := p.MutFunc(id)
		old := f.Nodes
		f.Nodes = nil
		for _, loc := range old {
			tombstone(p, loc, sum)
			n := p.MutNode(loc)
			n.Succs = nil
			n.Preds = nil
			n.CallLoc = NoLoc
		}
		f.Nodes = old // tombstoned nodes stay attributed to f for Validate
		return buildBody(p, f, e.Spec, sum)
	}
	return fmt.Errorf("unknown edit kind %d", e.Kind)
}

// tombstone blanks the statement at loc into a skip, recording the
// change.
func tombstone(p *Program, loc Loc, sum *EditSummary) {
	n := p.MutNode(loc)
	skip := Stmt{Op: OpSkip, Dst: NoVar, Src: NoVar, Callee: NoFunc, FPtr: NoVar}
	if n.Stmt.Op != OpSkip {
		sum.addChange(p, loc, n.Fn, n.Stmt, skip)
		sum.Locs = append(sum.Locs, loc)
	}
	n.Stmt = skip
}

// buildBody appends Spec's statements as fresh nodes of f and wires
// entry, exit, edges and (for new or re-signed functions) params/ret. f
// must be writable: new, or taken through MutFunc.
func buildBody(p *Program, f *Func, spec *FuncSpec, sum *EditSummary) error {
	if len(spec.Stmts) == 0 {
		return fmt.Errorf("empty function body")
	}
	if spec.Entry < 0 || spec.Entry >= len(spec.Stmts) || spec.Exit < 0 || spec.Exit >= len(spec.Stmts) {
		return fmt.Errorf("entry/exit out of range")
	}
	if len(spec.Succs) != len(spec.Stmts) {
		return fmt.Errorf("succs/stmts length mismatch")
	}
	resolve := func(name string, kind VarKind) VarID {
		if id, ok := p.VarByName[name]; ok {
			return id
		}
		return p.AddVar(name, kind, f.ID)
	}
	if len(spec.Params) > 0 || spec.Ret != "" {
		f.Params = nil
		for _, pn := range spec.Params {
			f.Params = append(f.Params, resolve(pn, KindParam))
		}
		if spec.Ret != "" {
			f.Ret = resolve(spec.Ret, KindRet)
		} else {
			f.Ret = NoVar
		}
	}
	locs := make([]Loc, len(spec.Stmts))
	for i, st := range spec.Stmts {
		locs[i] = p.AddNode(f.ID, st)
		sum.addChange(p, locs[i], f.ID, Stmt{Op: OpSkip, Dst: NoVar, Src: NoVar, Callee: NoFunc, FPtr: NoVar}, st)
	}
	for i, ss := range spec.Succs {
		for _, s := range ss {
			if s < 0 || s >= len(locs) {
				return fmt.Errorf("succ index %d out of range", s)
			}
			p.AddEdge(locs[i], locs[s])
		}
	}
	for i, cl := range spec.CallLocs {
		if cl >= 0 {
			if cl >= len(locs) {
				return fmt.Errorf("callloc index %d out of range", cl)
			}
			p.MutNode(locs[i]).CallLoc = locs[cl]
		}
	}
	f.Entry = locs[spec.Entry]
	f.Exit = locs[spec.Exit]
	sum.ShapeFns = append(sum.ShapeFns, f.ID)
	return nil
}

// Diff computes an edit script transforming old into a program
// structurally identical to new, matching functions and variables by
// name. ok=false means the difference is not expressible as edits (a
// variable disappeared or was re-kinded, the entry function changed);
// callers then analyze new from scratch.
func Diff(old, new *Program) (edits []Edit, ok bool) {
	if old.Func(old.Entry).Name != new.Func(new.Entry).Name {
		return nil, false
	}
	// Variables: old must embed into new by name, kind-compatibly.
	varMap := make([]VarID, len(new.Vars)) // new VarID -> projected old-space id
	for _, v := range old.Vars {
		nv, ok2 := new.VarByName[v.Name]
		if !ok2 || new.Var(nv).Kind != v.Kind {
			return nil, false
		}
	}
	next := VarID(len(old.Vars))
	for id, v := range new.Vars {
		if ov, ok2 := old.VarByName[v.Name]; ok2 {
			varMap[id] = ov
			continue
		}
		varMap[id] = next
		next++
	}
	// Functions: match by name; compute projected ids for added ones.
	fnMap := make([]FuncID, len(new.Funcs)) // new FuncID -> projected old-space id
	nextFn := FuncID(len(old.Funcs))
	var added []FuncID // new-space ids, in order
	for id, f := range new.Funcs {
		if of, ok2 := old.FuncByName[f.Name]; ok2 {
			fnMap[id] = of
		} else {
			fnMap[id] = nextFn
			nextFn++
			added = append(added, FuncID(id))
		}
	}
	// AddVar edits first (projected ids above depend on this order).
	for _, v := range new.Vars {
		if _, ok2 := old.VarByName[v.Name]; ok2 {
			continue
		}
		owner := NoFunc
		if v.Fn != NoFunc {
			owner = fnMap[v.Fn]
		}
		edits = append(edits, Edit{Kind: EditAddVar, Name: v.Name, Var: v.Kind, Fn: owner})
	}
	remap := func(st Stmt) Stmt {
		m := func(v VarID) VarID {
			if v == NoVar {
				return NoVar
			}
			return varMap[v]
		}
		st.Dst, st.Src, st.FPtr = m(st.Dst), m(st.Src), m(st.FPtr)
		if len(st.Args) > 0 {
			args := make([]VarID, len(st.Args))
			for i, a := range st.Args {
				args[i] = m(a)
			}
			st.Args = args
		}
		if st.Callee != NoFunc {
			st.Callee = fnMap[st.Callee]
		}
		return st
	}
	// Removed functions.
	for _, f := range old.Funcs {
		if _, ok2 := new.FuncByName[f.Name]; !ok2 {
			edits = append(edits, Edit{Kind: EditRemoveFunc, Name: f.Name})
		}
	}
	// Added functions, in new-FuncID order (matches projected ids).
	for _, nid := range added {
		edits = append(edits, Edit{Kind: EditAddFunc, Spec: specOf(new, new.Func(nid), remap)})
	}
	// Shared functions: same shape → statement replaces; else rebuild.
	for _, f := range new.Funcs {
		of, shared := old.FuncByName[f.Name]
		if !shared {
			continue
		}
		ofn := old.Func(of)
		if sameSignature(old, new, ofn, f) && sameShape(old, new, ofn, f) {
			for i, nl := range f.Nodes {
				ns := remap(new.Node(nl).Stmt)
				ol := ofn.Nodes[i]
				if !sameStmt(old.Node(ol).Stmt, ns) {
					edits = append(edits, Edit{Kind: EditReplaceStmt, Loc: ol, Stmt: ns})
				}
			}
		} else {
			edits = append(edits, Edit{Kind: EditRebuildFunc, Spec: specOf(new, f, remap)})
		}
	}
	return edits, true
}

func specOf(p *Program, f *Func, remap func(Stmt) Stmt) *FuncSpec {
	spec := &FuncSpec{Name: f.Name, Ret: ""}
	for _, pv := range f.Params {
		spec.Params = append(spec.Params, p.VarName(pv))
	}
	if f.Ret != NoVar {
		spec.Ret = p.VarName(f.Ret)
	}
	local := make(map[Loc]int, len(f.Nodes))
	for i, l := range f.Nodes {
		local[l] = i
	}
	for _, l := range f.Nodes {
		n := p.Node(l)
		spec.Stmts = append(spec.Stmts, remap(n.Stmt))
		succs := make([]int, 0, len(n.Succs))
		for _, s := range n.Succs {
			succs = append(succs, local[s])
		}
		spec.Succs = append(spec.Succs, succs)
		cl := -1
		if n.CallLoc != NoLoc {
			cl = local[n.CallLoc]
		}
		spec.CallLocs = append(spec.CallLocs, cl)
	}
	spec.Entry = local[f.Entry]
	spec.Exit = local[f.Exit]
	return spec
}

func sameSignature(op, np *Program, of, nf *Func) bool {
	if len(of.Params) != len(nf.Params) || (of.Ret == NoVar) != (nf.Ret == NoVar) {
		return false
	}
	for i := range of.Params {
		if op.VarName(of.Params[i]) != np.VarName(nf.Params[i]) {
			return false
		}
	}
	if of.Ret != NoVar && op.VarName(of.Ret) != np.VarName(nf.Ret) {
		return false
	}
	return true
}

// sameShape reports whether two functions have identical CFG skeletons:
// node count, local successor structure, call-binding markers, and
// entry/exit positions.
func sameShape(op, np *Program, of, nf *Func) bool {
	if len(of.Nodes) != len(nf.Nodes) {
		return false
	}
	olocal := make(map[Loc]int, len(of.Nodes))
	for i, l := range of.Nodes {
		olocal[l] = i
	}
	nlocal := make(map[Loc]int, len(nf.Nodes))
	for i, l := range nf.Nodes {
		nlocal[l] = i
	}
	if olocal[of.Entry] != nlocal[nf.Entry] || olocal[of.Exit] != nlocal[nf.Exit] {
		return false
	}
	for i := range of.Nodes {
		on, nn := op.Node(of.Nodes[i]), np.Node(nf.Nodes[i])
		if len(on.Succs) != len(nn.Succs) {
			return false
		}
		for j := range on.Succs {
			if olocal[on.Succs[j]] != nlocal[nn.Succs[j]] {
				return false
			}
		}
		ocl, ncl := -1, -1
		if on.CallLoc != NoLoc {
			ocl = olocal[on.CallLoc]
		}
		if nn.CallLoc != NoLoc {
			ncl = nlocal[nn.CallLoc]
		}
		if ocl != ncl {
			return false
		}
	}
	return true
}

func sameStmt(a, b Stmt) bool {
	if a.Op != b.Op || a.Dst != b.Dst || a.Src != b.Src || a.Callee != b.Callee || a.FPtr != b.FPtr || a.Free != b.Free {
		return false
	}
	if len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}
