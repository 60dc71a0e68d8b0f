package ir

// Program edits: the incremental front door. An Edit is a small,
// validated statement-level mutation of an existing Program: replace,
// delete or insert a statement, or add a variable. Edits keep every
// existing VarID, FuncID and Loc stable (deletion tombstones a node into
// a skip), which is what lets core.ApplyEdit compare the edited program
// against a previous analysis structurally: an untouched cluster's slice
// names exactly the same ids before and after. No edit adds, removes or
// re-signs a function: such a change reaches the analysis as a new
// program.

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
	}
	return fmt.Sprintf("editkind(%d)", uint8(k))
}

// Edit is one program mutation. Which fields matter depends on Kind; see
// the kind constants.
type Edit struct {
	Kind EditKind
	Loc  Loc     // ReplaceStmt/DeleteStmt target; InsertAfter anchor
	Stmt Stmt    // ReplaceStmt/InsertAfter payload
	Name string  // AddVar name
	Var  VarKind // AddVar kind
	Fn   FuncID  // AddVar owning function (NoFunc = global)
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
	// AssumeFns are functions where an assume statement was added,
	// removed or altered. Algorithm 1 pulls the assumes of every sliced
	// function into the slice unconditionally, so these dirty at
	// function granularity.
	AssumeFns []FuncID
	// Structural is set when the batch cannot be mapped onto an existing
	// cluster cover: it adds, removes or alters a call or return, or
	// rewrites a call-binding node. Consumers must fall back to full
	// reanalysis.
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
	}
	return fmt.Errorf("unknown edit kind %d", e.Kind)
}
