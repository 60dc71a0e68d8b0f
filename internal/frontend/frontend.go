// Package frontend lowers parsed CPL (package cpl) into the normalized IR
// (package ir) that all analyses consume. Lowering performs, per the
// paper's Remark 1:
//
//   - reduction of every pointer assignment to the four canonical forms
//     x = y, x = &y, *x = y, x = *y (introducing temporaries for nested
//     dereferences),
//   - struct flattening: a stack struct becomes one variable per field
//     (making the analyses field-sensitive for direct field accesses),
//   - heap modeling: `p = malloc` becomes `p = &allocLoc` for an abstract
//     heap object named by the allocation site; `free(p)` becomes
//     `p = null`,
//   - naive pointer arithmetic: the result of `p + n` aliases every pointer
//     operand,
//   - function pointers: `fp = &f` takes the address of a function value
//     object; indirect calls are lowered to placeholder call nodes that
//     Devirtualize later expands into branches over the resolved targets
//     (in the style of Emami et al., which the paper follows).
//
// Heap objects are field-insensitive blobs: `p->f` is lowered as `*p`.
// Taking the address of a whole stack struct is rejected; take the address
// of a field instead.
package frontend

import (
	"fmt"
	"strconv"

	"bootstrap/internal/cpl"
	"bootstrap/internal/ir"
)

// Lower converts a parsed CPL file into IR. The returned program still
// contains placeholder indirect-call nodes; run Devirtualize (or use
// LowerAndResolve in package core) to expand them.
func Lower(file *cpl.File) (*ir.Program, error) {
	lw := &lowerer{
		prog:     ir.NewProgram(),
		structs:  make(map[string]*cpl.StructDecl, len(file.Structs)),
		heapSeen: map[string]int{},
	}
	if err := lw.run(file); err != nil {
		return nil, err
	}
	if err := lw.prog.Validate(); err != nil {
		return nil, fmt.Errorf("frontend: internal error: %w", err)
	}
	return lw.prog, nil
}

// MustLower lowers a file and panics on error; for tests and examples.
func MustLower(file *cpl.File) *ir.Program {
	p, err := Lower(file)
	if err != nil {
		panic(err)
	}
	return p
}

// LowerSource parses and lowers CPL source text in one step.
func LowerSource(src string) (*ir.Program, error) {
	f, err := cpl.Parse(src)
	if err != nil {
		return nil, err
	}
	return Lower(f)
}

// typeInfo is the lowering-time type of a variable: enough to flatten
// struct copies and mark lock pointers.
type typeInfo struct {
	base     string
	isStruct bool
	stars    int
}

func (t typeInfo) isLockPtr() bool { return t.base == "lock" && t.stars >= 1 }

type lowerer struct {
	prog    *ir.Program
	structs map[string]*cpl.StructDecl
	leaves  map[structAt]leafCount // structLeaves' memo, made on first use
	// varTypes is indexed by VarID: every variable the lowerer adds
	// appends its type here.
	varTypes []typeInfo

	// Per-function state. A block's scope map stays nil until the block
	// declares something.
	fn             *ir.Func
	fnName         string
	scopes         []map[string]ir.VarID
	frontier       []ir.Loc
	pendingReturns []ir.Loc
	tempN          int
	// arena holds the frontier windows of the function being lowered
	// (see frontierWindow); lowerFunc empties it for the next function.
	arena []ir.Loc

	heapSeen map[string]int
	nameBuf  []byte // scratch for building heap object names
}

func posErr(p cpl.Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...))
}

func (lw *lowerer) run(file *cpl.File) error {
	for _, sd := range file.Structs {
		if _, dup := lw.structs[sd.Name]; dup {
			return posErr(sd.Pos, "duplicate struct %s", sd.Name)
		}
		lw.structs[sd.Name] = sd
	}
	// The global scope and VarByName hold every global name, and
	// VarByName also every parameter and return variable: size them for
	// those up front instead of growing them one insert at a time. The
	// variable lists get an eighth more for heap objects and temporaries.
	globals, vars := 0, 0
	for _, vd := range file.Globals {
		globals += len(vd.Names)
	}
	for _, fd := range file.Funcs {
		vars += len(fd.Params) + 1
	}
	vars += globals
	lw.scopes = []map[string]ir.VarID{make(map[string]ir.VarID, globals)}
	lw.prog.VarByName = make(map[string]ir.VarID, vars)
	lw.prog.Vars = make([]*ir.Var, 0, vars+vars/8)
	lw.varTypes = make([]typeInfo, 0, vars+vars/8)
	for _, vd := range file.Globals {
		if err := lw.declare(vd, "", ir.KindGlobal, ir.NoFunc); err != nil {
			return err
		}
	}
	// Register all functions (and their signatures) before lowering any
	// body so forward calls resolve.
	type fnInfo struct {
		decl *cpl.FuncDecl
		f    *ir.Func
	}
	var fns []fnInfo
	for _, fd := range file.Funcs {
		if _, dup := lw.prog.FuncByName[fd.Name]; dup {
			return posErr(fd.Pos, "duplicate function %s", fd.Name)
		}
		if _, clash := lw.scopes[0][fd.Name]; clash {
			return posErr(fd.Pos, "function %s collides with a global variable", fd.Name)
		}
		f := lw.prog.AddFunc(fd.Name)
		for i, prm := range fd.Params {
			ti := typeInfo{base: prm.Type.Base, isStruct: prm.Type.IsStruct, stars: prm.Stars}
			if ti.isStruct && ti.stars == 0 {
				return posErr(prm.Pos, "struct-by-value parameters are not supported; pass a pointer")
			}
			for _, earlier := range fd.Params[:i] {
				if earlier.Name == prm.Name {
					return posErr(prm.Pos, "duplicate declaration of %s", prm.Name)
				}
			}
			v := lw.newVar(fd.Name+"."+prm.Name, ir.KindParam, f.ID, ti)
			f.Params = append(f.Params, v)
		}
		if fd.Ret.IsStruct && fd.RetStars == 0 {
			return posErr(fd.Pos, "struct-by-value returns are not supported; return a pointer")
		}
		if !(fd.Ret.Base == "void" && fd.RetStars == 0) {
			ti := typeInfo{base: fd.Ret.Base, isStruct: fd.Ret.IsStruct, stars: fd.RetStars}
			f.Ret = lw.newVar(fd.Name+".$ret", ir.KindRet, f.ID, ti)
		}
		fns = append(fns, fnInfo{decl: fd, f: f})
	}
	for _, fi := range fns {
		if err := lw.lowerFunc(fi.decl, fi.f); err != nil {
			return err
		}
	}
	if id, ok := lw.prog.FuncByName["main"]; ok {
		lw.prog.Entry = id
	} else if len(lw.prog.Funcs) > 0 {
		lw.prog.Entry = lw.prog.Funcs[0].ID
	}
	return nil
}

func (lw *lowerer) newVar(name string, kind ir.VarKind, fn ir.FuncID, ti typeInfo) ir.VarID {
	v := lw.addVar(name, kind, fn, ti)
	if ti.isLockPtr() || (ti.base == "lock" && ti.stars == 0) {
		lw.prog.Var(v).IsLock = true
	}
	return v
}

// addVar adds a variable to the program and records its type.
func (lw *lowerer) addVar(name string, kind ir.VarKind, fn ir.FuncID, ti typeInfo) ir.VarID {
	v := lw.prog.AddVar(name, kind, fn)
	lw.varTypes = append(lw.varTypes, ti)
	return v
}

// taken reports whether a declaration named qname would collide with an
// existing variable: a struct declaration registers no variable of its
// own name, only its fields and its root qname.$root.
func (lw *lowerer) taken(qname string, isStruct bool) bool {
	if _, ok := lw.prog.VarByName[qname]; ok {
		return true
	}
	if isStruct {
		_, ok := lw.prog.VarByName[qname+".$root"]
		return ok
	}
	return false
}

// declare lowers one declaration statement. prefix qualifies local names
// ("fn."); struct variables flatten into one variable per (nested) field.
func (lw *lowerer) declare(vd *cpl.VarDecl, prefix string, kind ir.VarKind, fn ir.FuncID) error {
	scope := lw.scopes[len(lw.scopes)-1]
	if scope == nil {
		scope = make(map[string]ir.VarID, len(vd.Names))
		lw.scopes[len(lw.scopes)-1] = scope
	}
	for _, d := range vd.Names {
		if _, dup := scope[d.Name]; dup {
			return posErr(d.Pos, "duplicate declaration of %s", d.Name)
		}
		ti := typeInfo{base: vd.Type.Base, isStruct: vd.Type.IsStruct, stars: d.Stars}
		isStruct := ti.isStruct && ti.stars == 0
		qname := prefix + d.Name
		// Shadowing in nested scopes needs distinct qualified names.
		if lw.taken(qname, isStruct) {
			for k := 2; ; k++ {
				cand := qname + "#" + strconv.Itoa(k)
				if !lw.taken(cand, isStruct) {
					qname = cand
					break
				}
			}
		}
		if isStruct {
			if n, _ := lw.structLeaves(vd.Type.Base, 0); n > maxStructLeaves {
				return posErr(d.Pos, "struct %s flattens to more than %d fields", vd.Type.Base, maxStructLeaves)
			}
			if err := lw.flattenStruct(qname, vd.Type.Base, kind, fn, d.Pos, 0); err != nil {
				return err
			}
			// The bare struct name resolves to a pseudo variable so field
			// paths can be built; it is registered under the flattened
			// root name with no variable of its own. We record the root in
			// scope with NoVar-like marker: instead, register a marker var?
			// Field resolution walks names syntactically, so we store the
			// qualified root in scope via a dedicated struct-root entry.
			scope[d.Name] = lw.structRoot(qname, vd.Type.Base)
		} else {
			v := lw.newVar(qname, kind, fn, ti)
			scope[d.Name] = v
		}
	}
	return nil
}

// structRoot registers (once) a pseudo-variable representing a flattened
// struct root; it participates in name resolution for field paths and in
// whole-struct copies but never appears in canonical statements.
func (lw *lowerer) structRoot(qname, structName string) ir.VarID {
	rootName := qname + ".$root"
	if v, ok := lw.prog.VarByName[rootName]; ok {
		return v
	}
	return lw.addVar(rootName, ir.KindTemp, ir.NoFunc, typeInfo{base: structName, isStruct: true, stars: 0})
}

// isStructRoot reports whether v is a flattened-struct pseudo variable and
// returns its field prefix (the qualified name without "$root").
func (lw *lowerer) isStructRoot(v ir.VarID) (string, string, bool) {
	ti := lw.varTypes[v]
	name := lw.prog.VarName(v)
	if ti.isStruct && ti.stars == 0 && len(name) > 6 && name[len(name)-6:] == ".$root" {
		return name[:len(name)-6], ti.base, true
	}
	return "", "", false
}

const maxStructDepth = 16

// maxStructLeaves bounds the variables one by-value struct declaration
// flattens to. Nesting multiplies: nine structs each holding four fields
// of the previous one flatten to 4^9 variables, so width needs its own
// bound beside depth.
const maxStructLeaves = 4096

// structAt keys structLeaves' memo: a struct flattened at a depth.
type structAt struct {
	name  string
	depth int
}

// leafCount is a memoized structLeaves result.
type leafCount struct {
	n     int
	fails bool
}

// structLeaves returns how many variables flattenStruct creates for
// struct structName at nesting depth depth before it finishes or fails,
// saturating at maxStructLeaves+1, and whether it fails (an unknown,
// recursive or too deeply nested struct). It is memoized by struct and
// depth, so counting takes time linear in the declarations, however
// many variables they flatten to.
func (lw *lowerer) structLeaves(structName string, depth int) (n int, fails bool) {
	sd, ok := lw.structs[structName]
	if !ok || depth > maxStructDepth {
		return 0, true
	}
	key := structAt{structName, depth}
	if c, ok := lw.leaves[key]; ok {
		return c.n, c.fails
	}
	if lw.leaves == nil {
		lw.leaves = map[structAt]leafCount{}
	}
	defer func() { lw.leaves[key] = leafCount{n, fails} }()
	for _, fieldDecl := range sd.Fields {
		for _, d := range fieldDecl.Names {
			if !fieldDecl.Type.IsStruct || d.Stars != 0 {
				n = min(n+1, maxStructLeaves+1)
				continue
			}
			m, f := lw.structLeaves(fieldDecl.Type.Base, depth+1)
			n = min(n+m, maxStructLeaves+1)
			if f {
				return n, true
			}
		}
	}
	return n, false
}

func (lw *lowerer) flattenStruct(qname, structName string, kind ir.VarKind, fn ir.FuncID, pos cpl.Pos, depth int) error {
	if depth > maxStructDepth {
		return posErr(pos, "struct %s nests too deeply (recursive by value?)", structName)
	}
	sd, ok := lw.structs[structName]
	if !ok {
		return posErr(pos, "unknown struct %s", structName)
	}
	for _, fieldDecl := range sd.Fields {
		for _, d := range fieldDecl.Names {
			fq := qname + "." + d.Name
			ti := typeInfo{base: fieldDecl.Type.Base, isStruct: fieldDecl.Type.IsStruct, stars: d.Stars}
			if ti.isStruct && ti.stars == 0 {
				if err := lw.flattenStruct(fq, fieldDecl.Type.Base, kind, fn, pos, depth+1); err != nil {
					return err
				}
			} else {
				if _, dup := lw.prog.VarByName[fq]; dup {
					// Two fields of one name flatten to one variable.
					return posErr(pos, "duplicate field %s", fq)
				}
				lw.newVar(fq, kind, fn, ti)
			}
		}
	}
	return nil
}

// structFields returns the flattened field suffixes (e.g. ".f", ".in.g")
// of struct structName, leaves only.
func (lw *lowerer) structFields(structName string) []string {
	sd := lw.structs[structName]
	var out []string
	var walk func(prefix, sname string)
	walk = func(prefix, sname string) {
		s := lw.structs[sname]
		if s == nil {
			return
		}
		for _, fd := range s.Fields {
			for _, d := range fd.Names {
				if fd.Type.IsStruct && d.Stars == 0 {
					walk(prefix+"."+d.Name, fd.Type.Base)
				} else {
					out = append(out, prefix+"."+d.Name)
				}
			}
		}
	}
	if sd != nil {
		walk("", structName)
	}
	return out
}

func (lw *lowerer) lowerFunc(fd *cpl.FuncDecl, f *ir.Func) error {
	lw.fn = f
	lw.fnName = fd.Name
	lw.tempN = 0
	lw.pendingReturns = lw.pendingReturns[:0]
	// No frontier of the previous function is alive any more.
	lw.arena = lw.arena[:0]
	// Scope stack: globals, then one scope for params.
	var paramScope map[string]ir.VarID
	if len(fd.Params) > 0 {
		paramScope = make(map[string]ir.VarID, len(fd.Params))
		for i, prm := range fd.Params {
			paramScope[prm.Name] = f.Params[i]
		}
	}
	lw.scopes = append(lw.scopes[:1], paramScope)

	f.Entry = lw.prog.AddNode(f.ID, ir.Stmt{Op: ir.OpSkip, Dst: ir.NoVar, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar, Comment: "entry " + fd.Name})
	lw.frontier = lw.frontierOf(f.Entry)
	if err := lw.lowerBlock(fd.Body); err != nil {
		return err
	}
	f.Exit = lw.prog.AddNode(f.ID, ir.Stmt{Op: ir.OpRet, Dst: ir.NoVar, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar, Comment: "exit " + fd.Name})
	for _, fr := range lw.frontier {
		lw.prog.AddEdge(fr, f.Exit)
	}
	for _, r := range lw.pendingReturns {
		lw.prog.AddEdge(r, f.Exit)
	}
	lw.frontier = nil
	lw.scopes = lw.scopes[:1]
	return nil
}

// emit appends a node wired from the current frontier and makes it the new
// frontier.
func (lw *lowerer) emit(s ir.Stmt) ir.Loc {
	loc := lw.prog.AddNode(lw.fn.ID, s)
	for _, fr := range lw.frontier {
		lw.prog.AddEdge(fr, loc)
	}
	lw.frontier = lw.frontierOf(loc)
	return loc
}

// frontierWindow returns n fresh slots from the function's frontier
// arena. A window is never written once its frontier is handed out, and
// slots are never reused within a function: lowerIf keeps the then
// arm's frontier while it lowers the else arm. Each window's capacity
// ends where it does.
func (lw *lowerer) frontierWindow(n int) []ir.Loc {
	if cap(lw.arena)-len(lw.arena) < n {
		lw.arena = make([]ir.Loc, 0, max(512, n))
	}
	i := len(lw.arena)
	lw.arena = lw.arena[:i+n]
	return lw.arena[i : i+n : i+n]
}

// frontierOf returns the one-node frontier {loc}.
func (lw *lowerer) frontierOf(loc ir.Loc) []ir.Loc {
	w := lw.frontierWindow(1)
	w[0] = loc
	return w
}

func skipStmt(comment string) ir.Stmt {
	return ir.Stmt{Op: ir.OpSkip, Dst: ir.NoVar, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar, Comment: comment}
}

func (lw *lowerer) newTemp() ir.VarID {
	lw.tempN++
	return lw.newVar(lw.fnName+".$t"+strconv.Itoa(lw.tempN), ir.KindTemp, lw.fn.ID, typeInfo{base: "int", stars: 1})
}

// newHeapVar creates the abstract heap object for an allocation site,
// alloc@line:col, with #n appended for the nth object of one site.
func (lw *lowerer) newHeapVar(pos cpl.Pos) ir.VarID {
	b := append(lw.nameBuf[:0], "alloc@"...)
	b = strconv.AppendInt(b, int64(pos.Line), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(pos.Col), 10)
	lw.nameBuf = b
	n := lw.heapSeen[string(b)]
	base := string(b)
	lw.heapSeen[base] = n + 1
	name := base
	if n > 0 {
		name = base + "#" + strconv.Itoa(n+1)
	}
	return lw.newVar(name, ir.KindHeap, ir.NoFunc, typeInfo{base: "int", stars: 0})
}

func (lw *lowerer) lowerBlock(b *cpl.Block) error {
	lw.scopes = append(lw.scopes, nil)
	defer func() { lw.scopes = lw.scopes[:len(lw.scopes)-1] }()
	for _, s := range b.Stmts {
		if err := lw.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) lowerStmt(s cpl.Stmt) error {
	switch st := s.(type) {
	case *cpl.EmptyStmt:
		return nil
	case *cpl.Block:
		return lw.lowerBlock(st)
	case *cpl.DeclStmt:
		return lw.declare(st.Decl, lw.fnName+".", ir.KindLocal, lw.fn.ID)
	case *cpl.AssignStmt:
		return lw.lowerAssign(st.LHS, st.RHS, st.Pos)
	case *cpl.FreeStmt:
		// free(p) is modeled as p = NULL (paper, Remark 1). The nullify
		// nodes it lowers to carry Stmt.Free so deallocation-aware
		// checkers (use-after-free, double-free) can find free sites; the
		// alias analyses ignore the flag.
		before := len(lw.prog.Nodes)
		if err := lw.lowerAssign(st.X, &cpl.Null{Pos: st.Pos}, st.Pos); err != nil {
			return err
		}
		for _, n := range lw.prog.Nodes[before:] {
			if n.Stmt.Op == ir.OpNullify {
				n.Stmt.Free = true
			}
		}
		return nil
	case *cpl.ExprStmt:
		call, ok := st.X.(*cpl.Call)
		if !ok {
			return posErr(st.Pos, "expression statement must be a call")
		}
		_, err := lw.lowerCall(call, ir.NoVar)
		return err
	case *cpl.ReturnStmt:
		if st.Value != nil {
			if lw.fn.Ret == ir.NoVar {
				return posErr(st.Pos, "return with a value in a void function")
			}
			if err := lw.assignToVar(lw.fn.Ret, st.Value, st.Pos); err != nil {
				return err
			}
		}
		// Emit an explicit return marker and park it until the exit node
		// exists; lowerFunc wires all pending returns to the exit.
		loc := lw.emit(skipStmt("return"))
		lw.pendingReturns = append(lw.pendingReturns, loc)
		lw.frontier = nil
		return nil
	case *cpl.IfStmt:
		return lw.lowerIf(st)
	case *cpl.WhileStmt:
		return lw.lowerWhile(st)
	}
	return posErr(s.Position(), "unsupported statement %T", s)
}

func (lw *lowerer) lowerIf(st *cpl.IfStmt) error {
	// Conditions have no pointer side effects in CPL and the core analyses
	// treat every branch as nondeterministic (paper §2). Pointer
	// (in)equality tests additionally mark their arms with assume nodes —
	// the constraints behind the optional path sensitivity of Section 3.
	branch := lw.emit(skipStmt("if"))
	thenAssume, elseAssume, hasAssume := lw.condAssumes(st.Cond)
	lw.frontier = lw.frontierOf(branch)
	if hasAssume {
		lw.emit(thenAssume)
	}
	if err := lw.lowerBlock(st.Then); err != nil {
		return err
	}
	thenFrontier := lw.frontier
	lw.frontier = lw.frontierOf(branch)
	if hasAssume {
		lw.emit(elseAssume)
	}
	if st.Else != nil {
		if err := lw.lowerBlock(st.Else); err != nil {
			return err
		}
	}
	elseFrontier := lw.frontier
	lw.frontier = lw.frontierWindow(len(thenFrontier) + len(elseFrontier))
	n := copy(lw.frontier, thenFrontier)
	copy(lw.frontier[n:], elseFrontier)
	if len(lw.frontier) == 0 {
		return nil // both arms returned
	}
	lw.emit(skipStmt("endif"))
	return nil
}

func (lw *lowerer) lowerWhile(st *cpl.WhileStmt) error {
	head := lw.emit(skipStmt("while"))
	bodyAssume, exitAssume, hasAssume := lw.condAssumes(st.Cond)
	lw.frontier = lw.frontierOf(head)
	if hasAssume {
		lw.emit(bodyAssume)
	}
	if err := lw.lowerBlock(st.Body); err != nil {
		return err
	}
	for _, fr := range lw.frontier {
		lw.prog.AddEdge(fr, head) // back edge
	}
	lw.frontier = lw.frontierOf(head) // loop exit
	if hasAssume {
		lw.emit(exitAssume)
	}
	return nil
}

// condAssumes recognizes pointer (in)equality conditions over simple
// variables and returns the assume statements for the true and false arms.
func (lw *lowerer) condAssumes(cond cpl.Expr) (ir.Stmt, ir.Stmt, bool) {
	b, ok := cond.(*cpl.Binary)
	if !ok || (b.Op != cpl.OpEq && b.Op != cpl.OpNeq) {
		return ir.Stmt{}, ir.Stmt{}, false
	}
	x := lw.simplePointer(b.X)
	y := lw.simplePointer(b.Y)
	if x == ir.NoVar || y == ir.NoVar {
		return ir.Stmt{}, ir.Stmt{}, false
	}
	eq := ir.Stmt{Op: ir.OpAssumeEq, Dst: x, Src: y, Callee: ir.NoFunc, FPtr: ir.NoVar}
	neq := ir.Stmt{Op: ir.OpAssumeNeq, Dst: x, Src: y, Callee: ir.NoFunc, FPtr: ir.NoVar}
	if b.Op == cpl.OpEq {
		return eq, neq, true
	}
	return neq, eq, true
}

// simplePointer resolves e to a pointer variable when it is a plain
// identifier or field path of pointer type, without emitting statements;
// NoVar otherwise.
func (lw *lowerer) simplePointer(e cpl.Expr) ir.VarID {
	if !isPathExpr(e) {
		return ir.NoVar
	}
	v, err := lw.resolvePath(e)
	if err != nil || v == ir.NoVar {
		return ir.NoVar
	}
	if _, _, isRoot := lw.isStructRoot(v); isRoot {
		return ir.NoVar
	}
	if lw.varTypes[v].stars < 1 {
		return ir.NoVar // integer comparison, not a pointer constraint
	}
	return v
}
