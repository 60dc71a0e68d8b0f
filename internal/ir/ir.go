// Package ir defines the normalized intermediate representation that every
// analysis in this repository operates on. Per Remark 1 of the paper, all
// pointer statements are in one of four canonical forms — x = y, x = &y,
// *x = y, x = *y — plus x = null (free/deallocation), calls, and skips.
// Structures are flattened field-by-field by the frontend, heap allocations
// are abstract objects named by their allocation site, and each function has
// an explicit control-flow graph with globally unique statement locations.
package ir

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// VarID identifies an abstract memory object (variable, temp, heap object,
// function value, …) within a Program. NoVar means "none".
type VarID int32

// FuncID identifies a function within a Program. NoFunc means "none".
type FuncID int32

// Loc is a globally unique statement location (an index into Program.Nodes).
// The paper's "program location l" corresponds to a Loc.
type Loc int32

// Sentinel values.
const (
	NoVar  VarID  = -1
	NoFunc FuncID = -1
	NoLoc  Loc    = -1
)

// VarKind classifies abstract memory objects.
type VarKind uint8

// Variable kinds.
const (
	KindGlobal VarKind = iota // file-scope variable
	KindLocal                 // function-local variable
	KindParam                 // function formal parameter
	KindTemp                  // frontend-introduced temporary
	KindHeap                  // abstract heap object alloc@loc
	KindRet                   // per-function return-value variable
	KindFunc                  // a function used as a value (function pointer target)
)

var varKindNames = [...]string{"global", "local", "param", "temp", "heap", "ret", "func"}

func (k VarKind) String() string { return varKindNames[k] }

// Var is one abstract memory object.
type Var struct {
	ID   VarID
	Name string // qualified: "g", "main.p", "main.$t1", "alloc@12", "s.f"
	Kind VarKind
	Fn   FuncID // owning function, or NoFunc for globals/heap/functions
	// IsLock marks variables declared with the `lock` type; the lockset
	// application selects clusters containing lock pointers.
	IsLock bool
}

// Op is the operation of a canonical IR statement.
type Op uint8

// Statement operations.
const (
	OpSkip    Op = iota // no pointer effect (entry/exit/branch/temp join)
	OpCopy              // Dst = Src
	OpAddr              // Dst = &Src
	OpLoad              // Dst = *Src
	OpStore             // *Dst = Src
	OpNullify           // Dst = null (kills Dst; from free() and explicit null)
	OpCall              // call site; see Stmt.Callee / Stmt.FPtr / Stmt.Args
	OpRet               // function exit marker
	// OpTouch records a non-pointer memory access for client analyses
	// (e.g. race detection): Dst is a directly written variable (NoVar if
	// none); Src is a pointer written *through* (the objects it may
	// reference are written; NoVar if none). Pointer analyses ignore it.
	OpTouch
	// OpAssumeEq / OpAssumeNeq mark branch arms guarded by a pointer
	// (in)equality test `Dst == Src` / `Dst != Src` — the optional path
	// sensitivity of Section 3: the FSCS walk records them as
	// same-target/different-target constraints (Definition 8) and weeds
	// out summary tuples whose constraints are refutable. Flow- and
	// context-insensitive analyses treat them as skips.
	OpAssumeEq
	OpAssumeNeq
)

var opNames = [...]string{"skip", "copy", "addr", "load", "store", "nullify", "call", "ret", "touch", "assume==", "assume!="}

func (o Op) String() string { return opNames[o] }

// Stmt is one canonical statement. Exactly the fields relevant to Op are
// meaningful.
type Stmt struct {
	Op  Op
	Dst VarID // Copy/Addr/Load/Nullify: lhs. Store: the pointer being stored through.
	Src VarID // Copy/Addr/Load/Store: rhs. Unused for Nullify.

	// Call fields. A direct call has Callee set; an indirect call has FPtr
	// (the variable holding the function pointer) set, with possible targets
	// resolved later by the call-graph builder.
	Callee FuncID
	FPtr   VarID
	Args   []VarID

	// Comment carries the original source text or position, for dumps only.
	Comment string

	// Free marks an OpNullify lowered from free(p) (paper, Remark 1:
	// free(p) is modeled as p = null). The flag has no effect on any
	// alias analysis — the nullify semantics are identical — but client
	// checkers (use-after-free, double-free) need to tell a deallocation
	// apart from an ordinary null assignment.
	Free bool
}

// Node is one CFG node: a statement at a location, with intraprocedural
// edges. Return-value binding nodes that follow a call node record the call
// they bind for (CallLoc) and the specific callee whose return variable they
// copy, so interprocedural traversals know which target a path took.
type Node struct {
	Loc   Loc
	Fn    FuncID
	Stmt  Stmt
	Succs []Loc
	Preds []Loc

	// CallLoc links a return-value binding node back to its call node, and
	// is NoLoc elsewhere.
	CallLoc Loc
}

// Func is one function: its formal parameters, return variable and CFG.
type Func struct {
	ID     FuncID
	Name   string
	Params []VarID
	Ret    VarID // the $ret variable; NoVar if the function never returns a value
	Entry  Loc
	Exit   Loc
	Nodes  []Loc // all nodes of this function, in creation (= ascending Loc) order
}

// Program is a whole translation unit in IR form.
//
// Every field is read directly. A program made by Clone shares its
// variables, and until it writes them its nodes, functions and name
// maps, with the program it was cloned from, so code that writes a node
// or a function takes it through MutNode or MutFunc. AddVar, AddFunc,
// AddNode, AddEdge and ApplyEdits do so themselves. Lowering, which
// builds a program from scratch, owns all it holds and writes it
// directly.
type Program struct {
	Vars  []*Var
	Funcs []*Func
	Nodes []*Node

	FuncByName map[string]FuncID
	VarByName  map[string]VarID

	// FuncValue maps a FuncID to the KindFunc variable representing that
	// function as a value (for function pointers), NoVar if never taken.
	// Only lowering fills it, so a clone always shares it.
	FuncValue map[FuncID]VarID

	// Entry is the program entry function ("main" when present).
	Entry FuncID

	// What a clone still shares with the program it was cloned from:
	// the nodes and functions whose bits are set, and VarByName and
	// FuncByName until it first adds a name.
	sharedNodes     bits
	sharedFuncs     bits
	sharedVarNames  bool
	sharedFuncNames bool

	// cloned makes each variable, node and edge list a clone adds its
	// own allocation (see chunk).
	cloned bool

	// The storage AddVar, AddNode and AddEdge carve from.
	varSlab  slab[Var]
	nodeSlab slab[Node]
	locSlab  slab[Loc]
}

// How many elements one slab holds in a program built from scratch. A
// program keeps at most one part-filled slab of each kind. A slab of
// 240 nodes (136 bytes each) fills a 32 KB allocation size class; a
// larger one would be a large object rounded up to whole pages.
const (
	varSlabLen  = 256
	nodeSlabLen = 240
	locSlabLen  = 2048
)

// chunk returns how many elements p starts a slab with: size when p was
// built from scratch, where lowering adds thousands of elements, and
// one in a clone. An element keeps its whole slab alive, and what a
// clone adds lives on in every later clone that does not write it, so a
// clone that carved its few additions from a fresh slab would pin one
// slab per generation along an edit chain.
func (p *Program) chunk(size int) int {
	if p.cloned {
		return 1
	}
	return size
}

// slab hands out elements of T from chunks of a fixed length, one
// allocation per chunk. Only starting a chunk stores a pointer; taking
// elements bumps a count.
type slab[T any] struct {
	buf  []T
	used int
}

// take returns n fresh elements as a window whose capacity ends where it
// does, starting a chunk of max(size, n) elements when the current one
// has fewer than n left.
func (s *slab[T]) take(n, size int) []T {
	if len(s.buf)-s.used < n {
		s.buf = make([]T, max(size, n))
		s.used = 0
	}
	i := s.used
	s.used += n
	return s.buf[i : i+n : i+n]
}

// bits is a set of small non-negative integers.
type bits []uint64

// allBits returns the set {0, ..., n-1}.
func allBits(n int) bits {
	b := make(bits, (n+63)/64)
	for i := range b {
		b[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		b[len(b)-1] = 1<<r - 1
	}
	return b
}

func (b bits) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(i&63)) != 0
}

func (b bits) remove(i int) { b[i>>6] &^= 1 << (i & 63) }

// own returns a copy of s in an allocation of its own, nil if s is
// empty.
func own[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append([]T(nil), s...)
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{
		FuncByName: make(map[string]FuncID),
		VarByName:  make(map[string]VarID),
		FuncValue:  make(map[FuncID]VarID),
		Entry:      NoFunc,
	}
}

// AddVar adds a variable with a unique qualified name and returns its ID.
// Adding a duplicate name panics: the frontend is responsible for
// qualification.
func (p *Program) AddVar(name string, kind VarKind, fn FuncID) VarID {
	if _, dup := p.VarByName[name]; dup {
		panic(fmt.Sprintf("ir: duplicate variable %q", name))
	}
	if p.sharedVarNames {
		p.VarByName = maps.Clone(p.VarByName)
		p.sharedVarNames = false
	}
	id := VarID(len(p.Vars))
	v := &p.varSlab.take(1, p.chunk(varSlabLen))[0]
	*v = Var{ID: id, Name: name, Kind: kind, Fn: fn}
	p.Vars = append(p.Vars, v)
	p.VarByName[name] = id
	return id
}

// Var returns the variable with the given ID.
func (p *Program) Var(id VarID) *Var { return p.Vars[id] }

// VarName returns the qualified name of id, or "<none>" for NoVar.
func (p *Program) VarName(id VarID) string {
	if id == NoVar {
		return "<none>"
	}
	return p.Vars[id].Name
}

// AddFunc adds an empty function and returns it. Entry/Exit nodes must be
// created by the caller (the frontend does this).
func (p *Program) AddFunc(name string) *Func {
	if _, dup := p.FuncByName[name]; dup {
		panic(fmt.Sprintf("ir: duplicate function %q", name))
	}
	if p.sharedFuncNames {
		p.FuncByName = maps.Clone(p.FuncByName)
		p.sharedFuncNames = false
	}
	id := FuncID(len(p.Funcs))
	f := &Func{ID: id, Name: name, Ret: NoVar, Entry: NoLoc, Exit: NoLoc}
	p.Funcs = append(p.Funcs, f)
	p.FuncByName[name] = id
	return f
}

// Func returns the function with the given ID, for reading.
func (p *Program) Func(id FuncID) *Func { return p.Funcs[id] }

// MutFunc returns the function with the given ID for writing. A
// function p still shares with the program it was cloned from is first
// replaced by a copy with its own Params and Nodes lists.
func (p *Program) MutFunc(id FuncID) *Func {
	f := p.Funcs[id]
	if !p.sharedFuncs.has(int(id)) {
		return f
	}
	p.sharedFuncs.remove(int(id))
	c := new(Func)
	*c = *f
	c.Params = own(f.Params)
	c.Nodes = own(f.Nodes)
	p.Funcs[id] = c
	return c
}

// AddNode appends a statement node to fn's CFG and returns its location.
// No edges are added.
func (p *Program) AddNode(fn FuncID, s Stmt) Loc {
	loc := Loc(len(p.Nodes))
	n := &p.nodeSlab.take(1, p.chunk(nodeSlabLen))[0]
	*n = Node{Loc: loc, Fn: fn, Stmt: s, CallLoc: NoLoc}
	p.Nodes = append(p.Nodes, n)
	f := p.MutFunc(fn)
	f.Nodes = append(f.Nodes, loc)
	return loc
}

// Node returns the node at loc, for reading.
func (p *Program) Node(loc Loc) *Node { return p.Nodes[loc] }

// MutNode returns the node at loc for writing. A node p still shares
// with the program it was cloned from is first replaced by a copy with
// its own Succs, Preds and Args lists.
func (p *Program) MutNode(loc Loc) *Node {
	n := p.Nodes[loc]
	if !p.sharedNodes.has(int(loc)) {
		return n
	}
	p.sharedNodes.remove(int(loc))
	c := new(Node)
	*c = *n
	c.Succs = own(n.Succs)
	c.Preds = own(n.Preds)
	c.Stmt.Args = own(n.Stmt.Args)
	p.Nodes[loc] = c
	return c
}

// AddEdge adds a CFG edge from → to. Duplicate edges are ignored.
func (p *Program) AddEdge(from, to Loc) {
	if slices.Contains(p.Nodes[from].Succs, to) {
		return
	}
	nf := p.MutNode(from)
	nf.Succs = p.appendLoc(nf.Succs, to)
	nt := p.MutNode(to)
	nt.Preds = p.appendLoc(nt.Preds, from)
}

// appendLoc appends l to the edge list s. A full list moves to a window
// of twice its length carved from the program's Loc slab. Each window's
// capacity ends where its own space does, so an append past it, here or
// by any other code, copies the list out instead of overwriting the
// next one.
func (p *Program) appendLoc(s []Loc, l Loc) []Loc {
	if len(s) < cap(s) {
		return append(s, l)
	}
	w := p.locSlab.take(max(2*len(s), 1), p.chunk(locSlabLen))[:len(s)+1]
	copy(w, s)
	w[len(s)] = l
	return w
}

// NumVars returns the size of the abstract-object universe. The paper's
// "# pointers" column counts this universe.
func (p *Program) NumVars() int { return len(p.Vars) }

// StmtString renders the statement at loc for dumps and error messages.
func (p *Program) StmtString(loc Loc) string {
	n := p.Nodes[loc]
	s := n.Stmt
	switch s.Op {
	case OpSkip:
		if s.Comment != "" {
			return "skip // " + s.Comment
		}
		return "skip"
	case OpCopy:
		return fmt.Sprintf("%s = %s", p.VarName(s.Dst), p.VarName(s.Src))
	case OpAddr:
		return fmt.Sprintf("%s = &%s", p.VarName(s.Dst), p.VarName(s.Src))
	case OpLoad:
		return fmt.Sprintf("%s = *%s", p.VarName(s.Dst), p.VarName(s.Src))
	case OpStore:
		return fmt.Sprintf("*%s = %s", p.VarName(s.Dst), p.VarName(s.Src))
	case OpNullify:
		if s.Free {
			return fmt.Sprintf("free(%s)", p.VarName(s.Dst))
		}
		return fmt.Sprintf("%s = null", p.VarName(s.Dst))
	case OpCall:
		args := make([]string, len(s.Args))
		for i, a := range s.Args {
			args[i] = p.VarName(a)
		}
		callee := "<indirect:" + p.VarName(s.FPtr) + ">"
		if s.Callee != NoFunc {
			callee = p.Funcs[s.Callee].Name
		}
		return fmt.Sprintf("call %s(%s)", callee, strings.Join(args, ", "))
	case OpRet:
		return "return"
	case OpTouch:
		switch {
		case s.Dst != NoVar:
			return fmt.Sprintf("touch %s", p.VarName(s.Dst))
		case s.Src != NoVar:
			return fmt.Sprintf("touch *%s", p.VarName(s.Src))
		}
		return "touch"
	case OpAssumeEq:
		return fmt.Sprintf("assume %s == %s", p.VarName(s.Dst), p.VarName(s.Src))
	case OpAssumeNeq:
		return fmt.Sprintf("assume %s != %s", p.VarName(s.Dst), p.VarName(s.Src))
	}
	return "?"
}

// Dump renders the whole program, one function at a time, for debugging.
func (p *Program) Dump() string {
	var b strings.Builder
	for _, f := range p.Funcs {
		fmt.Fprintf(&b, "func %s(", f.Name)
		for i, prm := range f.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.VarName(prm))
		}
		b.WriteString(")\n")
		for _, loc := range f.Nodes {
			n := p.Nodes[loc]
			fmt.Fprintf(&b, "  L%-4d %-40s ->", loc, p.StmtString(loc))
			for _, s := range n.Succs {
				fmt.Fprintf(&b, " L%d", s)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Validate checks structural invariants of the program: edge symmetry,
// location consistency, entry/exit presence, operand validity, and that
// every function lists its nodes in strictly ascending location order
// (AddNode appends fresh locations; consumers binary-search the list). It
// returns the first violation found, or nil.
func (p *Program) Validate() error {
	for i := range p.Vars {
		if err := p.checkVar(i); err != nil {
			return err
		}
	}
	for i := range p.Nodes {
		if err := p.checkNode(i); err != nil {
			return err
		}
	}
	for _, f := range p.Funcs {
		if err := p.checkFunc(f); err != nil {
			return err
		}
	}
	return nil
}

// validateWritten runs Validate's checks, in its order and with its
// error texts, on what p wrote since it was cloned: the variables from
// index vars on, the nodes p no longer shares (the ones it wrote or
// added), their CFG neighbours, and the functions holding those nodes.
// The rest was validated with the program p was cloned from, so the
// first violation is the one Validate would report. A program that is
// not a clone is validated whole.
func (p *Program) validateWritten(vars int) error {
	if !p.cloned {
		return p.Validate()
	}
	for i := vars; i < len(p.Vars); i++ {
		if err := p.checkVar(i); err != nil {
			return err
		}
	}
	var locs []Loc
	for i := range p.Nodes {
		if p.sharedNodes.has(i) {
			continue
		}
		locs = append(locs, Loc(i))
		n := p.Nodes[i]
		for _, nb := range [2][]Loc{n.Succs, n.Preds} {
			for _, l := range nb {
				if l >= 0 && int(l) < len(p.Nodes) {
					locs = append(locs, l)
				}
			}
		}
	}
	slices.Sort(locs)
	locs = slices.Compact(locs)
	fns := make([]FuncID, 0, len(locs))
	for _, l := range locs {
		if err := p.checkNode(int(l)); err != nil {
			return err
		}
		fns = append(fns, p.Nodes[l].Fn)
	}
	slices.Sort(fns)
	for _, f := range slices.Compact(fns) {
		if err := p.checkFunc(p.Funcs[f]); err != nil {
			return err
		}
	}
	return nil
}

// checkVar is Validate's check of variable i.
func (p *Program) checkVar(i int) error {
	if v := p.Vars[i]; v.ID != VarID(i) {
		return fmt.Errorf("var %q: ID %d != index %d", v.Name, v.ID, i)
	}
	return nil
}

// checkNode is Validate's check of the node at index i: its location,
// function, operands and CFG edges.
func (p *Program) checkNode(i int) error {
	n := p.Nodes[i]
	if n.Loc != Loc(i) {
		return fmt.Errorf("node at index %d has Loc %d", i, n.Loc)
	}
	if n.Fn < 0 || int(n.Fn) >= len(p.Funcs) {
		return fmt.Errorf("L%d: bad function %d", n.Loc, n.Fn)
	}
	checkVar := func(id VarID, what string) error {
		if id == NoVar {
			return fmt.Errorf("L%d: missing %s operand", n.Loc, what)
		}
		if int(id) >= len(p.Vars) {
			return fmt.Errorf("L%d: bad %s var %d", n.Loc, what, id)
		}
		return nil
	}
	switch n.Stmt.Op {
	case OpCopy, OpAddr, OpLoad, OpStore, OpAssumeEq, OpAssumeNeq:
		if err := checkVar(n.Stmt.Dst, "dst"); err != nil {
			return err
		}
		if err := checkVar(n.Stmt.Src, "src"); err != nil {
			return err
		}
	case OpNullify:
		if err := checkVar(n.Stmt.Dst, "dst"); err != nil {
			return err
		}
	case OpCall:
		if n.Stmt.Callee == NoFunc && n.Stmt.FPtr == NoVar {
			return fmt.Errorf("L%d: call with neither callee nor fptr", n.Loc)
		}
	}
	for _, s := range n.Succs {
		if int(s) >= len(p.Nodes) {
			return fmt.Errorf("L%d: bad successor L%d", n.Loc, s)
		}
		if !containsLoc(p.Nodes[s].Preds, n.Loc) {
			return fmt.Errorf("L%d -> L%d: missing back edge", n.Loc, s)
		}
		if p.Nodes[s].Fn != n.Fn {
			return fmt.Errorf("L%d -> L%d: cross-function CFG edge", n.Loc, s)
		}
	}
	for _, pr := range n.Preds {
		if !containsLoc(p.Nodes[pr].Succs, n.Loc) {
			return fmt.Errorf("L%d pred L%d: missing forward edge", n.Loc, pr)
		}
	}
	return nil
}

// checkFunc is Validate's check of function f: entry and exit present,
// and its node list ascending and its own.
func (p *Program) checkFunc(f *Func) error {
	if f.Entry == NoLoc || f.Exit == NoLoc {
		return fmt.Errorf("func %s: missing entry or exit", f.Name)
	}
	for i, loc := range f.Nodes {
		if i > 0 && loc <= f.Nodes[i-1] {
			return fmt.Errorf("func %s: node L%d listed after L%d", f.Name, loc, f.Nodes[i-1])
		}
		if p.Nodes[loc].Fn != f.ID {
			return fmt.Errorf("func %s: node L%d belongs to another function", f.Name, loc)
		}
	}
	return nil
}

func containsLoc(ls []Loc, x Loc) bool {
	for _, l := range ls {
		if l == x {
			return true
		}
	}
	return false
}
