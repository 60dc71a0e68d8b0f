package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
)

const editProgA = `
	int a, b, c;
	int *x, *y, *p;
	void main() {
		x = &a;
		y = &b;
		p = &c;
		x = y;
	}
`

func lower(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := frontend.LowerSource(src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

// findStmt returns the location of the first statement matching op with
// the given destination name.
func findStmt(t *testing.T, p *ir.Program, op ir.Op, dst string) ir.Loc {
	t.Helper()
	want := p.VarByName[dst]
	for _, n := range p.Nodes {
		if n.Stmt.Op == op && n.Stmt.Dst == want {
			return n.Loc
		}
	}
	t.Fatalf("no %v statement with dst %q", op, dst)
	return ir.NoLoc
}

// cloneProg has several functions, parameters and calls, so a clone's
// shared Loc and VarID arrays hold many neighbouring lists.
const cloneProg = `
	int a, b, c;
	int *x, *y, *p;
	void f(int *q, int *r) {
		x = q;
		y = r;
	}
	void g(int *s) {
		p = s;
	}
	void main() {
		x = &a;
		y = &b;
		f(x, y);
		g(p);
		p = &c;
	}
`

// lists renders every list a Program holds: each function's Params and
// Nodes, each node's Succs, Preds, call Args and CallLoc, and the name
// maps.
func lists(p *ir.Program) string {
	var b strings.Builder
	for _, f := range p.Funcs {
		fmt.Fprintf(&b, "func %s params=%v ret=%d nodes=%v entry=%d exit=%d\n", f.Name, f.Params, f.Ret, f.Nodes, f.Entry, f.Exit)
	}
	for _, n := range p.Nodes {
		fmt.Fprintf(&b, "L%d succs=%v preds=%v args=%v callloc=%d\n", n.Loc, n.Succs, n.Preds, n.Stmt.Args, n.CallLoc)
	}
	fmt.Fprintf(&b, "vars=%v\nfuncs=%v\nvalues=%v\n", p.VarByName, p.FuncByName, p.FuncValue)
	return b.String()
}

// render is everything a writer can change in p.
func render(p *ir.Program) string { return p.Dump() + lists(p) }

// growLists grows lists of p past their length: an insert after f's
// first statement (a node appended to f.Nodes, which g's list follows),
// an extra edge from that statement to f's exit (its Succs and the
// exit's Preds), one more argument on every call and one more
// parameter on g.
func growLists(t *testing.T, p *ir.Program) {
	t.Helper()
	f := p.Func(p.FuncByName["f"])
	anchor := findStmt(t, p, ir.OpCopy, "x")
	if p.Node(anchor).Fn != f.ID {
		t.Fatal("the anchor is not in f")
	}
	ins := ir.Stmt{Op: ir.OpCopy, Dst: p.VarByName["y"], Src: p.VarByName["x"], Callee: ir.NoFunc, FPtr: ir.NoVar}
	if _, err := ir.ApplyEdits(p, []ir.Edit{{Kind: ir.EditInsertAfter, Loc: anchor, Stmt: ins}}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	p.AddEdge(anchor, f.Exit)
	for _, n := range p.Nodes {
		if n.Stmt.Op == ir.OpCall {
			w := p.MutNode(n.Loc)
			w.Stmt.Args = append(w.Stmt.Args, p.VarByName["a"])
		}
	}
	g := p.MutFunc(p.FuncByName["g"])
	g.Params = append(g.Params, p.VarByName["b"])
}

// writersProg calls through a function pointer, which lowering leaves
// unresolved for Devirtualize.
const writersProg = `
	int a, b, c;
	int *x, *y, *p;
	void *fp;
	void f(int *q) { x = q; }
	void g(int *s) { p = s; }
	void main() {
		x = &a;
		y = &b;
		fp = &g;
		f(x);
		(*fp)(y);
		p = &c;
	}
`

// writeAll runs every writer outside lowering on p, as generation gen of
// an edit chain: Devirtualize expands the indirect calls p has, then one
// edit of each kind, then the writers that build a function. The insert
// adds an indirect call, so the next generation's Devirtualize has one to
// expand; gen names the added variable and function.
func writeAll(t *testing.T, p *ir.Program, gen int) {
	t.Helper()
	targets := []ir.FuncID{p.FuncByName["f"], p.FuncByName["g"]}
	if err := frontend.Devirtualize(p, func(ir.Loc, ir.VarID) []ir.FuncID { return targets }); err != nil {
		t.Fatalf("generation %d: Devirtualize: %v", gen, err)
	}
	apply := func(edits ...ir.Edit) {
		t.Helper()
		if _, err := ir.ApplyEdits(p, edits); err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
	}
	v := fmt.Sprintf("v%d", gen)
	apply(ir.Edit{Kind: ir.EditAddVar, Name: v, Var: ir.KindGlobal, Fn: ir.NoFunc})
	vr := func(name string) ir.VarID { return p.VarByName[name] }
	stmt := func(op ir.Op, dst, src ir.VarID) ir.Stmt {
		return ir.Stmt{Op: op, Dst: dst, Src: src, Callee: ir.NoFunc, FPtr: ir.NoVar}
	}
	main := p.Func(p.FuncByName["main"])
	var plain []ir.Loc
	for _, loc := range main.Nodes {
		if n := p.Node(loc); (n.Stmt.Op == ir.OpAddr || n.Stmt.Op == ir.OpCopy) && n.CallLoc == ir.NoLoc {
			plain = append(plain, loc)
		}
	}
	call := ir.Stmt{Op: ir.OpCall, Dst: ir.NoVar, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: vr("fp"), Args: []ir.VarID{vr("x")}}
	apply(
		ir.Edit{Kind: ir.EditReplaceStmt, Loc: plain[0], Stmt: stmt(ir.OpAddr, vr(v), vr("a"))},
		ir.Edit{Kind: ir.EditDeleteStmt, Loc: plain[len(plain)-1]},
		ir.Edit{Kind: ir.EditInsertAfter, Loc: main.Entry, Stmt: call},
	)
	// A fresh function, q = &b with a parameter q, built the way lowering
	// builds one. On a clone AddFunc copies the function-name map first.
	name := fmt.Sprintf("fresh%d", gen)
	f := p.AddFunc(name).ID
	entry := p.AddNode(f, stmt(ir.OpSkip, ir.NoVar, ir.NoVar))
	q := p.AddVar(name+".q", ir.KindParam, f)
	body := p.AddNode(f, stmt(ir.OpAddr, q, vr("b")))
	exit := p.AddNode(f, stmt(ir.OpRet, ir.NoVar, ir.NoVar))
	p.AddEdge(entry, body)
	p.AddEdge(body, exit)
	fn := p.MutFunc(f)
	fn.Params = append(fn.Params, q)
	fn.Entry, fn.Exit = entry, exit
}

func TestCloneIndependent(t *testing.T) {
	p := lower(t, editProgA)
	q := p.Clone()
	loc := findStmt(t, q, ir.OpCopy, "x")
	q.MutNode(loc).Stmt.Op = ir.OpSkip
	q.AddVar("zzz", ir.KindGlobal, ir.NoFunc)
	if p.Node(loc).Stmt.Op != ir.OpCopy {
		t.Fatal("clone mutation leaked into original")
	}
	if _, ok := p.VarByName["zzz"]; ok {
		t.Fatal("clone AddVar leaked into original")
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}

	// Lists that grow on a clone, and on a clone of that clone, must
	// neither reach the program cloned from nor overwrite the clone's
	// neighbouring lists.
	cloneChain(t, cloneProg, func(t *testing.T, p *ir.Program, _ int) { growLists(t, p) })

	// Nor may any other writer outside lowering.
	if !frontend.HasIndirectCalls(lower(t, writersProg)) {
		t.Fatal("test premise broken: no indirect call to devirtualize")
	}
	cloneChain(t, writersProg, writeAll)
}

// cloneChain lowers src, runs write on a clone of it as generation 1 and
// on a clone of that clone as generation 2, and runs the same writes on
// a lowering never cloned. The program each clone was made from must
// render as before, and each clone as the never-cloned program after
// the same writes, list for list.
func cloneChain(t *testing.T, src string, write func(t *testing.T, p *ir.Program, gen int)) {
	t.Helper()
	orig := lower(t, src)
	before := render(orig)
	want := lower(t, src)
	c1 := orig.Clone()
	write(t, want, 1)
	write(t, c1, 1)
	want1 := render(want)
	c2 := c1.Clone()
	write(t, want, 2)
	write(t, c2, 2)
	for _, c := range []struct {
		name      string
		got, want string
	}{
		{"original", render(orig), before},
		{"clone", render(c1), want1},
		{"clone of the clone", render(c2), render(want)},
	} {
		if c.got != c.want {
			t.Errorf("%s after the writes:\n%s\nwant:\n%s", c.name, c.got, c.want)
		}
	}
	for _, c := range []*ir.Program{c1, c2} {
		if err := c.Validate(); err != nil {
			t.Fatalf("edited clone invalid: %v", err)
		}
	}
}

func TestApplyReplaceDeleteInsert(t *testing.T) {
	p := lower(t, editProgA).Clone()
	locCopy := findStmt(t, p, ir.OpCopy, "x")
	locAddr := findStmt(t, p, ir.OpAddr, "p")
	x, px := p.VarByName["x"], p.VarByName["p"]
	sum, err := ir.ApplyEdits(p, []ir.Edit{
		{Kind: ir.EditReplaceStmt, Loc: locCopy, Stmt: ir.Stmt{Op: ir.OpCopy, Dst: x, Src: px, Callee: ir.NoFunc, FPtr: ir.NoVar}},
		{Kind: ir.EditDeleteStmt, Loc: locAddr},
		{Kind: ir.EditInsertAfter, Loc: locCopy, Stmt: ir.Stmt{Op: ir.OpNullify, Dst: px, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar}},
	})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("edited program invalid: %v", err)
	}
	if sum.Structural {
		t.Fatalf("statement edits must not be structural: %s", sum.Reason)
	}
	if p.Node(locCopy).Stmt.Src != px {
		t.Fatal("replace not applied")
	}
	if p.Node(locAddr).Stmt.Op != ir.OpSkip {
		t.Fatal("delete did not tombstone")
	}
	// The inserted node sits between locCopy and its old successors.
	if len(p.Node(locCopy).Succs) != 1 {
		t.Fatalf("anchor succs = %v", p.Node(locCopy).Succs)
	}
	ins := p.Node(locCopy).Succs[0]
	if got := p.Node(ins).Stmt.Op; got != ir.OpNullify {
		t.Fatalf("spliced node has op %v", got)
	}
	for _, v := range []ir.VarID{x, px} {
		found := false
		for _, sv := range sum.Vars {
			if sv == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("summary vars %v missing %d", sum.Vars, v)
		}
	}
}

func TestApplyEditErrors(t *testing.T) {
	p := lower(t, editProgA).Clone()
	if _, err := ir.ApplyEdits(p, []ir.Edit{{Kind: ir.EditReplaceStmt, Loc: ir.Loc(99999)}}); err == nil {
		t.Fatal("out-of-range loc accepted")
	}
	p = lower(t, editProgA).Clone()
	if _, err := ir.ApplyEdits(p, []ir.Edit{{Kind: ir.EditAddVar, Name: "x"}}); err == nil {
		t.Fatal("duplicate variable accepted")
	}
}

func TestCallEditIsStructural(t *testing.T) {
	src := `
		int a;
		int *g;
		void callee() { g = &a; }
		void main() { callee(); }
	`
	p := lower(t, src).Clone()
	var callLoc ir.Loc = ir.NoLoc
	for _, n := range p.Nodes {
		if n.Stmt.Op == ir.OpCall {
			callLoc = n.Loc
		}
	}
	if callLoc == ir.NoLoc {
		t.Fatal("no call")
	}
	sum, err := ir.ApplyEdits(p, []ir.Edit{{Kind: ir.EditDeleteStmt, Loc: callLoc}})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !sum.Structural {
		t.Fatal("deleting a call must be structural")
	}
}
