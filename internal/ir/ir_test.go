package ir

import (
	"strings"
	"testing"
)

// build constructs a minimal valid program: main with entry -> copy -> exit.
func build(t *testing.T) (*Program, *Func, Loc) {
	t.Helper()
	p := NewProgram()
	x := p.AddVar("x", KindGlobal, NoFunc)
	y := p.AddVar("y", KindGlobal, NoFunc)
	f := p.AddFunc("main")
	p.Entry = f.ID
	f.Entry = p.AddNode(f.ID, Stmt{Op: OpSkip, Dst: NoVar, Src: NoVar, Callee: NoFunc, FPtr: NoVar})
	cp := p.AddNode(f.ID, Stmt{Op: OpCopy, Dst: x, Src: y, Callee: NoFunc, FPtr: NoVar})
	f.Exit = p.AddNode(f.ID, Stmt{Op: OpRet, Dst: NoVar, Src: NoVar, Callee: NoFunc, FPtr: NoVar})
	p.AddEdge(f.Entry, cp)
	p.AddEdge(cp, f.Exit)
	return p, f, cp
}

func TestValidProgram(t *testing.T) {
	p, _, _ := build(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDuplicateVarPanics(t *testing.T) {
	p := NewProgram()
	p.AddVar("x", KindGlobal, NoFunc)
	defer func() {
		if recover() == nil {
			t.Error("duplicate variable should panic")
		}
	}()
	p.AddVar("x", KindGlobal, NoFunc)
}

func TestDuplicateFuncPanics(t *testing.T) {
	p := NewProgram()
	p.AddFunc("f")
	defer func() {
		if recover() == nil {
			t.Error("duplicate function should panic")
		}
	}()
	p.AddFunc("f")
}

func TestAddEdgeDedupes(t *testing.T) {
	p, f, cp := build(t)
	before := len(p.Node(f.Entry).Succs)
	p.AddEdge(f.Entry, cp)
	p.AddEdge(f.Entry, cp)
	if got := len(p.Node(f.Entry).Succs); got != before {
		t.Errorf("duplicate edges added: %d -> %d", before, got)
	}
	if got := len(p.Node(cp).Preds); got != 1 {
		t.Errorf("preds = %d, want 1", got)
	}
}

func TestStmtStrings(t *testing.T) {
	p := NewProgram()
	x := p.AddVar("x", KindGlobal, NoFunc)
	y := p.AddVar("y", KindGlobal, NoFunc)
	f := p.AddFunc("main")
	g := p.AddFunc("callee")
	g.Params = append(g.Params, y)

	cases := []struct {
		stmt Stmt
		want string
	}{
		{Stmt{Op: OpCopy, Dst: x, Src: y}, "x = y"},
		{Stmt{Op: OpAddr, Dst: x, Src: y}, "x = &y"},
		{Stmt{Op: OpLoad, Dst: x, Src: y}, "x = *y"},
		{Stmt{Op: OpStore, Dst: x, Src: y}, "*x = y"},
		{Stmt{Op: OpNullify, Dst: x, Src: NoVar}, "x = null"},
		{Stmt{Op: OpNullify, Dst: x, Src: NoVar, Free: true}, "free(x)"},
		{Stmt{Op: OpSkip, Dst: NoVar, Src: NoVar, Comment: "entry"}, "skip // entry"},
		{Stmt{Op: OpRet, Dst: NoVar, Src: NoVar}, "return"},
		{Stmt{Op: OpCall, Dst: NoVar, Src: NoVar, Callee: g.ID, FPtr: NoVar, Args: []VarID{x}}, "call callee(x)"},
		{Stmt{Op: OpCall, Dst: NoVar, Src: NoVar, Callee: NoFunc, FPtr: x}, "call <indirect:x>()"},
		{Stmt{Op: OpTouch, Dst: x, Src: NoVar}, "touch x"},
		{Stmt{Op: OpTouch, Dst: NoVar, Src: x}, "touch *x"},
	}
	for _, tc := range cases {
		loc := p.AddNode(f.ID, tc.stmt)
		if got := p.StmtString(loc); got != tc.want {
			t.Errorf("StmtString(%v) = %q, want %q", tc.stmt.Op, got, tc.want)
		}
	}
}

func TestValidateCatchesAsymmetricEdges(t *testing.T) {
	p, f, cp := build(t)
	// Corrupt: forward edge without back edge.
	p.Node(f.Entry).Succs = append(p.Node(f.Entry).Succs, f.Exit)
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "back edge") {
		t.Errorf("Validate = %v, want missing-back-edge error", err)
	}
	_ = cp
}

func TestValidateCatchesBadOperand(t *testing.T) {
	p, f, _ := build(t)
	p.AddNode(f.ID, Stmt{Op: OpCopy, Dst: NoVar, Src: NoVar, Callee: NoFunc, FPtr: NoVar})
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "missing dst") {
		t.Errorf("Validate = %v, want missing-operand error", err)
	}
}

func TestValidateCatchesBadCall(t *testing.T) {
	p, f, _ := build(t)
	p.AddNode(f.ID, Stmt{Op: OpCall, Dst: NoVar, Src: NoVar, Callee: NoFunc, FPtr: NoVar})
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "neither callee nor fptr") {
		t.Errorf("Validate = %v, want bad-call error", err)
	}
}

func TestValidateCatchesCrossFunctionEdge(t *testing.T) {
	p, _, cp := build(t)
	h := p.AddFunc("h")
	h.Entry = p.AddNode(h.ID, Stmt{Op: OpSkip, Dst: NoVar, Src: NoVar, Callee: NoFunc, FPtr: NoVar})
	h.Exit = h.Entry
	p.AddEdge(cp, h.Entry)
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "cross-function") {
		t.Errorf("Validate = %v, want cross-function error", err)
	}
}

func TestValidateCatchesUnorderedNodes(t *testing.T) {
	p, f, _ := build(t)
	f.Nodes[0], f.Nodes[1] = f.Nodes[1], f.Nodes[0]
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "listed after") {
		t.Errorf("Validate = %v, want node-order error", err)
	}
}

func TestValidateMissingEntryExit(t *testing.T) {
	p := NewProgram()
	p.AddFunc("f")
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "missing entry or exit") {
		t.Errorf("Validate = %v, want missing entry/exit", err)
	}
}

func TestDumpRendersAll(t *testing.T) {
	p, _, _ := build(t)
	d := p.Dump()
	for _, want := range []string{"func main(", "x = y", "return"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
}

func TestVarName(t *testing.T) {
	p, _, _ := build(t)
	if got := p.VarName(NoVar); got != "<none>" {
		t.Errorf("VarName(NoVar) = %q", got)
	}
	if got := p.VarName(0); got != "x" {
		t.Errorf("VarName(0) = %q", got)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []VarKind{KindGlobal, KindLocal, KindParam, KindTemp, KindHeap, KindRet, KindFunc}
	want := []string{"global", "local", "param", "temp", "heap", "ret", "func"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("VarKind(%d) = %q, want %q", i, k.String(), want[i])
		}
	}
	ops := []Op{OpSkip, OpCopy, OpAddr, OpLoad, OpStore, OpNullify, OpCall, OpRet, OpTouch}
	wantOps := []string{"skip", "copy", "addr", "load", "store", "nullify", "call", "ret", "touch"}
	for i, o := range ops {
		if o.String() != wantOps[i] {
			t.Errorf("Op(%d) = %q, want %q", i, o.String(), wantOps[i])
		}
	}
}

func TestDotCFG(t *testing.T) {
	p, f, _ := build(t)
	dot := p.DotCFG()
	for _, want := range []string{"digraph cfg", "subgraph cluster_0", "x = y", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DotCFG missing %q:\n%s", want, dot)
		}
	}
	// Restricted rendering.
	dot2 := p.DotCFG(f.ID)
	if !strings.Contains(dot2, "cluster_0") {
		t.Error("restricted DotCFG missing function")
	}
	// Escaping.
	if got := dotEscape(`a"b\c`); got != `a\"b\\c` {
		t.Errorf("dotEscape = %q", got)
	}
}
