package frontend

import (
	"bootstrap/internal/cpl"
	"bootstrap/internal/ir"
)

// resolved is the outcome of name resolution: either a variable or a
// function (function names decay to function values, as in C).
type resolved struct {
	v  ir.VarID
	fn ir.FuncID // set (with v == NoVar) when the name is a function
}

func (lw *lowerer) resolve(name string, pos cpl.Pos) (resolved, error) {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if v, ok := lw.scopes[i][name]; ok {
			return resolved{v: v, fn: ir.NoFunc}, nil
		}
	}
	if f, ok := lw.prog.FuncByName[name]; ok {
		return resolved{v: ir.NoVar, fn: f}, nil
	}
	return resolved{}, posErr(pos, "undeclared identifier %s", name)
}

// funcValue returns (creating on demand) the KindFunc object representing
// function f as a value; function pointers point to this object.
func (lw *lowerer) funcValue(f ir.FuncID) ir.VarID {
	if v, ok := lw.prog.FuncValue[f]; ok {
		return v
	}
	name := "$fn:" + lw.prog.Func(f).Name
	v := lw.addVar(name, ir.KindFunc, f, typeInfo{base: "void", stars: 0})
	lw.prog.FuncValue[f] = v
	return v
}

// resolvePath resolves an Ident or dot-field chain to a variable. For a
// flattened struct it returns the struct-root pseudo variable; for a leaf
// field the flattened field variable.
func (lw *lowerer) resolvePath(e cpl.Expr) (ir.VarID, error) {
	switch x := e.(type) {
	case *cpl.Ident:
		r, err := lw.resolve(x.Name, x.Pos)
		if err != nil {
			return ir.NoVar, err
		}
		if r.fn != ir.NoFunc {
			return ir.NoVar, posErr(x.Pos, "function %s used as a variable; take its address or call it", x.Name)
		}
		return r.v, nil
	case *cpl.Field:
		if x.Arrow {
			return ir.NoVar, posErr(x.Pos, "internal: arrow field in resolvePath")
		}
		base, err := lw.resolvePath(x.X)
		if err != nil {
			return ir.NoVar, err
		}
		prefix, structName, ok := lw.isStructRoot(base)
		if !ok {
			return ir.NoVar, posErr(x.Pos, "%s is not a struct value", x.X)
		}
		fieldTI, ok := lw.fieldType(structName, x.Name)
		if !ok {
			return ir.NoVar, posErr(x.Pos, "struct %s has no field %s", structName, x.Name)
		}
		fq := prefix + "." + x.Name
		if fieldTI.isStruct && fieldTI.stars == 0 {
			return lw.structRoot(fq, fieldTI.base), nil
		}
		v, ok := lw.prog.VarByName[fq]
		if !ok {
			return ir.NoVar, posErr(x.Pos, "internal: flattened field %s missing", fq)
		}
		return v, nil
	}
	return ir.NoVar, posErr(e.Position(), "expected a variable or field path, found %s", e)
}

func (lw *lowerer) fieldType(structName, field string) (typeInfo, bool) {
	sd, ok := lw.structs[structName]
	if !ok {
		return typeInfo{}, false
	}
	for _, fd := range sd.Fields {
		for _, d := range fd.Names {
			if d.Name == field {
				return typeInfo{base: fd.Type.Base, isStruct: fd.Type.IsStruct, stars: d.Stars}, true
			}
		}
	}
	return typeInfo{}, false
}

// isPathExpr reports whether e is an Ident or dot-field chain (an lvalue
// resolvable without emitting code).
func isPathExpr(e cpl.Expr) bool {
	switch x := e.(type) {
	case *cpl.Ident:
		return true
	case *cpl.Field:
		return !x.Arrow && isPathExpr(x.X)
	}
	return false
}

// rvalueToVar lowers e to a variable holding its value, emitting canonical
// statements as needed. It returns NoVar for non-pointer values (integer
// literals, comparisons), which callers treat as "no pointer effect".
func (lw *lowerer) rvalueToVar(e cpl.Expr) (ir.VarID, error) {
	switch x := e.(type) {
	case *cpl.Ident:
		r, err := lw.resolve(x.Name, x.Pos)
		if err != nil {
			return ir.NoVar, err
		}
		if r.fn != ir.NoFunc {
			// A bare function name decays to its address.
			t := lw.newTemp()
			lw.emit(ir.Stmt{Op: ir.OpAddr, Dst: t, Src: lw.funcValue(r.fn), Callee: ir.NoFunc, FPtr: ir.NoVar})
			return t, nil
		}
		return r.v, nil
	case *cpl.Field:
		if !x.Arrow {
			return lw.resolvePath(x)
		}
		// p->f reads through the pointer, field-insensitively: *p.
		v, err := lw.rvalueToVar(x.X)
		if err != nil {
			return ir.NoVar, err
		}
		if v == ir.NoVar {
			return ir.NoVar, posErr(x.Pos, "cannot dereference a non-pointer value")
		}
		t := lw.newTemp()
		lw.emit(ir.Stmt{Op: ir.OpLoad, Dst: t, Src: v, Callee: ir.NoFunc, FPtr: ir.NoVar})
		return t, nil
	case *cpl.Deref:
		v, err := lw.rvalueToVar(x.X)
		if err != nil {
			return ir.NoVar, err
		}
		if v == ir.NoVar {
			return ir.NoVar, posErr(x.Pos, "cannot dereference a non-pointer value")
		}
		t := lw.newTemp()
		lw.emit(ir.Stmt{Op: ir.OpLoad, Dst: t, Src: v, Callee: ir.NoFunc, FPtr: ir.NoVar})
		return t, nil
	case *cpl.AddrOf:
		return lw.addrToVar(x)
	case *cpl.Malloc:
		h := lw.newHeapVar(x.Pos)
		t := lw.newTemp()
		lw.emit(ir.Stmt{Op: ir.OpAddr, Dst: t, Src: h, Callee: ir.NoFunc, FPtr: ir.NoVar})
		return t, nil
	case *cpl.Null:
		t := lw.newTemp()
		lw.emit(ir.Stmt{Op: ir.OpNullify, Dst: t, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar})
		return t, nil
	case *cpl.Num:
		return ir.NoVar, nil
	case *cpl.Call:
		t := lw.newTemp()
		if _, err := lw.lowerCall(x, t); err != nil {
			return ir.NoVar, err
		}
		return t, nil
	case *cpl.Binary:
		t := lw.newTemp()
		emitted, err := lw.lowerBinaryInto(t, x)
		if err != nil {
			return ir.NoVar, err
		}
		if !emitted {
			return ir.NoVar, nil
		}
		return t, nil
	}
	return ir.NoVar, posErr(e.Position(), "unsupported expression %s", e)
}

// addrToVar lowers `&x` into a fresh temp.
func (lw *lowerer) addrToVar(a *cpl.AddrOf) (ir.VarID, error) {
	switch x := a.X.(type) {
	case *cpl.Deref:
		// &*e == e.
		return lw.rvalueToVar(x.X)
	case *cpl.Field:
		if x.Arrow {
			// &p->f degrades to p under field-insensitive heap objects.
			return lw.rvalueToVar(x.X)
		}
	}
	if id, ok := a.X.(*cpl.Ident); ok {
		if r, err := lw.resolve(id.Name, id.Pos); err == nil && r.fn != ir.NoFunc {
			t := lw.newTemp()
			lw.emit(ir.Stmt{Op: ir.OpAddr, Dst: t, Src: lw.funcValue(r.fn), Callee: ir.NoFunc, FPtr: ir.NoVar})
			return t, nil
		}
	}
	v, err := lw.resolvePath(a.X)
	if err != nil {
		return ir.NoVar, err
	}
	if _, _, isRoot := lw.isStructRoot(v); isRoot {
		return ir.NoVar, posErr(a.Pos, "taking the address of a whole struct is not supported; take a field's address")
	}
	t := lw.newTemp()
	lw.emit(ir.Stmt{Op: ir.OpAddr, Dst: t, Src: v, Callee: ir.NoFunc, FPtr: ir.NoVar})
	return t, nil
}

// assignToVar lowers `dst = e` in canonical form without a temporary when
// possible.
func (lw *lowerer) assignToVar(dst ir.VarID, e cpl.Expr, pos cpl.Pos) error {
	switch x := e.(type) {
	case *cpl.Ident:
		r, err := lw.resolve(x.Name, x.Pos)
		if err != nil {
			return err
		}
		if r.fn != ir.NoFunc {
			lw.emit(ir.Stmt{Op: ir.OpAddr, Dst: dst, Src: lw.funcValue(r.fn), Callee: ir.NoFunc, FPtr: ir.NoVar})
			return nil
		}
		lw.emit(ir.Stmt{Op: ir.OpCopy, Dst: dst, Src: r.v, Callee: ir.NoFunc, FPtr: ir.NoVar})
		return nil
	case *cpl.Field:
		if !x.Arrow {
			v, err := lw.resolvePath(x)
			if err != nil {
				return err
			}
			lw.emit(ir.Stmt{Op: ir.OpCopy, Dst: dst, Src: v, Callee: ir.NoFunc, FPtr: ir.NoVar})
			return nil
		}
		v, err := lw.rvalueToVar(x.X)
		if err != nil {
			return err
		}
		if v == ir.NoVar {
			return posErr(x.Pos, "cannot dereference a non-pointer value")
		}
		lw.emit(ir.Stmt{Op: ir.OpLoad, Dst: dst, Src: v, Callee: ir.NoFunc, FPtr: ir.NoVar})
		return nil
	case *cpl.Deref:
		v, err := lw.rvalueToVar(x.X)
		if err != nil {
			return err
		}
		if v == ir.NoVar {
			return posErr(x.Pos, "cannot dereference a non-pointer value")
		}
		lw.emit(ir.Stmt{Op: ir.OpLoad, Dst: dst, Src: v, Callee: ir.NoFunc, FPtr: ir.NoVar})
		return nil
	case *cpl.AddrOf:
		switch inner := x.X.(type) {
		case *cpl.Deref:
			return lw.assignToVar(dst, inner.X, pos)
		case *cpl.Field:
			if inner.Arrow {
				return lw.assignToVar(dst, inner.X, pos)
			}
		case *cpl.Ident:
			if r, err := lw.resolve(inner.Name, inner.Pos); err == nil && r.fn != ir.NoFunc {
				lw.emit(ir.Stmt{Op: ir.OpAddr, Dst: dst, Src: lw.funcValue(r.fn), Callee: ir.NoFunc, FPtr: ir.NoVar})
				return nil
			}
		}
		v, err := lw.resolvePath(x.X)
		if err != nil {
			return err
		}
		if _, _, isRoot := lw.isStructRoot(v); isRoot {
			return posErr(x.Pos, "taking the address of a whole struct is not supported; take a field's address")
		}
		lw.emit(ir.Stmt{Op: ir.OpAddr, Dst: dst, Src: v, Callee: ir.NoFunc, FPtr: ir.NoVar})
		return nil
	case *cpl.Malloc:
		h := lw.newHeapVar(x.Pos)
		if lw.prog.Var(dst).IsLock {
			lw.prog.Var(h).IsLock = true
		}
		lw.emit(ir.Stmt{Op: ir.OpAddr, Dst: dst, Src: h, Callee: ir.NoFunc, FPtr: ir.NoVar})
		return nil
	case *cpl.Null:
		lw.emit(ir.Stmt{Op: ir.OpNullify, Dst: dst, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar})
		return nil
	case *cpl.Num:
		// No alias effect, but the write is recorded for client analyses
		// (e.g. race detection).
		lw.emit(ir.Stmt{Op: ir.OpTouch, Dst: dst, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar})
		return nil
	case *cpl.Call:
		_, err := lw.lowerCall(x, dst)
		return err
	case *cpl.Binary:
		emitted, err := lw.lowerBinaryInto(dst, x)
		if err == nil && !emitted {
			lw.emit(ir.Stmt{Op: ir.OpTouch, Dst: dst, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar})
		}
		return err
	}
	return posErr(e.Position(), "unsupported expression %s", e)
}

// lowerBinaryInto lowers `dst = x op y`. Comparisons yield non-pointer
// values. Pointer arithmetic aliases dst with every pointer operand
// nondeterministically (paper, Remark 1: "aliasing all pointer operands
// with the resulting pointer"). Reports whether any statement was emitted.
func (lw *lowerer) lowerBinaryInto(dst ir.VarID, b *cpl.Binary) (bool, error) {
	if b.Op != cpl.OpAdd && b.Op != cpl.OpSub {
		return false, nil // comparison: non-pointer result
	}
	vx, err := lw.rvalueToVar(b.X)
	if err != nil {
		return false, err
	}
	vy, err := lw.rvalueToVar(b.Y)
	if err != nil {
		return false, err
	}
	switch {
	case vx == ir.NoVar && vy == ir.NoVar:
		return false, nil
	case vy == ir.NoVar:
		lw.emit(ir.Stmt{Op: ir.OpCopy, Dst: dst, Src: vx, Callee: ir.NoFunc, FPtr: ir.NoVar})
		return true, nil
	case vx == ir.NoVar:
		lw.emit(ir.Stmt{Op: ir.OpCopy, Dst: dst, Src: vy, Callee: ir.NoFunc, FPtr: ir.NoVar})
		return true, nil
	default:
		// Both operands are pointers: dst may alias either, chosen
		// nondeterministically via a branch diamond.
		branch := lw.emit(skipStmt("ptr-arith"))
		lw.frontier = lw.frontierOf(branch)
		a1 := lw.emit(ir.Stmt{Op: ir.OpCopy, Dst: dst, Src: vx, Callee: ir.NoFunc, FPtr: ir.NoVar})
		lw.frontier = lw.frontierOf(branch)
		a2 := lw.emit(ir.Stmt{Op: ir.OpCopy, Dst: dst, Src: vy, Callee: ir.NoFunc, FPtr: ir.NoVar})
		lw.frontier = lw.frontierWindow(2)
		lw.frontier[0], lw.frontier[1] = a1, a2
		lw.emit(skipStmt("endptr-arith"))
		return true, nil
	}
}

// lowerAssign lowers a general `lhs = rhs` statement.
func (lw *lowerer) lowerAssign(lhs, rhs cpl.Expr, pos cpl.Pos) error {
	switch l := lhs.(type) {
	case *cpl.Ident, *cpl.Field:
		if f, ok := l.(*cpl.Field); ok && f.Arrow {
			// p->f = rhs degrades to *p = rhs.
			return lw.lowerStore(f.X, rhs, pos)
		}
		v, err := lw.resolvePath(l)
		if err != nil {
			return err
		}
		if prefix, sname, isRoot := lw.isStructRoot(v); isRoot {
			return lw.lowerStructCopy(prefix, sname, rhs, pos)
		}
		return lw.assignToVar(v, rhs, pos)
	case *cpl.Deref:
		return lw.lowerStore(l.X, rhs, pos)
	}
	return posErr(pos, "cannot assign to %s", lhs)
}

// lowerStore lowers `*ptrExpr = rhs`.
func (lw *lowerer) lowerStore(ptrExpr, rhs cpl.Expr, pos cpl.Pos) error {
	v, err := lw.rvalueToVar(ptrExpr)
	if err != nil {
		return err
	}
	if v == ir.NoVar {
		return posErr(pos, "cannot dereference a non-pointer value")
	}
	w, err := lw.rvalueToVar(rhs)
	if err != nil {
		return err
	}
	if w == ir.NoVar {
		// Storing a non-pointer value: no alias effect, but the objects
		// written through v are recorded for client analyses.
		lw.emit(ir.Stmt{Op: ir.OpTouch, Dst: ir.NoVar, Src: v, Callee: ir.NoFunc, FPtr: ir.NoVar})
		return nil
	}
	lw.emit(ir.Stmt{Op: ir.OpStore, Dst: v, Src: w, Callee: ir.NoFunc, FPtr: ir.NoVar})
	return nil
}

// lowerStructCopy lowers a whole-struct assignment `s1 = s2` as fieldwise
// copies of the flattened leaves.
func (lw *lowerer) lowerStructCopy(dstPrefix, structName string, rhs cpl.Expr, pos cpl.Pos) error {
	if !isPathExpr(rhs) {
		return posErr(pos, "struct assignment requires a struct variable on the right")
	}
	rv, err := lw.resolvePath(rhs)
	if err != nil {
		return err
	}
	srcPrefix, srcName, isRoot := lw.isStructRoot(rv)
	if !isRoot || srcName != structName {
		return posErr(pos, "struct assignment requires matching struct types")
	}
	for _, suffix := range lw.structFields(structName) {
		d, okD := lw.prog.VarByName[dstPrefix+suffix]
		s, okS := lw.prog.VarByName[srcPrefix+suffix]
		if !okD || !okS {
			return posErr(pos, "internal: flattened field %s missing", suffix)
		}
		lw.emit(ir.Stmt{Op: ir.OpCopy, Dst: d, Src: s, Callee: ir.NoFunc, FPtr: ir.NoVar})
	}
	return nil
}

// lowerCall lowers a call with optional result destination. For direct
// calls it emits parameter-binding copies, the call node, and the
// return-value binding. Indirect calls become placeholder nodes expanded by
// Devirtualize.
func (lw *lowerer) lowerCall(c *cpl.Call, dst ir.VarID) (ir.VarID, error) {
	// Resolve the callee.
	var callee ir.FuncID = ir.NoFunc
	var fptr ir.VarID = ir.NoVar
	switch fun := c.Fun.(type) {
	case *cpl.Ident:
		r, err := lw.resolve(fun.Name, fun.Pos)
		if err != nil {
			return ir.NoVar, err
		}
		if r.fn != ir.NoFunc {
			callee = r.fn
		} else {
			fptr = r.v // C-style call through a pointer variable
		}
	case *cpl.Deref:
		v, err := lw.rvalueToVar(fun.X)
		if err != nil {
			return ir.NoVar, err
		}
		if v == ir.NoVar {
			return ir.NoVar, posErr(fun.Pos, "cannot call through a non-pointer value")
		}
		fptr = v
	default:
		return ir.NoVar, posErr(c.Pos, "unsupported callee expression %s", c.Fun)
	}

	// Lower arguments left to right.
	args := make([]ir.VarID, len(c.Args))
	for i, a := range c.Args {
		av, err := lw.rvalueToVar(a)
		if err != nil {
			return ir.NoVar, err
		}
		args[i] = av
	}

	if callee != ir.NoFunc {
		f := lw.prog.Func(callee)
		if len(args) != len(f.Params) {
			return ir.NoVar, posErr(c.Pos, "call to %s with %d arguments, want %d", f.Name, len(args), len(f.Params))
		}
		if dst != ir.NoVar && f.Ret == ir.NoVar {
			return ir.NoVar, posErr(c.Pos, "void function %s used as a value", f.Name)
		}
		for i, av := range args {
			if av != ir.NoVar {
				lw.emit(ir.Stmt{Op: ir.OpCopy, Dst: f.Params[i], Src: av, Callee: ir.NoFunc, FPtr: ir.NoVar})
			}
		}
		callLoc := lw.emit(ir.Stmt{Op: ir.OpCall, Dst: dst, Src: ir.NoVar, Callee: callee, FPtr: ir.NoVar, Args: args})
		if dst != ir.NoVar {
			ret := lw.emit(ir.Stmt{Op: ir.OpCopy, Dst: dst, Src: f.Ret, Callee: ir.NoFunc, FPtr: ir.NoVar})
			lw.prog.Node(ret).CallLoc = callLoc
		}
		return dst, nil
	}

	// Indirect call placeholder; targets are bound by Devirtualize.
	lw.emit(ir.Stmt{Op: ir.OpCall, Dst: dst, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: fptr, Args: args})
	return dst, nil
}
