package check

import (
	"context"
	"fmt"

	"bootstrap/internal/core"
	"bootstrap/internal/ir"
)

// derefFootprint collects every pointer the program dereferences
// (derefPtr). This is the nullcheck (and use-after-free) demand set —
// only clusters containing a dereferenced pointer are solved.
func derefFootprint(prog *ir.Program) func(*ir.Var) bool {
	set := map[ir.VarID]bool{}
	for _, n := range prog.Nodes {
		if p := derefPtr(n.Stmt); p != ir.NoVar {
			set[p] = true
		}
	}
	return func(v *ir.Var) bool { return set[v.ID] }
}

// NullcheckPass is the flow-sensitive null/uninitialized-dereference
// checker. It exercises exactly what the FSCS analysis adds over
// Andersen's:
//
//   - flow sensitivity: `p = &a; p = null; *p = x` warns, while
//     `p = null; p = &a; *p = x` does not;
//   - free() modeling: a dereference after `free(p)` (lowered to
//     p = null) warns;
//   - path sensitivity: a dereference guarded by `if (p != q)` where p
//     and q must be equal is unreachable and not reported.
//
// At every dereference site in a function reachable from the entry it
// queries the dereferenced pointer's state just before the site: a
// possibly-null or uninitialized pointer is a warning, one with no
// valid object on any path an error. An expired pass deadline degrades
// the states to the fallback, where only a pointer with no candidate
// object at all is reported.
type NullcheckPass struct{}

// Name implements Pass.
func (p *NullcheckPass) Name() string { return "nullcheck" }

// Doc implements Pass.
func (p *NullcheckPass) Doc() string {
	return "flow-sensitive null and uninitialized-pointer dereference detection"
}

// Footprint implements Pass: only clusters containing a dereferenced
// pointer matter.
func (p *NullcheckPass) Footprint(prog *ir.Program) func(*ir.Var) bool {
	return derefFootprint(prog)
}

// Run implements Pass.
func (p *NullcheckPass) Run(ctx context.Context, a *core.Analysis) ([]Diagnostic, error) {
	prog := a.Prog
	reachable := map[ir.FuncID]bool{}
	for _, f := range a.CallGraph.Reachable(prog.Entry) {
		reachable[f] = true
	}
	var out []Diagnostic
	for _, n := range prog.Nodes {
		if !reachable[n.Fn] {
			continue
		}
		ptr := derefPtr(n.Stmt)
		if ptr == ir.NoVar {
			continue
		}
		objs, mayNull, mayUninit, precise := a.DerefStateContext(ctx, ptr, n.Loc)
		switch {
		case precise && (mayNull || mayUninit):
			out = append(out, nullDeref(prog, n.Loc, ptr, len(objs) == 0, !mayNull && mayUninit))
		case !precise && len(objs) == 0:
			// Even the flow-insensitive over-approximation found no
			// object this pointer could reference: every dereference is
			// of a null or never-assigned pointer.
			out = append(out, nullDeref(prog, n.Loc, ptr, true, true))
		default:
			// Imprecise with candidates: stay silent (favor low noise).
		}
	}
	return out, ctx.Err()
}

// nullDeref is the finding for a dereference of ptr at loc: definite
// when no path reaches it with a valid object, of an uninitialized
// rather than a null pointer when uninit is set. Its fingerprint hashes
// the rule, function, statement, pointer, "definite" or "may" and the
// uninit flag: the inputs it has always had, so saved baselines keep
// matching.
func nullDeref(prog *ir.Program, loc ir.Loc, ptr ir.VarID, definite, uninit bool) Diagnostic {
	fn := prog.Func(prog.Node(loc).Fn).Name
	sev, degree, kind := SeverityWarning, "may", "null"
	if definite {
		sev, degree = SeverityError, "definite"
	}
	if uninit {
		kind = "uninitialized"
	}
	return Diagnostic{
		Rule:        "null-deref",
		Severity:    sev,
		Loc:         loc,
		Subject:     prog.VarName(ptr),
		Message:     fmt.Sprintf("%s dereference of possibly-%s pointer %s", degree, kind, prog.VarName(ptr)),
		Fingerprint: hashParts("null-deref", fn, prog.StmtString(loc), prog.VarName(ptr), degree, fmt.Sprint(uninit)),
	}
}
