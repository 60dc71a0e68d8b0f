package check

import (
	"context"

	"bootstrap/internal/core"
	"bootstrap/internal/ir"
	"bootstrap/internal/nullcheck"
)

// derefFootprint collects every pointer the program dereferences: the
// source of a load, the destination of a store, the pointer of a
// write-through touch. This is the nullcheck (and use-after-free) demand
// set — only clusters containing a dereferenced pointer are solved.
func derefFootprint(prog *ir.Program) func(*ir.Var) bool {
	set := map[ir.VarID]bool{}
	for _, n := range prog.Nodes {
		switch n.Stmt.Op {
		case ir.OpLoad:
			set[n.Stmt.Src] = true
		case ir.OpStore:
			set[n.Stmt.Dst] = true
		case ir.OpTouch:
			if n.Stmt.Src != ir.NoVar {
				set[n.Stmt.Src] = true
			}
		}
	}
	return func(v *ir.Var) bool { return set[v.ID] }
}

// NullcheckPass is the flow-sensitive null/uninitialized-dereference
// checker on the framework.
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

// Run implements Pass. Fingerprints are preset with the warning's own
// exported Fingerprint, so batch (aliaslint) and served (aliasd /check)
// reports are byte-identical for the same snapshot.
func (p *NullcheckPass) Run(ctx context.Context, a *core.Analysis) ([]Diagnostic, error) {
	warnings := nullcheck.Check(ctx, a)
	prog := a.Prog
	out := make([]Diagnostic, 0, len(warnings))
	for _, w := range warnings {
		sev := SeverityWarning
		if w.Severity == nullcheck.DefiniteNull {
			sev = SeverityError
		}
		out = append(out, Diagnostic{
			Rule:        "null-deref",
			Severity:    sev,
			Loc:         w.Loc,
			Subject:     prog.VarName(w.Ptr),
			Message:     w.Format(prog),
			Fingerprint: w.Fingerprint(prog),
		})
	}
	return out, ctx.Err()
}
