package frontend

import (
	"fmt"
	"sort"

	"bootstrap/internal/ir"
)

// Devirtualize expands every indirect-call placeholder node into a
// nondeterministic branch over the candidate targets, following the
// function-pointer treatment of Emami et al. that the paper adopts. For
// each target the expansion contains the parameter-binding copies, a direct
// call node, and (when the call's result is used and the target returns a
// value) a return-value binding node.
//
// targets is consulted per placeholder with the call location and the
// function-pointer variable; it typically queries a points-to analysis.
// Candidates whose arity does not match the call are dropped. A call with
// no viable target becomes a skip.
func Devirtualize(p *ir.Program, targets func(loc ir.Loc, fptr ir.VarID) []ir.FuncID) error {
	// Snapshot: expansion appends nodes, which must not be revisited.
	numNodes := len(p.Nodes)
	for li := 0; li < numNodes; li++ {
		n := p.Nodes[li]
		if n.Stmt.Op != ir.OpCall || n.Stmt.Callee != ir.NoFunc {
			continue
		}
		if n.Stmt.FPtr == ir.NoVar {
			return fmt.Errorf("devirtualize: L%d: indirect call without a function pointer", n.Loc)
		}
		cands := targets(n.Loc, n.Stmt.FPtr)
		// Deterministic order and arity filter.
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		var viable []ir.FuncID
		for _, c := range cands {
			f := p.Func(c)
			if len(f.Params) != len(n.Stmt.Args) {
				continue
			}
			if n.Stmt.Dst != ir.NoVar && f.Ret == ir.NoVar {
				continue
			}
			viable = append(viable, c)
		}

		// p may be a clone (ir.Program.Clone): every node written is
		// taken through MutNode, so the program it was cloned from is
		// not, and the expansion's Args are n's own copy.
		n = p.MutNode(n.Loc)
		dst, args, fptr := n.Stmt.Dst, n.Stmt.Args, n.Stmt.FPtr

		// Turn the placeholder into a dispatch skip and splice a join node
		// in front of its successors.
		n.Stmt = ir.Stmt{Op: ir.OpSkip, Dst: ir.NoVar, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar,
			Comment: fmt.Sprintf("dispatch *%s", p.VarName(fptr))}
		join := p.AddNode(n.Fn, ir.Stmt{Op: ir.OpSkip, Dst: ir.NoVar, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar, Comment: "endcall"})
		jn := p.MutNode(join)
		// Move n's successors onto join.
		jn.Succs = n.Succs
		for _, s := range jn.Succs {
			preds := p.MutNode(s).Preds
			for i, pr := range preds {
				if pr == n.Loc {
					preds[i] = join
				}
			}
		}
		n.Succs = nil

		if len(viable) == 0 {
			p.AddEdge(n.Loc, join)
			continue
		}
		for _, g := range viable {
			f := p.Func(g)
			cur := n.Loc
			for i, av := range args {
				if av == ir.NoVar {
					continue
				}
				bind := p.AddNode(n.Fn, ir.Stmt{Op: ir.OpCopy, Dst: f.Params[i], Src: av, Callee: ir.NoFunc, FPtr: ir.NoVar})
				p.AddEdge(cur, bind)
				cur = bind
			}
			call := p.AddNode(n.Fn, ir.Stmt{Op: ir.OpCall, Dst: dst, Src: ir.NoVar, Callee: g, FPtr: fptr, Args: args})
			p.AddEdge(cur, call)
			cur = call
			if dst != ir.NoVar && f.Ret != ir.NoVar {
				ret := p.AddNode(n.Fn, ir.Stmt{Op: ir.OpCopy, Dst: dst, Src: f.Ret, Callee: ir.NoFunc, FPtr: ir.NoVar})
				p.MutNode(ret).CallLoc = call
				p.AddEdge(cur, ret)
				cur = ret
			}
			p.AddEdge(cur, join)
		}
	}
	return p.Validate()
}

// HasIndirectCalls reports whether p still contains indirect-call
// placeholder nodes.
func HasIndirectCalls(p *ir.Program) bool {
	for _, n := range p.Nodes {
		if n.Stmt.Op == ir.OpCall && n.Stmt.Callee == ir.NoFunc {
			return true
		}
	}
	return false
}
