package check

import (
	"slices"
	"strings"

	"bootstrap/internal/ir"
)

// threadPrefix marks thread entry functions: every function whose name
// starts with it runs concurrently with the others and with itself.
const threadPrefix = "thread_"

// threads lists the thread entry functions in id order: the roots of
// the lockset dataflow, and with the program entry of the use-after-free
// one.
func threads(prog *ir.Program) []ir.FuncID {
	var out []ir.FuncID
	for _, f := range prog.Funcs {
		if strings.HasPrefix(f.Name, threadPrefix) {
			out = append(out, f.ID)
		}
	}
	return out
}

// derefPtr names the pointer a statement dereferences: a load's source,
// a store's destination, a write-through touch's pointer. It is NoVar
// for every other statement and for a touch that writes through none.
func derefPtr(st ir.Stmt) ir.VarID {
	switch st.Op {
	case ir.OpLoad, ir.OpTouch:
		return st.Src
	case ir.OpStore:
		return st.Dst
	}
	return ir.NoVar
}

// forward runs one interprocedural forward dataflow from root, entered
// with init, to a fixpoint. It returns the state on entry to every node
// it reached and the functions it reached, in id order.
//
// Each round flows every reached function's CFG from the function's
// entry state. A call whose callee enters accepts merges the state
// before the call into the callee's entry state, and a changed entry
// state makes another round; no state flows back from a callee to its
// caller. join merges in into cur, the state of a program point, and
// reports whether it changed; at a point not reached yet cur is the
// zero S, and join returns a copy of in. transfer applies the node at
// loc to s and must leave s unchanged.
func forward[S any](prog *ir.Program, root ir.FuncID, init S,
	join func(cur, in S) (S, bool),
	transfer func(loc ir.Loc, s S) S,
	enters func(callee ir.FuncID) bool,
) (map[ir.Loc]S, []ir.FuncID) {
	var zero S
	in := map[ir.Loc]S{}
	entry := map[ir.FuncID]S{}
	entry[root], _ = join(zero, init)
	var funcs []ir.FuncID
	for changed := true; changed; {
		changed = false
		funcs = funcs[:0]
		for f := range entry {
			funcs = append(funcs, f)
		}
		slices.Sort(funcs)
		for _, f := range funcs {
			start := prog.Func(f).Entry
			in[start], _ = join(in[start], entry[f])
			work := []ir.Loc{start}
			for len(work) > 0 {
				loc := work[len(work)-1]
				work = work[:len(work)-1]
				n := prog.Node(loc)
				if c := n.Stmt.Callee; n.Stmt.Op == ir.OpCall && c != ir.NoFunc && enters(c) {
					if s, grew := join(entry[c], in[loc]); grew {
						entry[c], changed = s, true
					}
				}
				out := transfer(loc, in[loc])
				for _, succ := range n.Succs {
					if s, grew := join(in[succ], out); grew {
						in[succ] = s
						work = append(work, succ)
					}
				}
			}
		}
	}
	return in, funcs
}
