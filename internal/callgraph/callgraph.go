// Package callgraph builds the function call graph of an IR program and
// computes its strongly connected components. The paper's interprocedural
// summary computation (Algorithm 5) processes call-graph SCCs in reverse
// topological order — callees before callers — with a fixpoint inside each
// SCC to handle recursion; this package supplies that order.
//
// The builder uses direct call edges only, so programs with function
// pointers should be devirtualized first (frontend.Devirtualize).
package callgraph

import (
	"cmp"
	"slices"

	"bootstrap/internal/ir"
)

// Graph is a call graph. Its lists are indexed by FuncID.
type Graph struct {
	prog *ir.Program

	callees [][]ir.FuncID // deduped, ascending
	callers [][]ir.FuncID // deduped, ascending

	// sites[g] lists the call nodes invoking g, in node order. grouped[g]
	// lists the same nodes by caller, in callers[g] order and node order
	// within a caller; groupEnd[g][i] ends the group of callers[g][i].
	sites    [][]ir.Loc
	grouped  [][]ir.Loc
	groupEnd [][]int32

	sccs      [][]ir.FuncID // reverse topological (callees first)
	sccOf     []int32
	recursive []bool
}

// Build constructs the call graph of p from direct call nodes.
func Build(p *ir.Program) *Graph {
	nf := len(p.Funcs)
	g := &Graph{
		prog:      p,
		callees:   make([][]ir.FuncID, nf),
		callers:   make([][]ir.FuncID, nf),
		sites:     make([][]ir.Loc, nf),
		grouped:   make([][]ir.Loc, nf),
		groupEnd:  make([][]int32, nf),
		sccOf:     make([]int32, nf),
		recursive: make([]bool, nf),
	}
	for _, n := range p.Nodes {
		if n.Stmt.Op == ir.OpCall && n.Stmt.Callee != ir.NoFunc {
			g.sites[n.Stmt.Callee] = append(g.sites[n.Stmt.Callee], n.Loc)
		}
	}
	byCaller := func(a, b ir.Loc) int {
		return cmp.Or(cmp.Compare(p.Node(a).Fn, p.Node(b).Fn), cmp.Compare(a, b))
	}
	// Each callee's sites sorted by caller give its callers and their
	// groups; f ascends, so every callees list comes out ascending.
	for f, ss := range g.sites {
		gs := slices.Clone(ss)
		slices.SortFunc(gs, byCaller)
		g.grouped[f] = gs
		for i, loc := range gs {
			if c := p.Node(loc).Fn; i == 0 || c != p.Node(gs[i-1]).Fn {
				g.callers[f] = append(g.callers[f], c)
				g.callees[c] = append(g.callees[c], ir.FuncID(f))
				g.groupEnd[f] = append(g.groupEnd[f], 0)
			}
			g.groupEnd[f][len(g.groupEnd[f])-1] = int32(i + 1)
		}
	}
	g.tarjan()
	for f := range g.recursive {
		g.recursive[f] = len(g.sccs[g.sccOf[f]]) > 1 || slices.Contains(g.callees[f], ir.FuncID(f))
	}
	return g
}

// Callees returns the functions f calls directly.
func (g *Graph) Callees(f ir.FuncID) []ir.FuncID { return g.callees[f] }

// Callers returns the functions calling f.
func (g *Graph) Callers(f ir.FuncID) []ir.FuncID { return g.callers[f] }

// CallSitesOf returns the call nodes that invoke f, across all callers.
func (g *Graph) CallSitesOf(f ir.FuncID) []ir.Loc { return g.sites[f] }

// CallSitesIn returns the call nodes within caller that invoke callee,
// in node order. The list is the graph's own: callers must not modify
// it.
func (g *Graph) CallSitesIn(caller, callee ir.FuncID) []ir.Loc {
	i, ok := slices.BinarySearch(g.callers[callee], caller)
	if !ok {
		return nil
	}
	ends := g.groupEnd[callee]
	lo, hi := int32(0), ends[i]
	if i > 0 {
		lo = ends[i-1]
	}
	return g.grouped[callee][lo:hi:hi]
}

// SCCs returns the strongly connected components in reverse topological
// order: every SCC appears before any SCC that calls into it, so iterating
// in order processes callees before callers.
func (g *Graph) SCCs() [][]ir.FuncID { return g.sccs }

// SCCOf returns the index (into SCCs) of f's component.
func (g *Graph) SCCOf(f ir.FuncID) int { return int(g.sccOf[f]) }

// InSameSCC reports whether f and h are mutually recursive (or identical).
func (g *Graph) InSameSCC(f, h ir.FuncID) bool { return g.sccOf[f] == g.sccOf[h] }

// Recursive reports whether f participates in recursion (self-loop or an
// SCC with more than one member).
func (g *Graph) Recursive(f ir.FuncID) bool { return g.recursive[f] }

// Reachable returns the functions reachable from entry (inclusive), sorted.
func (g *Graph) Reachable(entry ir.FuncID) []ir.FuncID {
	if entry < 0 || int(entry) >= len(g.callees) {
		return []ir.FuncID{entry}
	}
	seen := make([]bool, len(g.callees))
	seen[entry] = true
	out := []ir.FuncID{entry}
	for i := 0; i < len(out); i++ {
		for _, c := range g.callees[out[i]] {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	slices.Sort(out)
	return out
}

// tarjan computes SCCs iteratively; Tarjan's algorithm emits components in
// reverse topological order of the condensation. Every component is a
// window of one array: the stack pops it as one run.
func (g *Graph) tarjan() {
	n := len(g.prog.Funcs)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	members := make([]ir.FuncID, 0, n)
	var stack []ir.FuncID
	next := 0

	type frame struct {
		f  ir.FuncID
		ci int // next callee index to visit
	}
	var frames []frame
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		frames = append(frames[:0], frame{f: ir.FuncID(start)})
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, ir.FuncID(start))
		onStack[start] = true
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			callees := g.callees[fr.f]
			if fr.ci < len(callees) {
				c := callees[fr.ci]
				fr.ci++
				if index[c] == -1 {
					index[c] = next
					low[c] = next
					next++
					stack = append(stack, c)
					onStack[c] = true
					frames = append(frames, frame{f: c})
				} else if onStack[c] {
					if index[c] < low[fr.f] {
						low[fr.f] = index[c]
					}
				}
				continue
			}
			// fr.f finished.
			if low[fr.f] == index[fr.f] {
				top := len(stack) - 1
				for stack[top] != fr.f {
					top--
				}
				at := len(members)
				members = append(members, stack[top:]...)
				stack = stack[:top]
				scc := members[at:len(members):len(members)]
				slices.Sort(scc)
				for _, f := range scc {
					onStack[f] = false
					g.sccOf[f] = int32(len(g.sccs))
				}
				g.sccs = append(g.sccs, scc)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[fr.f] < low[parent.f] {
					low[parent.f] = low[fr.f]
				}
			}
		}
	}
}
