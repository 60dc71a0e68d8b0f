package check

import (
	"context"
	"fmt"
	"sort"

	"bootstrap/internal/core"
	"bootstrap/internal/ir"
	"bootstrap/internal/lockset"
)

// LocksetPass is the paper's motivating client — lockset-based data-race
// detection — on the checker framework. Lock resolution rides the
// demand-driven cascade: clusters containing lock pointers solve on
// first touch. An expired pass deadline degrades resolution to the
// fallback, which is never a must-singleton, so a held lock goes
// unrecorded: the pass reports incomplete, and its races can include
// ones a full run does not report.
type LocksetPass struct{}

// Name implements Pass.
func (p *LocksetPass) Name() string { return "lockset" }

// Doc implements Pass.
func (p *LocksetPass) Doc() string {
	return "lockset-based data race detection over must-alias-resolved lock objects"
}

// Footprint implements Pass: race detection needs must-aliases only for
// lock pointers, so only clusters containing one are demanded.
func (p *LocksetPass) Footprint(prog *ir.Program) func(*ir.Var) bool {
	return lockset.LockDemand
}

// Run implements Pass.
func (p *LocksetPass) Run(ctx context.Context, a *core.Analysis) ([]Diagnostic, error) {
	races, _ := lockset.NewDetector(a).Detect(ctx)
	prog := a.Prog
	out := make([]Diagnostic, 0, len(races))
	for _, r := range races {
		out = append(out, Diagnostic{
			Rule:     "race",
			Severity: SeverityWarning,
			Loc:      r.A.Loc,
			Subject:  prog.VarName(r.Var),
			Message:  r.Format(prog),
			Related: []Related{{
				Loc: r.B.Loc,
				Message: fmt.Sprintf("conflicting %s in thread %s",
					accessKind(r.B.Write), prog.Func(r.B.Thread).Name),
			}},
		})
	}
	return out, ctx.Err()
}

func accessKind(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// DeadlockPass detects potential deadlocks: it builds the lock-order
// graph over must-alias-resolved lock objects across thread entries
// (an edge h→a for every acquisition of a while h is definitely held)
// and reports its cycles, each with both acquisition witnesses.
type DeadlockPass struct{}

// Name implements Pass.
func (p *DeadlockPass) Name() string { return "deadlock" }

// Doc implements Pass.
func (p *DeadlockPass) Doc() string {
	return "lock-order inversion (deadlock) detection over the cross-thread lock-order graph"
}

// Footprint implements Pass: like lockset, only lock-pointer clusters.
func (p *DeadlockPass) Footprint(prog *ir.Program) func(*ir.Var) bool {
	return lockset.LockDemand
}

// Run implements Pass.
func (p *DeadlockPass) Run(ctx context.Context, a *core.Analysis) ([]Diagnostic, error) {
	det := lockset.NewDetector(a)
	det.Detect(ctx)
	edges := det.Order()
	prog := a.Prog

	// First witness per (held, acquired) object pair; edges arrive in
	// canonical order, so witnesses are deterministic.
	witness := map[pair]lockset.OrderEdge{}
	for _, e := range edges {
		key := pair{e.Held, e.Acquired}
		if _, ok := witness[key]; !ok {
			witness[key] = e
		}
	}

	var out []Diagnostic
	reported := map[pair]bool{}
	emit := func(a, b ir.VarID) {
		// Canonical orientation: the primary witness acquires the
		// lexicographically-larger lock while holding the smaller.
		if prog.VarName(b) < prog.VarName(a) {
			a, b = b, a
		}
		if reported[pair{a, b}] {
			return
		}
		reported[pair{a, b}] = true
		fwd, rev := witness[pair{a, b}], witness[pair{b, a}]
		out = append(out, Diagnostic{
			Rule:     "deadlock",
			Severity: SeverityWarning,
			Loc:      fwd.Loc,
			Subject:  prog.VarName(a) + "<->" + prog.VarName(b),
			Message: fmt.Sprintf(
				"lock-order inversion between %s and %s: %s acquired while holding %s at L%d (thread %s), but %s acquired while holding %s at L%d (thread %s)",
				prog.VarName(a), prog.VarName(b),
				prog.VarName(b), prog.VarName(a), fwd.Loc, prog.Func(fwd.Thread).Name,
				prog.VarName(a), prog.VarName(b), rev.Loc, prog.Func(rev.Thread).Name),
			Related: []Related{{
				Loc: rev.Loc,
				Message: fmt.Sprintf("reverse acquisition: %s acquired while holding %s (thread %s)",
					prog.VarName(a), prog.VarName(b), prog.Func(rev.Thread).Name),
			}},
		})
	}

	// Pairwise inversions: both h→a and a→h observed.
	for _, e := range edges {
		if _, ok := witness[pair{e.Acquired, e.Held}]; ok {
			emit(e.Held, e.Acquired)
		}
	}

	// Longer cycles (a→b→c→a with no 2-cycle among them) via SCCs of
	// the order graph: any SCC with ≥2 locks and no reported pairwise
	// inversion inside it must contain a longer cycle — walk one and
	// report every acquisition on it as a witness.
	for _, scc := range orderSCCs(witness) {
		if len(scc) < 2 {
			continue
		}
		covered := false
		for i := 0; i < len(scc) && !covered; i++ {
			for j := i + 1; j < len(scc); j++ {
				a, b := scc[i], scc[j]
				if prog.VarName(b) < prog.VarName(a) {
					a, b = b, a
				}
				if reported[pair{a, b}] {
					covered = true
					break
				}
			}
		}
		if covered {
			continue
		}
		cyc := cycleWithin(scc, witness)
		if len(cyc) < 2 {
			continue
		}
		names := make([]string, len(cyc))
		for i, v := range cyc {
			names[i] = prog.VarName(v)
		}
		sort.Strings(names)
		first := witness[pair{cyc[0], cyc[1]}]
		d := Diagnostic{
			Rule:     "deadlock",
			Severity: SeverityWarning,
			Loc:      first.Loc,
			Subject:  joinStrings(names, "<->"),
			Message: fmt.Sprintf("lock-order cycle over %d locks (%s)",
				len(cyc), joinStrings(names, ", ")),
		}
		for i := range cyc {
			e := witness[pair{cyc[i], cyc[(i+1)%len(cyc)]}]
			d.Related = append(d.Related, Related{
				Loc: e.Loc,
				Message: fmt.Sprintf("%s acquired while holding %s (thread %s)",
					prog.VarName(e.Acquired), prog.VarName(e.Held), prog.Func(e.Thread).Name),
			})
		}
		out = append(out, d)
	}
	return out, ctx.Err()
}

func joinStrings(ss []string, sep string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += sep
		}
		out += s
	}
	return out
}

// pair is a directed (held, acquired) lock-object pair — an edge key in
// the lock-order graph.
type pair struct{ a, b ir.VarID }

// orderSCCs computes the strongly connected components of the lock-order
// graph (Tarjan), each returned sorted by lock id, components sorted by
// their smallest member.
func orderSCCs(witness map[pair]lockset.OrderEdge) [][]ir.VarID {
	adj := map[ir.VarID][]ir.VarID{}
	nodeSet := map[ir.VarID]bool{}
	for key := range witness {
		adj[key.a] = append(adj[key.a], key.b)
		nodeSet[key.a], nodeSet[key.b] = true, true
	}
	nodes := make([]ir.VarID, 0, len(nodeSet))
	for v := range nodeSet {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for v := range adj {
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
	}

	index := map[ir.VarID]int{}
	low := map[ir.VarID]int{}
	onStack := map[ir.VarID]bool{}
	var stack []ir.VarID
	next := 0
	var sccs [][]ir.VarID

	var strongconnect func(v ir.VarID)
	strongconnect = func(v ir.VarID) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []ir.VarID
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Slice(scc, func(i, j int) bool { return scc[i] < scc[j] })
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	return sccs
}

// cycleWithin finds one directed cycle confined to the SCC, starting
// from its smallest member, returned as the node sequence (closing edge
// implied from last back to first).
func cycleWithin(scc []ir.VarID, witness map[pair]lockset.OrderEdge) []ir.VarID {
	in := map[ir.VarID]bool{}
	for _, v := range scc {
		in[v] = true
	}
	adj := map[ir.VarID][]ir.VarID{}
	for key := range witness {
		if in[key.a] && in[key.b] {
			adj[key.a] = append(adj[key.a], key.b)
		}
	}
	for v := range adj {
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
	}
	start := scc[0]
	var path []ir.VarID
	onPath := map[ir.VarID]bool{}
	var dfs func(v ir.VarID) bool
	dfs = func(v ir.VarID) bool {
		path = append(path, v)
		onPath[v] = true
		for _, w := range adj[v] {
			if w == start && len(path) >= 2 {
				return true
			}
			if !onPath[w] {
				if dfs(w) {
					return true
				}
			}
		}
		path = path[:len(path)-1]
		onPath[v] = false
		return false
	}
	if dfs(start) {
		return path
	}
	return nil
}
