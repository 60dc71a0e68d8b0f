package check

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"bootstrap/internal/core"
	"bootstrap/internal/ir"
)

// The lockset model is the usual one for driver-style code: the thread
// entry functions run concurrently with each other and with themselves,
// and locks are acquired and released through designated functions
// that take the lock pointer as their first argument. A must-lockset
// flows forward through each thread's code (intersection at joins and
// at a callee's entry), and the held lock pointers resolve to lock
// objects through the flow-sensitive must-alias analysis. The lockset
// pass reads shared accesses from the converged locksets, the deadlock
// pass lock-order edges.
var (
	acquireNames = []string{"acquire", "lock_acquire", "spin_lock"}
	releaseNames = []string{"release", "lock_release", "spin_unlock"}
)

// lockFootprint is the demand predicate of the lockset and deadlock
// passes: "for lockset computation used in data race detection, we need
// to compute must-aliases only for lock pointers."
func lockFootprint(v *ir.Var) bool { return v.IsLock }

// lockSet is a must-set of lock objects; nil is ⊤ (everything held),
// the state of a point not reached yet.
type lockSet map[ir.VarID]bool

func (s lockSet) clone() lockSet {
	if s == nil {
		return nil
	}
	c := make(lockSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// sorted lists the held lock objects in id order (none for ⊤).
func (s lockSet) sorted() []ir.VarID {
	var out []ir.VarID
	for l := range s {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// joinLocks intersects in into cur (⊤ is the identity) and reports
// whether cur changed.
func joinLocks(cur, in lockSet) (lockSet, bool) {
	var out lockSet
	switch {
	case cur == nil:
		out = in.clone()
	case in == nil:
		out = cur.clone()
	default:
		out = lockSet{}
		for k := range cur {
			if in[k] {
				out[k] = true
			}
		}
	}
	return out, !equalSets(cur, out)
}

func equalSets(s, t lockSet) bool {
	if s == nil || t == nil {
		return s == nil && t == nil
	}
	if len(s) != len(t) {
		return false
	}
	for k := range s {
		if !t[k] {
			return false
		}
	}
	return true
}

// lockFlow is the must-lockset dataflow over one analysis. Lock
// resolution is a points-to query under ctx. Once ctx expires it
// answers from the flow-insensitive fallback, which resolves no lock to
// a must-singleton: a guarded access then looks unguarded, so the
// lockset pass can report races a full run does not.
type lockFlow struct {
	ctx              context.Context
	a                *core.Analysis
	acquire, release map[ir.FuncID]bool
}

func newLockFlow(ctx context.Context, a *core.Analysis) *lockFlow {
	f := &lockFlow{ctx: ctx, a: a, acquire: map[ir.FuncID]bool{}, release: map[ir.FuncID]bool{}}
	for _, name := range acquireNames {
		if id, ok := a.Prog.FuncByName[name]; ok {
			f.acquire[id] = true
		}
	}
	for _, name := range releaseNames {
		if id, ok := a.Prog.FuncByName[name]; ok {
			f.release[id] = true
		}
	}
	return f
}

// lockAt resolves the lock object that the call at loc passes as its
// first argument; ok is false when it is not a must-singleton.
func (f *lockFlow) lockAt(loc ir.Loc) (ir.VarID, bool) {
	args := f.a.Prog.Node(loc).Stmt.Args
	if len(args) == 0 || args[0] == ir.NoVar {
		return ir.NoVar, false
	}
	objs, precise := f.a.PointsToContext(f.ctx, args[0], loc)
	if !precise || len(objs) != 1 {
		return ir.NoVar, false
	}
	return objs[0], true
}

// transfer applies the lock effect of the node at loc.
func (f *lockFlow) transfer(loc ir.Loc, s lockSet) lockSet {
	st := f.a.Prog.Node(loc).Stmt
	if st.Op != ir.OpCall {
		return s
	}
	switch {
	case f.acquire[st.Callee]:
		obj, ok := f.lockAt(loc)
		if !ok {
			return s // unknown lock: must-set unchanged (conservative)
		}
		out := s.clone()
		if out == nil {
			out = lockSet{}
		}
		out[obj] = true
		return out
	case f.release[st.Callee]:
		obj, ok := f.lockAt(loc)
		if !ok || s == nil {
			// An unknown release may free any lock: drop everything.
			return lockSet{}
		}
		out := s.clone()
		delete(out, obj)
		return out
	}
	return s
}

// run converges thread's must-locksets: the lockset on entry to every
// node the thread reaches, and the functions it reaches. A call to a
// lock function does not enter it.
func (f *lockFlow) run(thread ir.FuncID) (map[ir.Loc]lockSet, []ir.FuncID) {
	return forward(f.a.Prog, thread, lockSet{}, joinLocks, f.transfer,
		func(c ir.FuncID) bool { return !f.acquire[c] && !f.release[c] })
}

// access is one shared-object access with the lock objects definitely
// held.
type access struct {
	loc    ir.Loc
	obj    ir.VarID
	write  bool
	thread ir.FuncID
	locks  []ir.VarID
}

func (x access) format(p *ir.Program) string {
	names := make([]string, len(x.locks))
	for i, l := range x.locks {
		names[i] = p.VarName(l)
	}
	return fmt.Sprintf("%s at L%d (thread %s, locks {%s})",
		accessKind(x.write), x.loc, p.Func(x.thread).Name, strings.Join(names, ","))
}

func accessKind(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// lockAccesses lists every thread's shared-object accesses (globals and
// heap objects, locks excluded) under its converged locksets, sorted by
// location, then thread.
func lockAccesses(ctx context.Context, a *core.Analysis) []access {
	f := newLockFlow(ctx, a)
	prog := a.Prog
	shared := func(v ir.VarID) bool {
		if v == ir.NoVar {
			return false
		}
		vr := prog.Var(v)
		return !vr.IsLock && (vr.Kind == ir.KindGlobal || vr.Kind == ir.KindHeap)
	}
	var out []access
	for _, thread := range threads(prog) {
		in, funcs := f.run(thread)
		for _, fn := range funcs {
			for _, loc := range prog.Func(fn).Nodes {
				held, reached := in[loc]
				if !reached {
					continue
				}
				add := func(v ir.VarID, write bool) {
					if shared(v) {
						out = append(out, access{loc: loc, obj: v, write: write, thread: thread, locks: held.sorted()})
					}
				}
				// writeTargets adds whatever the pointer p may reference
				// as written.
				writeTargets := func(p ir.VarID) {
					objs, _ := a.PointsToContext(ctx, p, loc)
					for _, o := range objs {
						add(o, true)
					}
				}
				st := prog.Node(loc).Stmt
				switch st.Op {
				case ir.OpCopy, ir.OpLoad, ir.OpNullify:
					add(st.Dst, true)
					if st.Op != ir.OpNullify {
						add(st.Src, false)
					}
				case ir.OpAddr:
					add(st.Dst, true)
				case ir.OpStore:
					writeTargets(st.Dst)
					add(st.Src, false)
				case ir.OpTouch:
					add(st.Dst, true)
					if st.Src != ir.NoVar {
						writeTargets(st.Src)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].loc != out[j].loc {
			return out[i].loc < out[j].loc
		}
		return out[i].thread < out[j].thread
	})
	return out
}

// LocksetPass is the paper's motivating client — lockset-based data-race
// detection — on the checker framework. Two accesses to one shared
// object race when they come from concurrent threads, at least one
// writes, and their locksets are disjoint. Lock resolution rides the
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
	return lockFootprint
}

// Run implements Pass: one race per conflicting pair of accesses, by
// object, locations and threads.
func (p *LocksetPass) Run(ctx context.Context, a *core.Analysis) ([]Diagnostic, error) {
	prog := a.Prog
	accs := lockAccesses(ctx, a)
	var out []Diagnostic
	seen := map[string]bool{}
	for i, x := range accs {
		for _, y := range accs[i:] {
			if x.obj != y.obj || (!x.write && !y.write) || locksIntersect(x.locks, y.locks) {
				continue
			}
			key := fmt.Sprintf("%d|%d|%d|%d|%d", x.obj, x.loc, y.loc, x.thread, y.thread)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, Diagnostic{
				Rule:     "race",
				Severity: SeverityWarning,
				Loc:      x.loc,
				Subject:  prog.VarName(x.obj),
				Message:  fmt.Sprintf("race on %s: %s vs %s", prog.VarName(x.obj), x.format(prog), y.format(prog)),
				Related: []Related{{
					Loc:     y.loc,
					Message: fmt.Sprintf("conflicting %s in thread %s", accessKind(y.write), prog.Func(y.thread).Name),
				}},
			})
		}
	}
	return out, ctx.Err()
}

func locksIntersect(a, b []ir.VarID) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// orderEdge is one observed lock-order fact: while held was definitely
// held, thread acquired acquired at loc. A cycle of edges is a potential
// deadlock, and each edge's loc is its acquisition witness.
type orderEdge struct {
	held, acquired ir.VarID
	loc            ir.Loc
	thread         ir.FuncID
}

// lockOrder lists every thread's lock-order edges, each once and sorted:
// at every reached acquire site whose lock resolves to a must-singleton
// object, each other definitely-held lock precedes the acquired one.
// Edges are read from the converged locksets only: transient fixpoint
// states are supersets of the final must-sets and would fabricate
// spurious edges.
func lockOrder(ctx context.Context, a *core.Analysis) []orderEdge {
	f := newLockFlow(ctx, a)
	prog := a.Prog
	var out []orderEdge
	seen := map[orderEdge]bool{}
	for _, thread := range threads(prog) {
		in, funcs := f.run(thread)
		for _, fn := range funcs {
			for _, loc := range prog.Func(fn).Nodes {
				held := in[loc]
				st := prog.Node(loc).Stmt
				if len(held) == 0 || st.Op != ir.OpCall || !f.acquire[st.Callee] {
					continue
				}
				obj, ok := f.lockAt(loc)
				if !ok {
					continue
				}
				for _, h := range held.sorted() {
					if e := (orderEdge{h, obj, loc, thread}); h != obj && !seen[e] {
						seen[e] = true
						out = append(out, e)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.held != b.held {
			return a.held < b.held
		}
		if a.acquired != b.acquired {
			return a.acquired < b.acquired
		}
		if a.loc != b.loc {
			return a.loc < b.loc
		}
		return a.thread < b.thread
	})
	return out
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
	return lockFootprint
}

// Run implements Pass.
func (p *DeadlockPass) Run(ctx context.Context, a *core.Analysis) ([]Diagnostic, error) {
	edges := lockOrder(ctx, a)
	prog := a.Prog

	// First witness per (held, acquired) object pair; edges arrive in
	// canonical order, so witnesses are deterministic.
	witness := map[pair]orderEdge{}
	for _, e := range edges {
		key := pair{e.held, e.acquired}
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
			Loc:      fwd.loc,
			Subject:  prog.VarName(a) + "<->" + prog.VarName(b),
			Message: fmt.Sprintf(
				"lock-order inversion between %s and %s: %s acquired while holding %s at L%d (thread %s), but %s acquired while holding %s at L%d (thread %s)",
				prog.VarName(a), prog.VarName(b),
				prog.VarName(b), prog.VarName(a), fwd.loc, prog.Func(fwd.thread).Name,
				prog.VarName(a), prog.VarName(b), rev.loc, prog.Func(rev.thread).Name),
			Related: []Related{{
				Loc: rev.loc,
				Message: fmt.Sprintf("reverse acquisition: %s acquired while holding %s (thread %s)",
					prog.VarName(a), prog.VarName(b), prog.Func(rev.thread).Name),
			}},
		})
	}

	// Pairwise inversions: both h→a and a→h observed.
	for _, e := range edges {
		if _, ok := witness[pair{e.acquired, e.held}]; ok {
			emit(e.held, e.acquired)
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
			Loc:      first.loc,
			Subject:  strings.Join(names, "<->"),
			Message: fmt.Sprintf("lock-order cycle over %d locks (%s)",
				len(cyc), strings.Join(names, ", ")),
		}
		for i := range cyc {
			e := witness[pair{cyc[i], cyc[(i+1)%len(cyc)]}]
			d.Related = append(d.Related, Related{
				Loc: e.loc,
				Message: fmt.Sprintf("%s acquired while holding %s (thread %s)",
					prog.VarName(e.acquired), prog.VarName(e.held), prog.Func(e.thread).Name),
			})
		}
		out = append(out, d)
	}
	return out, ctx.Err()
}

// pair is a directed (held, acquired) lock-object pair — an edge key in
// the lock-order graph.
type pair struct{ a, b ir.VarID }

// orderSCCs computes the strongly connected components of the lock-order
// graph (Tarjan), each returned sorted by lock id, components sorted by
// their smallest member.
func orderSCCs(witness map[pair]orderEdge) [][]ir.VarID {
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
func cycleWithin(scc []ir.VarID, witness map[pair]orderEdge) []ir.VarID {
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
