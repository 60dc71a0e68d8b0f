// Package steens implements Steensgaard's unification-based, flow- and
// context-insensitive points-to analysis (POPL 1996) — the first,
// almost-linear-time stage of the paper's bootstrapping cascade.
//
// The analysis maintains equivalence class representatives (ECRs) over
// abstract memory objects with a union-find forest. Each ECR has at most
// one points-to target ECR; processing an assignment unifies the targets of
// both sides, which is what makes the analysis bidirectional (and therefore
// less precise but highly scalable). The resulting points-to sets are
// equivalence classes — the paper's Steensgaard partitions — and the graph
// over partitions (the Steensgaard points-to hierarchy) is made acyclic by
// collapsing strongly connected partitions, which preserves soundness and
// matches the paper's Important Remark that the hierarchy is a DAG with a
// well-defined depth. Self points-to loops (the `*p = p` cyclic case) are
// kept queryable via SelfLoop but excluded from the hierarchy.
//
// Function pointers are handled with signature payloads on ECRs: the ECR of
// a function value carries (params, ret); an indirect call unifies the
// signature of whatever the pointer may target with the call's arguments
// and result, so targets resolve soundly even before devirtualization.
package steens

import (
	"fmt"
	"sort"
	"strings"

	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
	"bootstrap/internal/uf"
)

// Option configures Analyze.
type Option func(*config)

type config struct {
	precise bool
}

// Precise enables the oversharing-resistant mode (after Kuderski et al.,
// "Unification-based Pointer Analysis without Oversharing"): top-level
// copies into *write-only sinks* — variables that are copy destinations
// but are never read, dereferenced, address-taken, compared or passed —
// are not unified eagerly. A deferred copy `x = y` cannot influence any
// other flow (nothing ever reads x), so unifying pt(x) with pt(y) only
// overshares: it fuses every community that writes into x through the
// shared context node. Instead the deferral is recorded and, after the
// fixpoint, x receives an overlay membership in the partition of every
// deferred source. Because a sink is never read, sinks cannot chain
// (x = y marks y as read), so the single-level overlay is complete.
//
// The result is a *disjunctive* partition cover (a variable may belong
// to several partitions), exactly the overlap semantics the downstream
// Andersen clusters already have (Theorem 7): SamePartition,
// PointsToVars, Targets, PartitionOf and Partitions are all
// membership-aware. ContentClass and LocClass keep their base meaning;
// that is sound for every consumer because the `LocClass(o) ==
// ContentClass(q)` transfer filters are only applied to dereferenced or
// read variables, which are never sinks.
func Precise() Option {
	return func(c *config) { c.precise = true }
}

// signature is the lambda payload of an ECR holding function values.
type signature struct {
	params []int // ECRs of formal parameters
	ret    int   // ECR of the return variable, or -1
}

// Analysis is the result of running Steensgaard's analysis on a program.
//
// A variable's Steensgaard partition is the equivalence class of its
// *content* — two pointers are in the same partition exactly when the
// analysis unified what they may hold. This is the paper's notion: for
// Figure 3 (x=&a; y=&b; p=x; *x=*y) the partitions are {p,x}, {y} and
// {a,b}. A partition points to the partition of the objects its members
// may reference, giving the points-to hierarchy.
type Analysis struct {
	prog   *ir.Program
	forest *uf.Forest
	target []int32 // ECR -> points-to target ECR, or -1
	sig    map[int]*signature

	// Derived, partition-level structures (built by finish), in arrays
	// indexed by dense ids: a partition id is a VarID (the partition's
	// smallest member), a location class an ECR id. Entries for ids that
	// are not partition ids stay nil, -1, false or 0. Each member list
	// and each location-class list is its own allocation: callers keep
	// single lists (PartitionOf, Partitions) alive across program
	// generations, and a list carved from a shared array would pin the
	// whole array of its generation.
	rep       []int32      // var -> canonical partition id (smallest member var)
	members   [][]ir.VarID // partition id -> members, increasing
	locVars   [][]ir.VarID // location-class rep -> program vars unified as locations
	succ      []int32      // partition id -> pointee partition, or -1 (self-loops excluded)
	selfLoop  []bool       // partition id -> points into itself
	depth     []int32      // partition id -> depth in the hierarchy
	partOrder []int        // partition ids sorted
	ptClass   []int32      // var -> content-class rep (frozen for concurrent reads)
	locClass  []int32      // var -> location-class rep (frozen for concurrent reads)

	unions int // ECR unifications performed (the analysis' unit of work)

	// Precise (oversharing-resistant) mode state; see Precise.
	precise  bool
	sink     []bool                  // var -> deferred write-only sink
	flowSrcs map[ir.VarID][]ir.VarID // sink -> deferred copy sources
	deferred int                     // copies deferred instead of unified
	memb     map[ir.VarID][]int32    // sink -> sorted canonical partition ids
	sinkCls  map[ir.VarID][]int      // sink -> extra content classes (sorted)
	sinkPT   map[ir.VarID][]ir.VarID // sink -> merged PointsToVars
	sinkPart map[ir.VarID][]ir.VarID // sink -> merged PartitionOf
}

// Analyze runs the analysis over every statement of p.
func Analyze(p *ir.Program, opts ...Option) *Analysis {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	a := &Analysis{
		prog:    p,
		forest:  uf.New(p.NumVars()),
		sig:     map[int]*signature{},
		precise: cfg.precise,
	}
	if a.precise {
		a.findSinks()
	}
	a.target = make([]int32, p.NumVars())
	for i := range a.target {
		a.target[i] = -1
	}
	// Attach signatures to function-value ECRs so indirect calls unify with
	// the right formals/returns.
	for fid, fv := range p.FuncValue {
		f := p.Func(fid)
		s := &signature{ret: -1}
		for _, prm := range f.Params {
			s.params = append(s.params, int(prm))
		}
		if f.Ret != ir.NoVar {
			s.ret = int(f.Ret)
		}
		a.setSig(a.find(int(fv)), s)
	}
	for _, n := range p.Nodes {
		a.stmt(n.Stmt)
	}
	a.finish()
	return a
}

// findSinks marks the write-only sinks: variables that appear as a copy
// destination but are never used in any value-consuming position — read
// as a copy/store/assume source, dereferenced as a load source or store
// destination, address-taken, called through, passed as an argument, or
// touched. Only such variables may have their incoming copies deferred.
func (a *Analysis) findSinks() {
	nv := a.prog.NumVars()
	used := make([]bool, nv)
	copyDst := make([]bool, nv)
	mark := func(v ir.VarID) {
		if v != ir.NoVar {
			used[v] = true
		}
	}
	for _, n := range a.prog.Nodes {
		st := n.Stmt
		switch st.Op {
		case ir.OpCopy:
			mark(st.Src)
			if st.Dst != ir.NoVar && st.Dst != st.Src {
				copyDst[st.Dst] = true
			}
		case ir.OpAddr:
			mark(st.Src) // address taken: contents observable via aliases
		case ir.OpLoad:
			mark(st.Src)
		case ir.OpStore:
			mark(st.Dst)
			mark(st.Src)
		case ir.OpCall:
			mark(st.FPtr)
			for _, arg := range st.Args {
				mark(arg)
			}
		case ir.OpAssumeEq, ir.OpAssumeNeq:
			mark(st.Dst)
			mark(st.Src)
		case ir.OpTouch:
			mark(st.Dst)
			mark(st.Src)
		}
	}
	// Function values carry signature payloads; keep them eager.
	for _, fv := range a.prog.FuncValue {
		used[fv] = true
	}
	a.sink = make([]bool, nv)
	for v := 0; v < nv; v++ {
		a.sink[v] = copyDst[v] && !used[v]
	}
	a.flowSrcs = map[ir.VarID][]ir.VarID{}
}

func (a *Analysis) find(e int) int { return a.forest.Find(e) }

// newECR creates a fresh abstract location.
func (a *Analysis) newECR() int {
	id := a.forest.Add()
	a.target = append(a.target, -1)
	return id
}

// pt returns (creating lazily) the points-to target ECR of e.
func (a *Analysis) pt(e int) int {
	r := a.find(e)
	if a.target[r] == -1 {
		a.target[r] = int32(a.newECR())
	}
	return a.find(int(a.target[r]))
}

func (a *Analysis) setSig(r int, s *signature) {
	if old := a.sig[r]; old != nil {
		a.mergeSigs(old, s)
		return
	}
	a.sig[r] = s
}

func (a *Analysis) mergeSigs(s1, s2 *signature) {
	n := len(s1.params)
	if len(s2.params) < n {
		n = len(s2.params)
	}
	for i := 0; i < n; i++ {
		a.join(s1.params[i], s2.params[i])
	}
	if s1.ret != -1 && s2.ret != -1 {
		a.join(s1.ret, s2.ret)
	} else if s1.ret == -1 {
		s1.ret = s2.ret
	}
	if len(s2.params) > len(s1.params) {
		s1.params = append(s1.params, s2.params[len(s1.params):]...)
	}
}

// join unifies the ECRs of e1 and e2, recursively unifying their targets
// and signatures.
func (a *Analysis) join(e1, e2 int) {
	type pair struct{ x, y int }
	work := []pair{{e1, e2}}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		r1, r2 := a.find(p.x), a.find(p.y)
		if r1 == r2 {
			continue
		}
		t1, t2 := a.target[r1], a.target[r2]
		s1, s2 := a.sig[r1], a.sig[r2]
		delete(a.sig, r1)
		delete(a.sig, r2)
		a.unions++
		r := a.forest.Union(r1, r2)
		switch {
		case t1 == -1:
			a.target[r] = t2
		case t2 == -1:
			a.target[r] = t1
		default:
			a.target[r] = t1
			work = append(work, pair{int(t1), int(t2)})
		}
		switch {
		case s1 == nil:
			if s2 != nil {
				a.sig[r] = s2
			}
		case s2 == nil:
			a.sig[r] = s1
		default:
			a.sig[r] = s1
			a.mergeSigs(s1, s2)
		}
	}
}

func (a *Analysis) stmt(s ir.Stmt) {
	switch s.Op {
	case ir.OpCopy:
		if a.precise && s.Dst != s.Src && a.sink[s.Dst] {
			// Deferred: x is a write-only sink, so the unification
			// would only overshare. Record the flow for the overlay.
			a.flowSrcs[s.Dst] = append(a.flowSrcs[s.Dst], s.Src)
			a.deferred++
			return
		}
		// x = y: unify pt(x) with pt(y) (bidirectional).
		a.join(a.pt(int(s.Dst)), a.pt(int(s.Src)))
	case ir.OpAddr:
		// x = &y: y joins the target of x.
		a.join(a.pt(int(s.Dst)), int(s.Src))
	case ir.OpLoad:
		// x = *y.
		a.join(a.pt(int(s.Dst)), a.pt(a.pt(int(s.Src))))
	case ir.OpStore:
		// *x = y.
		a.join(a.pt(a.pt(int(s.Dst))), a.pt(int(s.Src)))
	case ir.OpCall:
		if s.Callee != ir.NoFunc {
			return // direct calls are bound by explicit copy nodes
		}
		// Indirect call: unify the signature of the pointee of the
		// function pointer with the argument/result ECRs.
		fn := a.pt(int(s.FPtr))
		sg := a.sig[a.find(fn)]
		if sg == nil {
			sg = &signature{ret: -1}
			for range s.Args {
				sg.params = append(sg.params, a.newECR())
			}
			a.sig[a.find(fn)] = sg
		}
		for i, arg := range s.Args {
			if arg == ir.NoVar {
				continue
			}
			for len(sg.params) <= i {
				sg.params = append(sg.params, a.newECR())
			}
			// formal = actual.
			a.join(a.pt(sg.params[i]), a.pt(int(arg)))
			// Joins may have merged the signature object; re-fetch.
			if ns := a.sig[a.find(a.pt(int(s.FPtr)))]; ns != nil {
				sg = ns
			}
		}
		if s.Dst != ir.NoVar {
			if sg.ret == -1 {
				sg.ret = a.newECR()
			}
			a.join(a.pt(int(s.Dst)), a.pt(sg.ret))
		}
	}
}

// finish derives the partition-level structures: partitions grouped by
// content class, the points-to DAG (with cycle collapsing), self-loop
// flags and depths.
func (a *Analysis) finish() {
	nv := a.prog.NumVars()
	// Materialize every variable's content class.
	for v := 0; v < nv; v++ {
		a.pt(v)
	}
	for a.build() {
	}
	// Freeze content classes so queries after Analyze are read-only and
	// safe for concurrent use by per-cluster workers.
	a.ptClass = make([]int32, nv)
	a.locClass = make([]int32, nv)
	for v := 0; v < nv; v++ {
		a.ptClass[v] = int32(a.pt(v))
		a.locClass[v] = int32(a.find(v))
	}
	// Depth: longest path leading to a node along succ edges. Out-degree
	// is at most one and the graph is acyclic, so iterating to fixpoint
	// over sorted nodes terminates within the longest-chain bound.
	a.depth = make([]int32, nv)
	for changed := true; changed; {
		changed = false
		for _, c := range a.partOrder {
			t := a.succ[c]
			if t < 0 {
				continue
			}
			if d := a.depth[c] + 1; d > a.depth[t] {
				a.depth[t] = d
				changed = true
			}
		}
	}
	if a.precise {
		a.overlay()
	}
}

// overlay materializes the precise mode's disjunctive cover: every sink
// with deferred copies from outside its base partition becomes a member
// of each source's partition too, and its points-to set is the union
// over its memberships. Runs once, after the unification fixpoint and
// the class freeze, so all query structures stay read-only afterwards.
func (a *Analysis) overlay() {
	a.memb = map[ir.VarID][]int32{}
	a.sinkCls = map[ir.VarID][]int{}
	a.sinkPT = map[ir.VarID][]ir.VarID{}
	a.sinkPart = map[ir.VarID][]ir.VarID{}
	for v, srcs := range a.flowSrcs {
		ids := map[int32]bool{a.rep[v]: true}
		for _, s := range srcs {
			ids[a.rep[s]] = true
		}
		if len(ids) == 1 {
			continue // every source already shares v's partition
		}
		memb := make([]int32, 0, len(ids))
		for id := range ids {
			memb = append(memb, id)
		}
		sort.Slice(memb, func(i, j int) bool { return memb[i] < memb[j] })
		a.memb[v] = memb
		cls := make([]int, 0, len(memb)-1)
		for _, id := range memb {
			if id != a.rep[v] {
				cls = append(cls, int(a.ptClass[id]))
			}
		}
		sort.Ints(cls)
		a.sinkCls[v] = cls
	}
	// Expand member lists: each sink joins its extra partitions. Done
	// after all memberships are known so merged views see every sink.
	for v, memb := range a.memb {
		for _, id := range memb {
			if id == a.rep[v] {
				continue
			}
			m := a.members[id]
			i := sort.Search(len(m), func(i int) bool { return m[i] >= v })
			m = append(m, 0)
			copy(m[i+1:], m[i:])
			m[i] = v
			a.members[id] = m
		}
	}
	for v, memb := range a.memb {
		var pt, part []ir.VarID
		for _, id := range memb {
			pt = append(pt, a.locVars[a.ptClass[id]]...)
			part = append(part, a.members[id]...)
		}
		a.sinkPT[v] = sortedUnique(pt)
		a.sinkPart[v] = sortedUnique(part)
	}
}

func sortedUnique(vs []ir.VarID) []ir.VarID {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// build computes partitions and the partition graph; if the graph contains
// a multi-node cycle it collapses one cycle (by unifying the content
// classes involved) and reports true so the caller rebuilds. Cycles in the
// points-to *relation* within one partition (the paper's `*p = p` case)
// remain as self-loops and are not collapsed, matching the Important
// Remark that the hierarchy has edges only between distinct nodes.
func (a *Analysis) build() bool {
	nv := a.prog.NumVars()
	// Partition key: the content class find(pt(v)); location class:
	// find(v). Every variable's content class exists (finish made it),
	// so the ECR universe is fixed from here on.
	cls := make([]int32, nv)
	loc := make([]int32, nv)
	for v := 0; v < nv; v++ {
		cls[v] = int32(a.pt(v))
		loc[v] = int32(a.find(v))
	}
	ne := a.forest.Len()
	// Canonical id: the smallest member variable, the first one met.
	smallest := make([]int32, ne) // content-class rep -> smallest member var
	for i := range smallest {
		smallest[i] = -1
	}
	for v, k := range cls {
		if smallest[k] < 0 {
			smallest[k] = int32(v)
		}
	}
	// Size every list first, so each is one exact allocation.
	a.rep = make([]int32, nv)
	size := make([]int32, nv+ne) // partition sizes, then location-class sizes
	for v := 0; v < nv; v++ {
		c := smallest[cls[v]]
		a.rep[v] = c
		size[c]++
		size[nv+int(loc[v])]++
	}
	a.members = make([][]ir.VarID, nv)
	a.locVars = make([][]ir.VarID, ne)
	a.partOrder = a.partOrder[:0]
	for c, n := range size[:nv] {
		if n > 0 {
			a.members[c] = make([]ir.VarID, 0, n)
			a.partOrder = append(a.partOrder, c)
		}
	}
	for e, n := range size[nv:] {
		if n > 0 {
			a.locVars[e] = make([]ir.VarID, 0, n)
		}
	}
	for v := 0; v < nv; v++ {
		c, l := a.rep[v], loc[v]
		a.members[c] = append(a.members[c], ir.VarID(v))
		a.locVars[l] = append(a.locVars[l], ir.VarID(v))
	}
	// Partition edges: partition P (content class c) points to the
	// partition of the program variables unified as locations in c. All
	// such variables share one partition because unified locations have
	// unified contents.
	a.succ = make([]int32, nv)
	for i := range a.succ {
		a.succ[i] = -1
	}
	a.selfLoop = make([]bool, nv)
	for _, c := range a.partOrder {
		objs := a.locVars[cls[c]] // the content class this partition's members share
		if len(objs) == 0 {
			continue // the pointed-to locations are not program variables
		}
		tc := a.rep[objs[0]]
		if int(tc) == c {
			a.selfLoop[c] = true
			continue
		}
		a.succ[c] = tc
	}
	// Detect one multi-node cycle by walking target chains (out-degree 1).
	color := make([]uint8, nv) // 1 = on current chain, 2 = done
	var chain []int
	for _, start := range a.partOrder {
		if color[start] != 0 {
			continue
		}
		chain = chain[:0]
		cur := start
		for {
			if color[cur] == 1 {
				i := 0
				for chain[i] != cur {
					i++
				}
				// Unify the content classes of the cycle's partitions.
				for j := i + 1; j < len(chain); j++ {
					a.join(a.pt(chain[i]), a.pt(chain[j]))
				}
				return true
			}
			if color[cur] == 2 {
				break
			}
			color[cur] = 1
			chain = append(chain, cur)
			t := a.succ[cur]
			if t < 0 {
				break
			}
			cur = int(t)
		}
		for _, c := range chain {
			color[c] = 2
		}
	}
	return false
}

// Rep returns the canonical partition id of v's Steensgaard partition
// (the smallest VarID in the partition).
func (a *Analysis) Rep(v ir.VarID) int { return int(a.rep[v]) }

// SamePartition reports whether p and q may share a partition — the
// necessary condition for them to alias. In precise mode a sink belongs
// to several partitions; the check is membership intersection.
func (a *Analysis) SamePartition(p, q ir.VarID) bool {
	if a.rep[p] == a.rep[q] {
		return true
	}
	if a.memb == nil {
		return false
	}
	mp, mq := a.memb[p], a.memb[q]
	switch {
	case mp == nil && mq == nil:
		return false
	case mp == nil:
		return containsID(mq, a.rep[p])
	case mq == nil:
		return containsID(mp, a.rep[q])
	}
	for i, j := 0, 0; i < len(mp) && j < len(mq); {
		switch {
		case mp[i] == mq[j]:
			return true
		case mp[i] < mq[j]:
			i++
		default:
			j++
		}
	}
	return false
}

func containsID(ids []int32, id int32) bool {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	return i < len(ids) && ids[i] == id
}

// PartitionOf returns the members of v's partition in increasing order.
// For a precise-mode sink this is the union over its memberships.
func (a *Analysis) PartitionOf(v ir.VarID) []ir.VarID {
	if a.sinkPart != nil {
		if m := a.sinkPart[v]; m != nil {
			return m
		}
	}
	return a.members[a.rep[v]]
}

// Partitions returns all partitions, ordered by canonical id; each
// partition's members are in increasing order.
func (a *Analysis) Partitions() [][]ir.VarID {
	out := make([][]ir.VarID, 0, len(a.partOrder))
	for _, c := range a.partOrder {
		out = append(out, a.members[c])
	}
	return out
}

// PointsToPart returns the partition id that partition c points to, if any.
// Self-loops are excluded (see SelfLoop).
func (a *Analysis) PointsToPart(c int) (int, bool) {
	if c < 0 || c >= len(a.succ) || a.succ[c] < 0 {
		return 0, false
	}
	return int(a.succ[c]), true
}

// SelfLoop reports whether partition c points into itself — the paper's
// "cyclic case" where q and *q share a partition.
func (a *Analysis) SelfLoop(c int) bool {
	return c >= 0 && c < len(a.selfLoop) && a.selfLoop[c]
}

// Depth returns the Steensgaard depth of v: the length of the longest path
// in the points-to hierarchy leading to v's partition.
func (a *Analysis) Depth(v ir.VarID) int { return int(a.depth[a.rep[v]]) }

// PartDepth returns the depth of partition c.
func (a *Analysis) PartDepth(c int) int {
	if c < 0 || c >= len(a.depth) {
		return 0
	}
	return int(a.depth[c])
}

// Higher reports whether q > p: q's partition reaches p's partition along
// points-to edges (q is a pointer transitively pointing at p's level).
func (a *Analysis) Higher(q, p ir.VarID) bool {
	cq, cp := a.rep[q], a.rep[p]
	if cq == cp {
		return false
	}
	for {
		t := a.succ[cq]
		if t < 0 {
			return false
		}
		if t == cp {
			return true
		}
		cq = t
	}
}

// PointsToVars returns the program variables p may point to under
// Steensgaard's analysis: the variables unified, as locations, into p's
// content class. It may be empty (p points only at synthetic locations).
// For a precise-mode sink it is the union over the sink's memberships.
func (a *Analysis) PointsToVars(p ir.VarID) []ir.VarID {
	if a.sinkPT != nil {
		if pt, ok := a.sinkPT[p]; ok {
			return pt
		}
	}
	return a.locVars[a.ptClass[p]]
}

// SinkClasses returns the extra content classes a precise-mode sink's
// contents may draw from, sorted ascending — nil for non-sinks and
// outside precise mode. Cache fingerprints must include them: two
// structurally identical slices can differ in global sink status, and
// membership-aware queries answer differently on them.
func (a *Analysis) SinkClasses(v ir.VarID) []int {
	if a.sinkCls == nil {
		return nil
	}
	return a.sinkCls[v]
}

// ContentClass returns an opaque id of v's unified content class. Two
// variables share a Steensgaard partition exactly when their content
// classes are equal, and pts(v) is the location class equal to
// ContentClass(v).
func (a *Analysis) ContentClass(v ir.VarID) int { return int(a.ptClass[v]) }

// LocClass returns an opaque id of v's location class: the unification
// class of v as a memory location. o ∈ pts(q) holds exactly when
// LocClass(o) == ContentClass(q).
func (a *Analysis) LocClass(v ir.VarID) int { return int(a.locClass[v]) }

// Targets resolves the functions a function pointer may call: the function
// values in fptr's points-to partition. It powers devirtualization.
func (a *Analysis) Targets(fptr ir.VarID) []ir.FuncID {
	var out []ir.FuncID
	for _, v := range a.PointsToVars(fptr) {
		if a.prog.Var(v).Kind == ir.KindFunc {
			out = append(out, a.prog.Var(v).Fn)
		}
	}
	return out
}

// Dot renders the Steensgaard points-to hierarchy in GraphViz DOT format:
// one node per partition (labelled with up to maxLabel member names),
// solid edges for the points-to hierarchy, and a dashed self-arc for the
// cyclic (self-loop) partitions.
func (a *Analysis) Dot(maxLabel int) string {
	if maxLabel <= 0 {
		maxLabel = 6
	}
	var b strings.Builder
	b.WriteString("digraph steensgaard {\n")
	b.WriteString("\trankdir=TB;\n\tnode [shape=box, fontname=\"monospace\", fontsize=10];\n")
	for _, c := range a.partOrder {
		members := a.members[c]
		names := make([]string, 0, maxLabel)
		for i, m := range members {
			if i == maxLabel {
				names = append(names, fmt.Sprintf("… +%d", len(members)-maxLabel))
				break
			}
			names = append(names, a.prog.VarName(m))
		}
		fmt.Fprintf(&b, "\tp%d [label=\"{%s}\\ndepth %d\"];\n", c, strings.Join(names, ", "), a.depth[c])
		if t := a.succ[c]; t >= 0 {
			fmt.Fprintf(&b, "\tp%d -> p%d;\n", c, t)
		}
		if a.selfLoop[c] {
			fmt.Fprintf(&b, "\tp%d -> p%d [style=dashed];\n", c, c)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// MaxPartitionSize returns the cardinality of the largest partition —
// the paper's "Max" column for Steensgaard clustering.
func (a *Analysis) MaxPartitionSize() int {
	max := 0
	for _, m := range a.members {
		if len(m) > max {
			max = len(m)
		}
	}
	return max
}

// NumPartitions returns the number of partitions.
func (a *Analysis) NumPartitions() int { return len(a.partOrder) }

// Stats reports the unification work done and the shape of the result.
type Stats struct {
	Unions       int // ECR unifications performed
	Partitions   int
	MaxPartition int
	Deferred     int // copies deferred by precise mode (0 otherwise)
}

// Stats returns the analysis' work and shape counters.
func (a *Analysis) Stats() Stats {
	return Stats{
		Unions:       a.unions,
		Partitions:   a.NumPartitions(),
		MaxPartition: a.MaxPartitionSize(),
		Deferred:     a.deferred,
	}
}

// Record publishes the stats to a metrics registry (nil-safe no-op
// without one): unions as a counter, the cover shape as gauges.
func (a *Analysis) Record(m *obs.Metrics) {
	s := a.Stats()
	m.Counter("bootstrap_steens_unions_total",
		"ECR unifications performed by the Steensgaard stage").Add(int64(s.Unions))
	m.Gauge("bootstrap_steens_partitions",
		"Steensgaard partitions in the latest analyzed program").Set(float64(s.Partitions))
	m.Gauge("bootstrap_steens_max_partition",
		"largest Steensgaard partition in the latest analyzed program").Set(float64(s.MaxPartition))
	m.Counter("bootstrap_steens_deferred_copies_total",
		"copies deferred into sink overlays by the precise Steensgaard mode").Add(int64(s.Deferred))
}
