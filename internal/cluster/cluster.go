// Package cluster implements the divide-and-conquer layer of the paper's
// bootstrapping framework: partitioning the program's pointers into small
// clusters that form an alias cover, and slicing the program down to the
// statements relevant to each cluster.
//
// Three cover constructions are provided:
//
//   - Steensgaard clusters — one per Steensgaard partition; a *disjoint*
//     alias cover (a pointer aliases only within its partition).
//   - Andersen clusters — for partitions larger than a threshold, the
//     inverse Andersen points-to sets restricted to the partition; a
//     *disjunctive* alias cover (Theorem 7): a pointer may appear in
//     several clusters and its aliases are the union over them.
//   - Syntactic clusters — the Zhang/Ryder/Landi (FSE 1996) baseline the
//     paper compares against: connected components of the "appears in the
//     same assignment" relation, ignoring points-to structure.
//
// For every cluster, RelevantStatements implements the paper's
// Algorithm 1: the fixpoint computing the pointers V_P and statements St_P
// that can affect aliases of the cluster's members (Theorem 6 justifies
// restricting the precise analysis to St_P).
package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"bootstrap/internal/andersen"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
	"bootstrap/internal/steens"
)

// Kind identifies how a cluster was constructed.
type Kind uint8

// Cluster kinds.
const (
	KindWhole Kind = iota // the entire program as one cluster (baseline)
	KindSteensgaard
	KindAndersen
	KindSyntactic
)

var kindNames = [...]string{"whole", "steensgaard", "andersen", "syntactic"}

func (k Kind) String() string { return kindNames[k] }

// Cluster is one independent unit of precise analysis: a pointer set P,
// the relevant pointers V_P, and the relevant statement slice St_P.
// Membership tests binary-search the sorted lists, with no set beside
// them: most clusters' St_P and V_P hold under 16 entries (on
// autofs@1.0), where a search costs no more than a map probe.
type Cluster struct {
	ID       int
	Kind     Kind
	Pointers []ir.VarID  // P, sorted
	Vars     []ir.VarID  // V_P from Algorithm 1, sorted
	Stmts    []ir.Loc    // St_P, sorted
	Funcs    []ir.FuncID // functions containing St_P statements, sorted
}

// Size returns |P|, the paper's cluster-size metric.
func (c *Cluster) Size() int { return len(c.Pointers) }

// HasVar reports whether v ∈ V_P.
func (c *Cluster) HasVar(v ir.VarID) bool {
	_, ok := slices.BinarySearch(c.Vars, v)
	return ok
}

// HasStmt reports whether loc ∈ St_P.
func (c *Cluster) HasStmt(loc ir.Loc) bool {
	_, ok := slices.BinarySearch(c.Stmts, loc)
	return ok
}

// HasPointer reports whether v ∈ P.
func (c *Cluster) HasPointer(v ir.VarID) bool {
	_, ok := slices.BinarySearch(c.Pointers, v)
	return ok
}

func (c *Cluster) String() string {
	return fmt.Sprintf("cluster#%d(%s, |P|=%d, |V|=%d, |St|=%d, funcs=%d)",
		c.ID, c.Kind, len(c.Pointers), len(c.Vars), len(c.Stmts), len(c.Funcs))
}

// Index holds the per-program statement indexes Algorithm 1 consults:
// direct-destination statements by destination, stores by the content
// class of the pointer stored through (so store activation is O(1) when a
// location class joins V_P), and assumes by function. Each is a
// compressed array over a dense id — VarID, class id, FuncID — filled in
// node order, so every list is in node order. Build it once and share it
// across every cluster of a program.
type Index struct {
	prog    *ir.Program
	sa      *steens.Analysis
	byDst   rows[ir.Loc]
	stores  rows[storeStmt]
	assumes rows[ir.Loc]
}

type storeStmt struct {
	loc  ir.Loc
	q, r ir.VarID
}

// rows is a compressed array: row k is items[start[k]:start[k+1]].
type rows[T any] struct {
	start []int32
	items []T
}

// row returns row k, empty for a k outside the array.
func (t *rows[T]) row(k int) []T {
	if k < 0 || k+1 >= len(t.start) {
		return nil
	}
	return t.items[t.start[k]:t.start[k+1]]
}

// size allocates items for the row counts accumulated in start[k+1],
// and leaves start[k+1] at the first slot of row k for fill to advance.
func (t *rows[T]) size() {
	for k := 1; k < len(t.start); k++ {
		t.start[k] += t.start[k-1]
	}
	t.items = make([]T, t.start[len(t.start)-1])
	copy(t.start[1:], t.start[:len(t.start)-1])
}

// fill appends x to row k. Once every row is filled, start[k] is the
// first slot of row k again.
func (t *rows[T]) fill(k int, x T) {
	t.items[t.start[k+1]] = x
	t.start[k+1]++
}

// NewIndex builds the Algorithm 1 statement indexes for a program.
func NewIndex(p *ir.Program, sa *steens.Analysis) *Index {
	classes := 0
	for _, n := range p.Nodes {
		if n.Stmt.Op == ir.OpStore {
			classes = max(classes, sa.ContentClass(n.Stmt.Dst)+1)
		}
	}
	ix := &Index{prog: p, sa: sa}
	ix.byDst.start = make([]int32, p.NumVars()+1)
	ix.stores.start = make([]int32, classes+1)
	ix.assumes.start = make([]int32, len(p.Funcs)+1)
	// Two passes: count each row (into start[k+1]), then fill in node
	// order.
	for _, n := range p.Nodes {
		switch n.Stmt.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpNullify:
			ix.byDst.start[n.Stmt.Dst+1]++
		case ir.OpStore:
			ix.stores.start[sa.ContentClass(n.Stmt.Dst)+1]++
		case ir.OpAssumeEq, ir.OpAssumeNeq:
			ix.assumes.start[n.Fn+1]++
		}
	}
	ix.byDst.size()
	ix.stores.size()
	ix.assumes.size()
	for _, n := range p.Nodes {
		switch n.Stmt.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpNullify:
			ix.byDst.fill(int(n.Stmt.Dst), n.Loc)
		case ir.OpStore:
			ix.stores.fill(sa.ContentClass(n.Stmt.Dst), storeStmt{loc: n.Loc, q: n.Stmt.Dst, r: n.Stmt.Src})
		case ir.OpAssumeEq, ir.OpAssumeNeq:
			ix.assumes.fill(int(n.Fn), n.Loc)
		}
	}
	return ix
}

// RelevantStatements implements the paper's Algorithm 1. Given a pointer
// set P it computes V_P — every variable whose value may flow into the
// aliases of a member of P — and St_P, the statements that may modify a
// member of V_P.
//
// The fixpoint rules, per canonical statement form:
//
//   - d = s, d = *s with d ∈ V_P pull in s (and, for loads, the objects s
//     may reference, whose stored values are being read);
//   - a store *q = r is relevant as soon as q may point at a V_P member;
//     then q and r join V_P. This activation condition is the read-driven
//     equivalent of the paper's "q > p or the cyclic case": multi-level
//     stores are reached transitively as intermediate objects join V_P.
//
// St_P contains every Copy/Addr/Load/Nullify whose destination is in V_P
// and every activated store.
func RelevantStatements(p *ir.Program, sa *steens.Analysis, P []ir.VarID) ([]ir.VarID, []ir.Loc) {
	return NewIndex(p, sa).RelevantStatements(P)
}

// RelevantStatements is Algorithm 1 over a prebuilt index.
func (ix *Index) RelevantStatements(P []ir.VarID) ([]ir.VarID, []ir.Loc) {
	p, sa := ix.prog, ix.sa
	inV := make(map[ir.VarID]bool, len(P)*2)
	var work, added []ir.VarID

	add := func(v ir.VarID) {
		if v != ir.NoVar && !inV[v] {
			inV[v] = true
			work = append(work, v)
			added = append(added, v)
		}
	}
	for _, v := range P {
		add(v)
	}

	activatedClasses := map[int]bool{}
	stmtSet := map[ir.Loc]bool{}

	fixpoint := func() {
		for len(work) > 0 {
			v := work[len(work)-1]
			work = work[:len(work)-1]

			for _, loc := range ix.byDst.row(int(v)) {
				stmtSet[loc] = true
				st := p.Node(loc).Stmt
				switch st.Op {
				case ir.OpCopy:
					add(st.Src)
				case ir.OpLoad:
					add(st.Src)
					for _, o := range sa.PointsToVars(st.Src) {
						add(o)
					}
				case ir.OpAddr, ir.OpNullify:
					// No value sources to chase.
				}
			}
			// Stores through pointers whose content class is v's location
			// class may overwrite v.
			lc := sa.LocClass(v)
			if !activatedClasses[lc] {
				activatedClasses[lc] = true
				for _, s := range ix.stores.row(lc) {
					stmtSet[s.loc] = true
					add(s.q)
					add(s.r)
				}
			}
		}
	}
	fixpoint()
	// Path sensitivity (Section 3): an assume node in a function the
	// slice touches contributes points-to constraints whose guard
	// pointers the per-cluster engine must be able to resolve — pull them
	// (and, transitively, their value sources) into V_P.
	if len(ix.assumes.items) > 0 {
		doneFn := map[ir.FuncID]bool{}
		for changed := true; changed; {
			changed = false
			fns := map[ir.FuncID]bool{}
			for loc := range stmtSet {
				fns[p.Node(loc).Fn] = true
			}
			for fn := range fns {
				if doneFn[fn] {
					continue
				}
				doneFn[fn] = true
				for _, loc := range ix.assumes.row(int(fn)) {
					st := p.Node(loc).Stmt
					stmtSet[loc] = true
					add(st.Dst)
					add(st.Src)
					changed = true
				}
			}
			fixpoint()
		}
	}

	vars := added
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	stmts := make([]ir.Loc, 0, len(stmtSet))
	for loc := range stmtSet {
		stmts = append(stmts, loc)
	}
	sort.Slice(stmts, func(i, j int) bool { return stmts[i] < stmts[j] })
	return vars, stmts
}

// newCluster assembles a Cluster, running Algorithm 1 for its slice.
func newCluster(ix *Index, id int, kind Kind, pointers []ir.VarID) *Cluster {
	p := ix.prog
	sorted := append([]ir.VarID(nil), pointers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	vars, stmts := ix.RelevantStatements(sorted)
	c := &Cluster{
		ID:       id,
		Kind:     kind,
		Pointers: sorted,
		Vars:     vars,
		Stmts:    stmts,
	}
	fnSet := map[ir.FuncID]bool{}
	for _, loc := range stmts {
		fnSet[p.Node(loc).Fn] = true
	}
	for f := range fnSet {
		c.Funcs = append(c.Funcs, f)
	}
	sort.Slice(c.Funcs, func(i, j int) bool { return c.Funcs[i] < c.Funcs[j] })
	return c
}

// BuildWhole returns the no-clustering baseline: all pointers in one
// cluster covering every statement.
func BuildWhole(p *ir.Program, sa *steens.Analysis) *Cluster {
	all := make([]ir.VarID, p.NumVars())
	for i := range all {
		all[i] = ir.VarID(i)
	}
	return newCluster(NewIndex(p, sa), 0, KindWhole, all)
}

// BuildSteensgaard returns one cluster per Steensgaard partition that has
// any analysis work to do (at least two members or at least one relevant
// statement). Together they are a disjoint alias cover of the program.
func BuildSteensgaard(p *ir.Program, sa *steens.Analysis) []*Cluster {
	ix := NewIndex(p, sa)
	var out []*Cluster
	for _, part := range sa.Partitions() {
		c := newCluster(ix, len(out), KindSteensgaard, part)
		if len(c.Stmts) == 0 {
			// No statement can ever give these members a value: they
			// cannot alias anything, so no analysis work exists. This
			// also covers the pure-object partitions (data everything
			// points at but nothing assigns through).
			continue
		}
		out = append(out, c)
	}
	return out
}

// DefaultAndersenThreshold is the partition size above which Andersen
// clustering pays off; the paper determined 60 empirically for its
// benchmark suite.
const DefaultAndersenThreshold = 60

// NewWithIndex assembles one cluster over a prebuilt shared Index — the
// bulk-construction seam New wraps for single callers. Incremental
// reanalysis uses it to recompute a partition's Algorithm-1 base slice
// without paying a fresh whole-program index per partition.
func NewWithIndex(ix *Index, id int, kind Kind, pointers []ir.VarID) *Cluster {
	return newCluster(ix, id, kind, pointers)
}

// BuildPartitionWithBase computes one Steensgaard partition's
// contribution to the Andersen-refined cover — the partition kept whole
// when small or structure-free, its Andersen refinement otherwise — along
// with the partition's base Steensgaard cluster: the Algorithm-1 slice
// over the whole partition that the refinement was restricted to. A nil
// base means the partition is alias-free and contributes nothing.
// Cluster IDs are left at 0 for the caller to assign; the per-partition
// output order is deterministic (sorted member keys). Safe for concurrent
// calls over a shared Index: it is read-only after construction and each
// call runs its own Andersen solve, with aopts (see BuildAndersen).
func BuildPartitionWithBase(ix *Index, part []ir.VarID, threshold int, aopts ...andersen.Option) (*Cluster, []*Cluster) {
	base := newCluster(ix, 0, KindSteensgaard, part)
	if len(base.Stmts) == 0 {
		return nil, nil // alias-free (see BuildSteensgaard)
	}
	if len(part) <= threshold {
		return base, []*Cluster{base}
	}
	// Oversized: Andersen restricted to the partition's slice. Copy the
	// caller's options before appending — concurrent calls share the
	// aopts backing array.
	opts := make([]andersen.Option, 0, len(aopts)+1)
	opts = append(opts, aopts...)
	opts = append(opts, andersen.WithStmtFilter(base.HasStmt))
	aa := andersen.Analyze(ix.prog, opts...)
	inPart := map[ir.VarID]bool{}
	for _, v := range part {
		inPart[v] = true
	}
	sets := map[string][]ir.VarID{}
	for _, oc := range aa.Clusters() {
		// The pointed-to object itself belongs to its own partition's
		// clusters, not to this pointer-level one.
		var members []ir.VarID
		for _, q := range oc.Ptrs {
			if inPart[q] {
				members = append(members, q)
			}
		}
		if len(members) == 0 {
			continue
		}
		key := clusterKey(members)
		sets[key] = members
	}
	if len(sets) == 0 {
		// Andersen found no aliasing structure; keep the partition.
		return base, []*Cluster{base}
	}
	keys := make([]string, 0, len(sets))
	for k := range sets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Cluster, 0, len(keys))
	for _, k := range keys {
		out = append(out, newCluster(ix, 0, KindAndersen, sets[k]))
	}
	return base, out
}

// BuildAndersen refines a Steensgaard cover with Andersen clustering:
// partitions no larger than threshold are kept as-is, while each oversized
// partition is re-analyzed with Andersen's analysis restricted to its
// relevant statements; the resulting clusters are the inverse points-to
// sets intersected with the partition (deduplicated, subset-absorbed).
// Pointers of an oversized partition that Andersen finds alias-free are
// dropped — they need no precise analysis, and Theorem 7 keeps the union
// of per-cluster aliases complete.
//
// aopts are passed to every per-partition Andersen solve (e.g.
// andersen.WithDeltaPropagation); they never change the computed cover.
// Package core passes none.
func BuildAndersen(p *ir.Program, sa *steens.Analysis, threshold int, aopts ...andersen.Option) []*Cluster {
	if threshold <= 0 {
		threshold = DefaultAndersenThreshold
	}
	ix := NewIndex(p, sa)
	var out []*Cluster
	for _, part := range sa.Partitions() {
		_, cs := BuildPartitionWithBase(ix, part, threshold, aopts...)
		for _, c := range cs {
			c.ID = len(out)
			out = append(out, c)
		}
	}
	return out
}

// StreamAndersen computes exactly the BuildAndersen cover — same clusters,
// same IDs, same order — but runs the per-partition work (Algorithm 1
// slicing plus the per-oversized-partition Andersen solve) on `workers`
// goroutines and delivers each cluster over the returned channel as soon
// as it and every earlier partition's clusters are done. An in-order
// sequencer assigns the global IDs, so consumers can start flow-sensitive
// analysis on early clusters while later partitions are still being
// refined. The channel is closed when the cover is complete or ctx is
// cancelled (possibly mid-cover).
func StreamAndersen(ctx context.Context, p *ir.Program, sa *steens.Analysis, threshold, workers int) <-chan *Cluster {
	if threshold <= 0 {
		threshold = DefaultAndersenThreshold
	}
	if workers < 1 {
		workers = 1
	}
	ix := NewIndex(p, sa)
	parts := sa.Partitions()
	results := make([]chan []*Cluster, len(parts))
	for i := range results {
		results[i] = make(chan []*Cluster, 1)
	}
	jobs := make(chan int)
	go func() {
		defer close(jobs)
		for i := range parts {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	// A tracer threaded through ctx (obs.ContextWithTracer) records one
	// "refine" span per oversized partition — the Andersen solves that
	// overlap the FSCS stage under pipelining — on per-worker tracks.
	tr := obs.TracerFrom(ctx)
	for w := 0; w < workers; w++ {
		tid := obs.ClustererTID(w)
		tr.NameThread(tid, fmt.Sprintf("clusterer-%d", w))
		go func() {
			for i := range jobs {
				part := parts[i]
				var sp *obs.Span
				if len(part) > threshold {
					sp = tr.Start("cluster", "refine", tid).
						Arg("partition", i).Arg("size", len(part))
				}
				_, cs := BuildPartitionWithBase(ix, part, threshold)
				sp.Arg("clusters", len(cs)).End()
				results[i] <- cs
			}
		}()
	}
	out := make(chan *Cluster)
	go func() {
		defer close(out)
		id := 0
		for i := range parts {
			var cs []*Cluster
			select {
			case cs = <-results[i]:
			case <-ctx.Done():
				return
			}
			for _, c := range cs {
				c.ID = id
				id++
				select {
				case out <- c:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out
}

func clusterKey(members []ir.VarID) string {
	b := make([]byte, 0, len(members)*4)
	for _, m := range members {
		b = append(b, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
	}
	return string(b)
}

// BuildSyntactic is the related-work baseline (Zhang et al., FSE 1996):
// clusters are connected components of the relation "appears in the same
// pointer assignment", a purely syntactic transitive closure that ignores
// the points-to hierarchy. The paper argues Steensgaard partitions are
// strictly finer; tests and benches verify that.
func BuildSyntactic(p *ir.Program, sa *steens.Analysis) []*Cluster {
	parent := make([]int, p.NumVars())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, n := range p.Nodes {
		switch n.Stmt.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpStore:
			union(int(n.Stmt.Dst), int(n.Stmt.Src))
		}
	}
	groups := map[int][]ir.VarID{}
	for v := 0; v < p.NumVars(); v++ {
		groups[find(v)] = append(groups[find(v)], ir.VarID(v))
	}
	reps := make([]int, 0, len(groups))
	for r := range groups {
		reps = append(reps, r)
	}
	sort.Ints(reps)
	ix := NewIndex(p, sa)
	var out []*Cluster
	for _, r := range reps {
		c := newCluster(ix, len(out), KindSyntactic, groups[r])
		if len(c.Stmts) == 0 {
			continue // alias-free (see BuildSteensgaard)
		}
		out = append(out, c)
	}
	return out
}

// Stats summarizes a cover for the paper's Table 1 columns.
type Stats struct {
	NumClusters int
	MaxSize     int
	TotalSize   int // sum of cluster sizes (> Covered under overlap)
	Covered     int // distinct pointers covered
}

// Overlap is the mean number of clusters containing each covered pointer
// (1.0 for a disjoint cover). The paper flags high overlap as the signal
// that Andersen clustering will not pay off: "the total time taken to
// process all clusters may actually increase".
func (s Stats) Overlap() float64 {
	if s.Covered == 0 {
		return 0
	}
	return float64(s.TotalSize) / float64(s.Covered)
}

// CoverStats computes #clusters / max cluster size / overlap over a cover.
func CoverStats(cs []*Cluster) Stats {
	var s Stats
	s.NumClusters = len(cs)
	covered := map[ir.VarID]bool{}
	for _, c := range cs {
		if c.Size() > s.MaxSize {
			s.MaxSize = c.Size()
		}
		s.TotalSize += c.Size()
		for _, p := range c.Pointers {
			covered[p] = true
		}
	}
	s.Covered = len(covered)
	return s
}

// SizeHistogram returns cluster-size frequencies (size -> count), the data
// behind the paper's Figure 1.
func SizeHistogram(cs []*Cluster) map[int]int {
	h := map[int]int{}
	for _, c := range cs {
		h[c.Size()]++
	}
	return h
}

// SelectClusters returns the clusters containing at least one pointer
// satisfying pred — the paper's demand-driven mode (e.g. lock pointers
// only for lockset computation).
func SelectClusters(cs []*Cluster, p *ir.Program, pred func(*ir.Var) bool) []*Cluster {
	var out []*Cluster
	for _, c := range cs {
		for _, v := range c.Pointers {
			if pred(p.Var(v)) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}
