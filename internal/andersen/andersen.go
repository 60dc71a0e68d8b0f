// Package andersen implements Andersen's inclusion-based, flow- and
// context-insensitive points-to analysis (Andersen 1994) — the second stage
// of the paper's bootstrapping cascade. Unlike Steensgaard's bidirectional
// unification, Andersen's analysis respects assignment direction, so its
// points-to sets are subsets of the Steensgaard ones; the inverse points-to
// sets are the paper's Andersen clusters.
//
// The solver is a standard difference-propagation worklist over a copy-edge
// graph with load/store complex constraints, using sparse bit sets. An
// optional statement filter restricts constraint generation to a slice of
// the program — this is how the bootstrapping framework runs Andersen's
// analysis on one Steensgaard partition's relevant statements only.
// Indirect-call placeholders are resolved on the fly: when a function value
// flows into a call's function pointer, the matching parameter and return
// bindings are added as copy edges. Patch runs the same solver over an
// edited program's cone only, sharing every other set with the previous
// generation's analysis. Deferred defers a whole-program solve to its
// first read.
package andersen

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bootstrap/internal/bitset"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
)

// Option configures Analyze.
type Option func(*config)

type config struct {
	keep         func(ir.Loc) bool
	cycleEli     bool
	interval     int
	delta        bool
	parWorkers   int
	parThreshold int
}

// WithStmtFilter restricts the analysis to statements for which keep
// returns true. Statements outside the filter are treated as skips, exactly
// as the paper's Prog_Q replaces irrelevant assignments with skip.
func WithStmtFilter(keep func(ir.Loc) bool) Option {
	return func(c *config) { c.keep = keep }
}

// WithCycleElimination turns on periodic collapsing of strongly connected
// components in the copy-edge graph (in the spirit of Hardekopf & Lin,
// PLDI 2007, which the paper cites as a drop-in replacement for its
// Andersen stage). Nodes in a copy cycle provably share their final
// points-to set, so collapsing them removes redundant propagation. The
// result is identical to the baseline solver; only the work changes.
func WithCycleElimination() Option {
	return func(c *config) { c.cycleEli = true }
}

// withCycleInterval lowers the collapse trigger for tests.
func withCycleInterval(n int) Option {
	return func(c *config) { c.cycleEli = true; c.interval = n }
}

// WithDeltaPropagation switches the solver to difference propagation in
// wave order: each node carries its full points-to set plus the bits not
// yet seen by its consumers, every round condenses the copy graph's
// strongly connected components (so the remainder is a DAG), and one
// wave pushes all pending bits through the DAG in topological order.
// Each copy edge therefore fires O(changes) times instead of once per
// worklist pop of its source. The result is bit-identical to the
// default solver; only the work changes. Delta mode subsumes
// WithCycleElimination — condensation is structural, not periodic.
func WithDeltaPropagation() Option {
	return func(c *config) { c.delta = true }
}

// WithParallelSolve fans each wave front across a bounded worker pool.
// A front is one topological level of the condensed copy DAG, so no
// edge connects two nodes of the same front; each worker owns the nodes
// it processes (it writes only their sets and reads only earlier
// fronts' frozen deltas), making the hot path lock-free. Parallelism
// activates only when at least threshold nodes carry constraints —
// below that the fan-out costs more than the propagation. Implies
// WithDeltaPropagation.
func WithParallelSolve(workers, threshold int) Option {
	// Normalize before capturing: one Option value is applied by every
	// concurrent clusterer solve, so the closure must not write its
	// captured variables.
	if threshold <= 0 {
		threshold = DefaultParSolveThreshold
	}
	return func(c *config) {
		c.delta = true
		c.parWorkers = workers
		c.parThreshold = threshold
	}
}

// DefaultParSolveThreshold is the constrained-node count above which
// WithParallelSolve actually fans out, when no explicit threshold is
// given (tuned on the bench workloads: below a few hundred nodes the
// barrier per front dominates).
const DefaultParSolveThreshold = 512

// SolverStats reports how much work the constraint solver did — the
// instrumentation window behind the `-stats` flag and the bench cache
// columns. Passes counts worklist nodes processed; Collapses counts
// cycle-elimination sweeps; Merged counts the variables folded into a
// cycle representative (0 without WithCycleElimination).
type SolverStats struct {
	Passes    int64
	Collapses int
	Merged    int

	// Delta-propagation counters (zero for the legacy solver).
	Waves           int64 // condense+propagate+complex rounds run
	DeltaEdgesFired int64 // copy edges that carried a non-empty delta
	DeltaMerges     int64 // edge firings that actually grew the target
	ParFronts       int64 // wave fronts fanned across the worker pool
	ParNodes        int64 // nodes processed inside parallel fronts
}

// Analysis is the result of Andersen's analysis. Analyze and Patch
// return it solved; Deferred returns it unsolved, and every accessor
// solves it first.
type Analysis struct {
	prog  *ir.Program
	pts   []*bitset.Set // var -> points-to set over VarIDs
	rep   []int32       // cycle-elimination representative (identity without it)
	stats SolverStats

	// solve is Deferred's whole-program solve (nil once constructed
	// solved), run once by the first read; started is set as it begins.
	solve     func()
	solveOnce sync.Once
	started   atomic.Bool

	clustersOnce sync.Once
	clusters     []ObjCluster
}

// Deferred returns Andersen's analysis of p, not yet solved: the first
// read — any accessor, or a Patch from it — runs Analyze(p), once, and
// concurrent readers wait for that one solve. p must not change before
// then. observe runs the solve: it must call solve exactly once, and
// may time or trace around it.
func Deferred(p *ir.Program, observe func(solve func() SolverStats)) *Analysis {
	a := &Analysis{prog: p}
	a.solve = func() {
		a.started.Store(true)
		observe(func() SolverStats {
			s := Analyze(p)
			a.pts, a.rep, a.stats = s.pts, s.rep, s.stats
			return a.stats
		})
	}
	return a
}

// ensure solves a deferred analysis on first use.
func (a *Analysis) ensure() {
	if a.solve != nil {
		a.solveOnce.Do(a.solve)
	}
}

// Solved reports whether a is solved or its solve is under way, so a
// read would not start one. It never solves.
func (a *Analysis) Solved() bool { return a.solve == nil || a.started.Load() }

// SolverStats returns the solver's work counters.
func (a *Analysis) SolverStats() SolverStats {
	a.ensure()
	return a.stats
}

// Record adds the solver's work counters to a metrics registry (nil-safe
// no-op without one). Call it once per solve; the registry accumulates
// across solves.
func (s SolverStats) Record(m *obs.Metrics) {
	m.Counter("bootstrap_andersen_passes_total",
		"constraint worklist nodes processed by the Andersen solver").Add(s.Passes)
	m.Counter("bootstrap_andersen_collapses_total",
		"online cycle-elimination sweeps run by the Andersen solver").Add(int64(s.Collapses))
	m.Counter("bootstrap_andersen_merged_total",
		"variables folded into a cycle representative by the Andersen solver").Add(int64(s.Merged))
	m.Counter("bootstrap_andersen_delta_waves_total",
		"propagation waves run by the delta Andersen solver").Add(s.Waves)
	m.Counter("bootstrap_andersen_delta_edges_fired_total",
		"copy edges that carried a non-empty delta in the delta Andersen solver").Add(s.DeltaEdgesFired)
	m.Counter("bootstrap_andersen_delta_merges_total",
		"delta edge firings that grew the target points-to set").Add(s.DeltaMerges)
	m.Counter("bootstrap_andersen_par_fronts_total",
		"wave fronts fanned across the parallel solve worker pool").Add(s.ParFronts)
	m.Counter("bootstrap_andersen_par_nodes_total",
		"nodes processed inside parallel wave fronts").Add(s.ParNodes)
	if s.ParFronts > 0 {
		m.Gauge("bootstrap_andersen_par_front_occupancy",
			"mean nodes per parallel wave front in the latest solve").
			Set(float64(s.ParNodes) / float64(s.ParFronts))
	}
}

type indirectCall struct {
	fptr ir.VarID
	args []ir.VarID
	dst  ir.VarID
}

type solver struct {
	prog *ir.Program
	pts  []*bitset.Set
	prev []*bitset.Set // processed snapshot for difference propagation

	copyTo  [][]int32     // v -> successors along copy edges (pts(succ) ⊇ pts(v))
	edgeSet []*bitset.Set // dedupe copy edges
	loads   [][]int32     // y -> xs with x = *y
	stores  [][]int32     // x -> ys with *x = y
	calls   map[int][]indirectCall

	work   []int32
	inWork []bool
	stats  SolverStats

	// Cycle elimination state.
	cycleEli      bool
	interval      int
	rep           []int32
	sinceCollapse int

	// Delta-propagation state (nil for the legacy solver). pending[v]
	// holds bits already in pts[v] that v's consumers have not seen;
	// out[v] is the delta v exposed during the current wave.
	pending []*bitset.Set
	out     []*bitset.Set
	copyIn  [][]int32 // canonical predecessor lists, rebuilt per round
	active  []int32   // canonical nodes carrying any constraint
	dirty   bool      // pending bits were added since the last wave

	parWorkers   int
	parThreshold int

	// Patch state (nil for Analyze): shared[v] marks a variable outside
	// the cone, whose set belongs to the previous analysis and is never
	// written; checks are the inclusions into shared sets the constraints
	// demanded, verified once the cone is solved.
	shared []bool
	checks [][2]int32
}

// Analyze runs Andersen's analysis over p (optionally restricted).
func Analyze(p *ir.Program, opts ...Option) *Analysis {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	nv := p.NumVars()
	s := &solver{
		prog:    p,
		pts:     make([]*bitset.Set, nv),
		copyTo:  make([][]int32, nv),
		edgeSet: make([]*bitset.Set, nv),
		loads:   make([][]int32, nv),
		stores:  make([][]int32, nv),
		calls:   map[int][]indirectCall{},
		inWork:  make([]bool, nv),
	}
	s.cycleEli = cfg.cycleEli
	s.interval = cfg.interval
	if s.interval <= 0 {
		s.interval = 1000
	}
	s.rep = make([]int32, nv)
	for i := 0; i < nv; i++ {
		s.pts[i] = &bitset.Set{}
		s.edgeSet[i] = &bitset.Set{}
		s.rep[i] = int32(i)
	}
	if cfg.delta {
		s.pending = make([]*bitset.Set, nv)
		for i := range s.pending {
			s.pending[i] = &bitset.Set{}
		}
		s.parWorkers = cfg.parWorkers
		s.parThreshold = cfg.parThreshold
	} else {
		s.prev = make([]*bitset.Set, nv)
		for i := range s.prev {
			s.prev[i] = &bitset.Set{}
		}
	}
	for _, n := range p.Nodes {
		if cfg.keep != nil && !cfg.keep(n.Loc) {
			continue
		}
		s.constrain(n.Stmt)
	}
	if cfg.delta {
		s.solveDelta()
	} else {
		s.solve()
	}
	return &Analysis{prog: p, pts: s.pts, rep: s.rep, stats: s.stats}
}

// ErrConeLeak reports that a Patch cone was not closed: a constraint
// demanded that a set outside the cone grow, so the patched analysis
// would not equal a fresh Analyze of the program.
var ErrConeLeak = errors.New("andersen: patch would grow a points-to set outside its cone")

// Patch returns Andersen's analysis of p, an edited generation of the
// program prev analyzed: p keeps every VarID of prev's program and may
// add variables. Only the variables in cone, and the added ones, are
// re-solved; every other variable shares prev's set, which Patch never
// writes. A deferred prev is solved first.
//
// The result equals Analyze(p) variable for variable when the cone is
// closed: every statement the edit changed writes only cone variables
// (in the old program and in p), and no constraint of p that reads a
// cone variable writes one outside it. The caller vouches for the
// first half. Patch checks the second: it re-solves every constraint
// that reads or writes a cone variable, and an inclusion into a shared
// set that does not already hold returns an error wrapping ErrConeLeak.
func Patch(prev *Analysis, p *ir.Program, cone []ir.VarID) (*Analysis, error) {
	prev.ensure()
	nv, oldN := p.NumVars(), len(prev.pts)
	coneSet := &bitset.Set{}
	for _, v := range cone {
		coneSet.Add(int(v))
	}
	scratch := make([]bitset.Set, 2*nv) // edge dedupe and processed snapshots, dropped after the solve
	s := &solver{
		prog:    p,
		pts:     make([]*bitset.Set, nv),
		prev:    make([]*bitset.Set, nv),
		copyTo:  make([][]int32, nv),
		edgeSet: make([]*bitset.Set, nv),
		loads:   make([][]int32, nv),
		stores:  make([][]int32, nv),
		calls:   map[int][]indirectCall{},
		inWork:  make([]bool, nv),
		rep:     make([]int32, nv),
		shared:  make([]bool, nv),
	}
	for i := 0; i < nv; i++ {
		s.edgeSet[i], s.prev[i] = &scratch[i], &scratch[nv+i]
		s.rep[i] = int32(i)
		if i < oldN && !coneSet.Has(i) {
			s.shared[i] = true
			s.pts[i] = prev.PointsToSet(ir.VarID(i))
		} else {
			s.pts[i] = &bitset.Set{}
		}
	}
	for _, n := range p.Nodes {
		if s.touchesCone(n.Stmt, coneSet) {
			s.constrain(n.Stmt)
		}
	}
	s.solve()
	for _, c := range s.checks {
		if from, to := s.pts[c[0]], s.pts[c[1]]; !to.DiffFrom(from).Empty() {
			return nil, fmt.Errorf("%w: pts(%s) is not within pts(%s)", ErrConeLeak,
				p.VarName(ir.VarID(c[0])), p.VarName(ir.VarID(c[1])))
		}
	}
	return &Analysis{prog: p, pts: s.pts, rep: s.rep, stats: s.stats}, nil
}

// touchesCone reports whether Patch must re-solve st: it writes or reads
// a cone variable. Every other constraint holds over the shared sets
// already. Indirect calls always re-solve; their bindings into shared
// formals become checks like any other inclusion.
func (s *solver) touchesCone(st ir.Stmt, cone *bitset.Set) bool {
	switch st.Op {
	case ir.OpAddr:
		return !s.shared[st.Dst]
	case ir.OpCopy:
		return !s.shared[st.Dst] || !s.shared[st.Src]
	case ir.OpLoad: // dst = *src also reads src's pointees
		return !s.shared[st.Dst] || !s.shared[st.Src] || s.pts[st.Src].Intersects(cone)
	case ir.OpStore: // *dst = src writes dst's pointees
		return !s.shared[st.Dst] || !s.shared[st.Src] || s.pts[st.Dst].Intersects(cone)
	case ir.OpCall:
		return st.Callee == ir.NoFunc
	}
	return false
}

// find returns v's cycle-elimination representative with path halving.
func (s *solver) find(v int32) int32 {
	for s.rep[v] != v {
		s.rep[v] = s.rep[s.rep[v]]
		v = s.rep[v]
	}
	return v
}

func (s *solver) push(v int32) {
	v = s.find(v)
	if !s.inWork[v] {
		s.inWork[v] = true
		s.work = append(s.work, v)
	}
}

// addCopy adds the inclusion pts(to) ⊇ pts(from). A new edge transfers
// the source's current set once in full; in delta mode the actually
// added bits seed the target's pending delta for the next wave.
func (s *solver) addCopy(from, to int32) {
	from, to = s.find(from), s.find(to)
	if from == to {
		return
	}
	if s.shared != nil && s.shared[to] {
		s.checks = append(s.checks, [2]int32{from, to})
		return
	}
	if !s.edgeSet[from].Add(int(to)) {
		return
	}
	s.copyTo[from] = append(s.copyTo[from], to)
	if s.pending != nil {
		if s.out != nil { // nil until solveDelta; constrain-time nodes are scanned there
			s.activateDelta(from)
			s.activateDelta(to)
		}
		if s.pts[to].UnionInto(s.pts[from], s.pending[to]) {
			s.dirty = true
		}
		return
	}
	if s.pts[to].UnionWith(s.pts[from]) {
		s.push(to)
	}
}

func (s *solver) constrain(st ir.Stmt) {
	switch st.Op {
	case ir.OpAddr:
		if s.pts[st.Dst].Add(int(st.Src)) {
			if s.pending != nil {
				s.pending[st.Dst].Add(int(st.Src))
				s.dirty = true
			}
			s.push(int32(st.Dst))
		}
	case ir.OpCopy:
		s.addCopy(int32(st.Src), int32(st.Dst))
	case ir.OpLoad: // dst = *src
		s.loads[st.Src] = append(s.loads[st.Src], int32(st.Dst))
		s.push(int32(st.Src))
	case ir.OpStore: // *dst = src
		s.stores[st.Dst] = append(s.stores[st.Dst], int32(st.Src))
		s.push(int32(st.Dst))
	case ir.OpCall:
		if st.Callee != ir.NoFunc {
			return // direct calls are bound by explicit copy nodes
		}
		s.calls[int(st.FPtr)] = append(s.calls[int(st.FPtr)], indirectCall{
			fptr: st.FPtr, args: st.Args, dst: st.Dst,
		})
		s.push(int32(st.FPtr))
	}
}

func (s *solver) solve() {
	for len(s.work) > 0 {
		s.stats.Passes++
		if s.cycleEli {
			s.sinceCollapse++
			if s.sinceCollapse > s.interval {
				s.sinceCollapse = 0
				s.stats.Collapses++
				s.collapseCycles()
			}
		}
		v := s.find(s.work[len(s.work)-1])
		s.work = s.work[:len(s.work)-1]
		s.inWork[v] = false

		delta := s.prev[v].DiffFrom(s.pts[v])
		if !delta.Empty() {
			s.prev[v].UnionWith(delta)
			// Complex constraints consume the delta.
			delta.ForEach(func(o int) bool {
				for _, x := range s.loads[v] {
					s.addCopy(int32(o), x) // x = *v, v -> o: x ⊇ pts(o)
				}
				for _, y := range s.stores[v] {
					s.addCopy(y, int32(o)) // *v = y: o ⊇ pts(y)
				}
				if cs := s.calls[int(v)]; cs != nil {
					if fn := s.prog.Var(ir.VarID(o)); fn.Kind == ir.KindFunc {
						s.bindCalls(cs, fn.Fn)
					}
				}
				return true
			})
		}
		// Propagate along copy edges.
		for _, w := range s.copyTo[v] {
			w = s.find(w)
			if w == v {
				continue
			}
			if s.pts[w].UnionWith(s.pts[v]) {
				s.push(w)
			}
		}
	}
}

// collapseCycles finds strongly connected components of the (canonical)
// copy-edge graph and merges each multi-node component into its
// representative: members of a copy cycle have mutually inclusive, hence
// equal, final points-to sets.
func (s *solver) collapseCycles() {
	n := len(s.pts)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int32
	next := int32(0)
	type frame struct {
		v  int32
		ci int
	}
	for start := 0; start < n; start++ {
		sv := s.find(int32(start))
		if index[sv] != -1 {
			continue
		}
		frames := []frame{{v: sv}}
		index[sv], low[sv] = next, next
		next++
		stack = append(stack, sv)
		onStack[sv] = true
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			edges := s.copyTo[fr.v]
			if fr.ci < len(edges) {
				w := s.find(edges[fr.ci])
				fr.ci++
				if w == fr.v {
					continue
				}
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[fr.v] {
					low[fr.v] = index[w]
				}
				continue
			}
			if low[fr.v] == index[fr.v] {
				var scc []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == fr.v {
						break
					}
				}
				if len(scc) > 1 {
					s.mergeSCC(scc)
				}
			}
			done := *fr
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[done.v] < low[parent.v] {
					low[parent.v] = low[done.v]
				}
			}
		}
	}
}

// mergeSCC folds all members of a copy cycle into the first member.
func (s *solver) mergeSCC(scc []int32) {
	root := scc[0]
	for _, m := range scc[1:] {
		if s.find(m) == s.find(root) {
			continue
		}
		s.stats.Merged++
		s.rep[s.find(m)] = s.find(root)
		s.pts[root].UnionWith(s.pts[m])
		s.edgeSet[root].UnionWith(s.edgeSet[m])
		s.copyTo[root] = append(s.copyTo[root], s.copyTo[m]...)
		s.loads[root] = append(s.loads[root], s.loads[m]...)
		s.stores[root] = append(s.stores[root], s.stores[m]...)
		if cs := s.calls[int(m)]; len(cs) > 0 {
			s.calls[int(root)] = append(s.calls[int(root)], cs...)
			delete(s.calls, int(m))
		}
		if s.pending != nil {
			// Un-propagated bits of every member stay pending on the
			// representative; propagated bits already reached all of the
			// members' successors (new edges transfer in full on add).
			s.pending[root].UnionWith(s.pending[m])
			s.pending[m] = &bitset.Set{}
		}
		s.copyTo[m], s.loads[m], s.stores[m] = nil, nil, nil
	}
	if s.prev != nil {
		// Force full reprocessing of the merged node: the members'
		// processed snapshots may disagree, so start over from empty.
		s.prev[root] = &bitset.Set{}
		s.push(root)
	}
}

func (s *solver) bindCalls(cs []indirectCall, f ir.FuncID) {
	fn := s.prog.Func(f)
	for _, c := range cs {
		if len(c.args) != len(fn.Params) {
			continue
		}
		if c.dst != ir.NoVar && fn.Ret == ir.NoVar {
			continue
		}
		for i, a := range c.args {
			if a != ir.NoVar {
				s.addCopy(int32(a), int32(fn.Params[i]))
			}
		}
		if c.dst != ir.NoVar {
			s.addCopy(int32(fn.Ret), int32(c.dst))
		}
	}
}

// canon resolves v through the (frozen) cycle-elimination mapping.
func (a *Analysis) canon(v ir.VarID) int32 {
	r := int32(v)
	for a.rep[r] != r {
		r = a.rep[r]
	}
	return r
}

// PointsToSet returns v's points-to set. The caller must not modify it.
func (a *Analysis) PointsToSet(v ir.VarID) *bitset.Set {
	a.ensure()
	return a.pts[a.canon(v)]
}

// PointsTo returns the objects v may point to, in increasing VarID order.
func (a *Analysis) PointsTo(v ir.VarID) []ir.VarID {
	set := a.PointsToSet(v)
	out := make([]ir.VarID, 0, set.Len())
	set.ForEach(func(o int) bool { out = append(out, ir.VarID(o)); return true })
	return out
}

// MayAlias reports whether p and q may point to a common object.
func (a *Analysis) MayAlias(p, q ir.VarID) bool {
	return a.PointsToSet(p).Intersects(a.PointsToSet(q))
}

// Targets resolves the functions a function pointer may call.
func (a *Analysis) Targets(fptr ir.VarID) []ir.FuncID {
	var out []ir.FuncID
	a.PointsToSet(fptr).ForEach(func(o int) bool {
		if v := a.prog.Var(ir.VarID(o)); v.Kind == ir.KindFunc {
			out = append(out, v.Fn)
		}
		return true
	})
	return out
}

// ObjCluster is one Andersen cluster: the pointers that may point at Obj.
type ObjCluster struct {
	Obj  ir.VarID
	Ptrs []ir.VarID // ascending; callers must not modify
}

// Clusters returns the paper's Andersen clusters: for every object o
// pointed at by someone, the set of pointers that may point to o. A pointer
// appears in every cluster of every object it may target, so clusters form
// a disjunctive (not disjoint) alias cover (Theorem 7).
//
// The slice is ordered by Obj, computed once and cached — an Analysis is
// immutable once solved, so repeated calls (e.g. per oversized partition
// in the cover builder, or from concurrent FSCS fallbacks) share it.
func (a *Analysis) Clusters() []ObjCluster {
	a.clustersOnce.Do(func() {
		byObj := map[ir.VarID][]ir.VarID{}
		// The outer loop ascends over v, so each Ptrs list is born sorted.
		for v := 0; v < a.prog.NumVars(); v++ {
			a.PointsToSet(ir.VarID(v)).ForEach(func(o int) bool {
				byObj[ir.VarID(o)] = append(byObj[ir.VarID(o)], ir.VarID(v))
				return true
			})
		}
		a.clusters = make([]ObjCluster, 0, len(byObj))
		for o, ptrs := range byObj {
			a.clusters = append(a.clusters, ObjCluster{Obj: o, Ptrs: ptrs})
		}
		sort.Slice(a.clusters, func(i, j int) bool { return a.clusters[i].Obj < a.clusters[j].Obj })
	})
	return a.clusters
}

// MaxClusterSize returns the cardinality of the largest Andersen cluster.
func (a *Analysis) MaxClusterSize() int {
	max := 0
	for _, c := range a.Clusters() {
		if len(c.Ptrs) > max {
			max = len(c.Ptrs)
		}
	}
	return max
}
