package fscs

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"time"

	"bootstrap/internal/andersen"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/intern"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
	"bootstrap/internal/steens"
)

// ErrBudget is reported when the engine exceeds its work budget — the
// analogue of the paper's 15-minute timeout on the unclustered analysis.
var ErrBudget = errors.New("fscs: work budget exhausted")

// ctxCheckInterval is how many worklist tuples may pass between
// cancellation polls. Kept a power of two so the check compiles to a
// mask; small enough that deadlines land within microseconds of real
// workloads, large enough that ctx.Err() stays off the hot path.
const ctxCheckInterval = 32

// Hook observes every charged worklist tuple. It exists for deterministic
// fault injection (package faults) and instrumentation: a hook may sleep
// to simulate a slow cluster, panic to simulate an engine bug, or return
// an error to abort the engine (the error becomes Run's result; wrap
// ErrBudget to force the exhaustion path).
type Hook func(tuples int64) error

// Option configures an Engine.
type Option func(*Engine)

// WithContext attaches a cancellation context: the worklist loops poll it
// at checkpoints and abort (soundly, via the Exhausted/fallback path) once
// it is done. Run then returns the context's error.
func WithContext(ctx context.Context) Option {
	return func(e *Engine) { e.ctx = ctx }
}

// WithHook installs a per-tuple hook (see Hook). A nil hook is ignored.
func WithHook(h Hook) Option {
	return func(e *Engine) {
		if h != nil {
			e.hook = h
		}
	}
}

// Detach removes the attempt-local solve state — the cancellation
// context and the injected-fault hook — from an engine whose Run
// completed. Queries on a solved engine still drive demand computation
// (value sets materialize per location), and that computation must not
// abort because the solve's deadline has since passed, nor suffer faults
// that were injected into the solve attempt.
func (e *Engine) Detach() {
	e.ctx = nil
	e.hook = nil
}

// WithFallback supplies a flow-insensitive analysis used when the
// flow-sensitive walk loses precision (TUnknown); without it the engine
// falls back to the Steensgaard partitioning. Only queries that widen
// read it — Run and ImportEngine never do — so an analysis that solves
// on first read (andersen.Deferred) stays unsolved until one does.
func WithFallback(a *andersen.Analysis) Option {
	return func(e *Engine) { e.fallback = a }
}

// WithMaxCond bounds the number of conjuncts per points-to constraint
// before widening to true (default 8).
func WithMaxCond(n int) Option {
	return func(e *Engine) { e.maxCond = n }
}

// WithBudget bounds the number of worklist tuples the engine may process
// across all queries; once exceeded every walk aborts and Exhausted
// reports true (and Run returns ErrBudget). Zero means unlimited. A tuple
// is one (token, condition) pair transferred at a relevant node of
// Prog_P (see walkBack); pass-through nodes are never charged.
func WithBudget(n int64) Option {
	return func(e *Engine) { e.budget = n }
}

// WithMetrics attaches a metrics registry: when Run finishes (cleanly or
// not) the engine flushes its work counters — tuples charged, summaries
// built, conditions interned, memo hits/misses — into it with one
// counter-add each. Nil disables (the default); per-tuple work never
// touches the registry either way, so the hot path is unaffected.
func WithMetrics(m *obs.Metrics) Option {
	return func(e *Engine) { e.metrics = m }
}

// WithInterning toggles the hash-consed condition fast path (default on):
// the With/And memo tables that make repeated conjunction O(1). Turning it
// off recomputes every conjunction structurally — the representation stays
// interned, so results are bit-for-bit identical; only the work changes.
func WithInterning(on bool) Option {
	return func(e *Engine) { e.internMemo = on }
}

// sumKey names one exit summary: pointer ptr at the exit of function f.
type sumKey struct {
	f   ir.FuncID
	ptr ir.VarID
}

// modSet is one function's mod-set: the V_P variables it may modify,
// directly or through callees, ascending. off is the index of vars[0]
// in the engine's flat array of every mod-set's variables, which also
// numbers the summary keys (see modKey).
type modSet struct {
	f    ir.FuncID
	off  int32
	vars []ir.VarID
}

// summary is one exit summary's memo entry.
type summary struct {
	key  sumKey
	tups []tup // the interned tuple set, without duplicates
	done bool  // tups is final (its fixpoint completed)
}

// Engine runs the FSCS analysis for one cluster. An Engine is not safe for
// concurrent use; the bootstrapping scheduler creates one engine per
// cluster per worker.
type Engine struct {
	prog *ir.Program
	cg   *callgraph.Graph
	sa   *steens.Analysis
	cl   *cluster.Cluster

	fallback   *andersen.Analysis
	maxCond    int
	internMemo bool
	budget     int64 // 0 = unlimited
	spent      int64
	over       bool
	cause      error           // first failure: ErrBudget, ctx.Err(), or a hook error
	ctx        context.Context // optional cancellation; nil = never cancelled
	hook       Hook            // optional fault-injection/instrumentation hook
	metrics    *obs.Metrics    // optional registry Run flushes work counters into

	// tab hash-conses atoms and conditions to dense integer IDs; every
	// internal tuple, worklist item and cache below is keyed by these IDs
	// (or by small comparable structs of them) instead of strings.
	tab *condTab

	// Summaries at function exits, by dense key (see keyOf): the keys of
	// the mod-sets first, then otherKeys, which numbers a key outside
	// every mod-set on first use and stays nil until one is asked for.
	sums      []summary
	otherKeys map[uint64]int32

	// mods holds the mod-set of every function that may (transitively)
	// modify some V_P variable, by ascending function; a function absent
	// from it modifies none.
	mods []modSet

	// FSCI value-set cache: packed (v, loc) -> resolved sources, or the
	// inProgress marker while the set's own computation runs. Made on
	// the first insert.
	ptsVR map[uint64]*valueResult

	// call is the working storage of the public call in progress (see
	// callState); nil between calls.
	call *callState

	// hasAssumes is set when the cluster's slice contains path-sensitivity
	// assume nodes; terminated walk tokens then keep walking backwards to
	// collect the branch constraints guarding their path (Section 3's
	// conb tracking). Without assumes they record immediately (cheaper).
	hasAssumes bool

	// Work counters for instrumentation.
	TuplesProcessed int64
	SummariesBuilt  int
}

// NewEngine creates an FSCS engine for one cluster of a program. The call
// graph must be built from the same (devirtualized) program.
func NewEngine(p *ir.Program, cg *callgraph.Graph, sa *steens.Analysis, cl *cluster.Cluster, opts ...Option) *Engine {
	e := &Engine{
		prog:       p,
		cg:         cg,
		sa:         sa,
		cl:         cl,
		maxCond:    8,
		internMemo: true,
	}
	for _, o := range opts {
		o(e)
	}
	e.tab = newCondTab(e.maxCond, e.internMemo)
	for _, loc := range cl.Stmts {
		op := p.Node(loc).Stmt.Op
		if op == ir.OpAssumeEq || op == ir.OpAssumeNeq {
			e.hasAssumes = true
			break
		}
	}
	e.computeModStar()
	return e
}

// Cluster returns the cluster this engine analyzes.
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// Exhausted reports whether the engine aborted — budget exceeded,
// deadline passed, or a hook fault; results obtained afterwards are
// partial (queries degrade soundly to the fallback).
func (e *Engine) Exhausted() bool { return e.over }

// Err returns what stopped the engine: nil while healthy, ErrBudget on
// exhaustion, the context error on cancellation, or the hook's error.
func (e *Engine) Err() error { return e.cause }

// CondsInterned returns the number of distinct conditions hash-consed so
// far (≥ 1: the true condition) — an instrumentation window into the
// interning tables.
func (e *Engine) CondsInterned() int { return e.tab.conds.Len() }

// InternStats returns the condition-operator memo traffic so far: hits
// (answered from the With/And memo tables) and misses (computed
// structurally — every operation, when interning is disabled).
func (e *Engine) InternStats() (hits, misses int64) {
	return e.tab.memoHits, e.tab.memoMisses
}

// flushMetrics adds the engine's work counters to the attached registry
// — called once when Run finishes, never on the per-tuple path.
func (e *Engine) flushMetrics() {
	if e.metrics == nil {
		return
	}
	hits, misses := e.InternStats()
	e.metrics.Counter("bootstrap_fscs_tuples_total",
		"worklist tuples charged across all FSCS engines, one per (token, condition) pair transferred at a relevant Prog_P node").Add(e.TuplesProcessed)
	e.metrics.Counter("bootstrap_fscs_summaries_total",
		"function summaries built across all FSCS engines").Add(int64(e.SummariesBuilt))
	e.metrics.Counter("bootstrap_fscs_conds_interned_total",
		"distinct conditions hash-consed across all FSCS engines").Add(int64(e.CondsInterned()))
	e.metrics.Counter("bootstrap_fscs_intern_hits_total",
		"condition-operator results answered from the interning memo tables").Add(hits)
	e.metrics.Counter("bootstrap_fscs_intern_misses_total",
		"condition-operator results computed structurally").Add(misses)
}

// fail marks the engine aborted, keeping the first cause.
func (e *Engine) fail(err error) {
	e.over = true
	if e.cause == nil {
		e.cause = err
	}
}

// ctxErr reports the context's failure, treating an already-passed
// deadline as exceeded even when the context's timer has not fired yet —
// this keeps tiny (test) deadlines deterministic instead of racing the
// runtime timer.
func (e *Engine) ctxErr() error {
	if err := e.ctx.Err(); err != nil {
		return err
	}
	if d, ok := e.ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// checkpoint polls cancellation between worklist phases; reports false
// once the engine must stop.
func (e *Engine) checkpoint() bool {
	if e.over {
		return false
	}
	if e.ctx != nil {
		if err := e.ctxErr(); err != nil {
			e.fail(err)
			return false
		}
	}
	return true
}

// charge consumes budget for one worklist tuple; reports false when the
// engine must stop (budget gone, context done, or hook fault).
func (e *Engine) charge() bool {
	if e.over {
		return false
	}
	e.TuplesProcessed++
	if e.hook != nil {
		if err := e.hook(e.TuplesProcessed); err != nil {
			e.fail(err)
			return false
		}
	}
	// Poll the context every ctxCheckInterval tuples — every tuple when a
	// hook is installed, since hooks may sleep arbitrarily long.
	if e.ctx != nil && (e.hook != nil || e.TuplesProcessed%ctxCheckInterval == 0) {
		if err := e.ctxErr(); err != nil {
			e.fail(err)
			return false
		}
	}
	if e.budget == 0 {
		return true
	}
	e.spent++
	if e.spent > e.budget {
		e.fail(ErrBudget)
		return false
	}
	return true
}

// modScratch is computeModStar's working storage. idx numbers the
// functions of the closure by FuncID (index + 1, 0 for none) and is
// cleared through fns; every set is a window of arena.
type modScratch struct {
	idx    []int32
	fns    []ir.FuncID
	sets   [][]ir.VarID
	pairs  []uint64
	arena  []ir.VarID
	sccIdx []int
	buf    []ir.VarID
}

// modPool holds idle mod-set scratch for every engine in the process: an
// engine takes one while it computes its mod-sets and returns it with
// its marks cleared, so a scratch grows to the largest program met.
var modPool sync.Pool

// computeModStar computes, per function, the V_P variables the function
// may modify directly or via callees. Only functions with a non-empty set
// ever need summaries — the locality the paper exploits: "the need for
// computing summaries for functions that don't modify any pointers in the
// given cluster ... typically accounts for the majority of the functions".
// The same locality bounds the closure: only a (transitive) caller of a
// function with a modifying slice statement can get a non-empty set, so
// only those functions' call-graph SCCs are visited.
func (e *Engine) computeModStar() {
	s, _ := modPool.Get().(*modScratch)
	if s == nil {
		s = &modScratch{}
	}
	// Direct modifications as packed (function, variable) pairs: one sort
	// groups them by function, each group's variables ascending.
	pairs := s.pairs[:0]
	for _, loc := range e.cl.Stmts {
		n := e.prog.Node(loc)
		switch n.Stmt.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpNullify:
			if e.cl.HasVar(n.Stmt.Dst) {
				pairs = append(pairs, intern.Pack2x32(int32(n.Fn), int32(n.Stmt.Dst)))
			}
		case ir.OpStore:
			// A store may modify any V_P object in the written class.
			for _, o := range e.sa.PointsToVars(n.Stmt.Dst) {
				if e.cl.HasVar(o) {
					pairs = append(pairs, intern.Pack2x32(int32(n.Fn), int32(o)))
				}
			}
		}
	}
	s.pairs = pairs[:0]
	if len(pairs) == 0 {
		modPool.Put(s)
		return
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)

	// Number the caller closure of the modifying functions: fns[i] has
	// mod-set sets[i]. The modifying functions come first. Every set is a
	// slice of arena, which only grows: a set that grows is appended anew.
	s.idx = intern.Grow(s.idx, len(e.prog.Funcs))
	idx := s.idx
	fns, sets := s.fns[:0], s.sets[:0]
	number := func(f ir.FuncID) int32 {
		i := idx[f]
		if i == 0 {
			fns = append(fns, f)
			sets = append(sets, nil)
			i = int32(len(fns))
			idx[f] = i
		}
		return i - 1
	}
	arena := slices.Grow(s.arena[:0], 2*len(pairs))[:len(pairs)]
	for i, pk := range pairs {
		f, v := intern.Unpack2x32(pk)
		arena[i] = ir.VarID(v)
		j := number(ir.FuncID(f))
		n := len(sets[j]) + 1
		sets[j] = arena[i+1-n : i+1 : i+1]
	}
	sccIdx := s.sccIdx[:0]
	for q := 0; q < len(fns); q++ {
		f := fns[q]
		sccIdx = append(sccIdx, e.cg.SCCOf(f))
		for _, g := range e.cg.Callers(f) {
			number(g)
		}
	}
	slices.Sort(sccIdx)
	sccIdx = slices.Compact(sccIdx)
	// Close over callees, SCC by SCC in reverse topological order. A
	// non-recursive single-function SCC needs one pass (its callees are
	// final); any other SCC iterates to fixpoint. Sets only grow, so a
	// merge longer than the old set is a change. Every member of a
	// visited SCC is numbered: it is a transitive caller of the member
	// that was.
	sccs := e.cg.SCCs()
	buf := s.buf[:0]
	for _, i := range sccIdx {
		scc := sccs[i]
		once := len(scc) == 1 && !e.cg.Recursive(scc[0])
		for changed := true; changed; {
			changed = false
			for _, f := range scc {
				fi := idx[f] - 1
				buf = append(buf[:0], sets[fi]...)
				for _, g := range e.cg.Callees(f) {
					if gi := idx[g]; gi > 0 {
						buf = append(buf, sets[gi-1]...)
					}
				}
				if len(buf) == len(sets[fi]) {
					continue
				}
				slices.Sort(buf)
				if buf = slices.Compact(buf); len(buf) > len(sets[fi]) {
					at := len(arena)
					arena = append(arena, buf...)
					sets[fi] = arena[at:len(arena):len(arena)]
					changed = true
				}
			}
			if once {
				break
			}
		}
	}
	// Keep the non-empty sets by function, all variables in one array;
	// each variable's index in it is its summary key.
	e.mods = make([]modSet, 0, len(fns))
	total := 0
	for i, f := range fns {
		if len(sets[i]) > 0 {
			e.mods = append(e.mods, modSet{f: f, vars: sets[i]})
			total += len(sets[i])
		}
	}
	slices.SortFunc(e.mods, func(a, b modSet) int { return cmp.Compare(a.f, b.f) })
	flat := make([]ir.VarID, 0, total)
	e.sums = make([]summary, total)
	for i := range e.mods {
		m := &e.mods[i]
		at := len(flat)
		flat = append(flat, m.vars...)
		m.vars, m.off = flat[at:len(flat):len(flat)], int32(at)
		for j, v := range m.vars {
			e.sums[at+j].key = sumKey{f: m.f, ptr: v}
		}
	}

	// Clear the marks through the list that set them. An engine that
	// panics here never gets this far, and its scratch is dropped.
	for _, f := range fns {
		idx[f] = 0
	}
	clear(sets)
	s.fns, s.sets, s.arena, s.sccIdx, s.buf = fns[:0], sets[:0], arena[:0], sccIdx[:0], buf[:0]
	modPool.Put(s)
}

// modSetOf returns f's mod-set; nil when f modifies no V_P variable.
func (e *Engine) modSetOf(f ir.FuncID) *modSet {
	// A plain search: slices.BinarySearchFunc calls its comparator
	// through a func value on every probe, and the walk asks this for
	// every call node it judges.
	lo, hi := 0, len(e.mods)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e.mods[m].f < f {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(e.mods) && e.mods[lo].f == f {
		return &e.mods[lo]
	}
	return nil
}

// modKey returns the summary key of (f, v) when f may modify v: v's
// index in the flat mod-set array. It returns -1 when f cannot.
func (e *Engine) modKey(f ir.FuncID, v ir.VarID) int32 {
	m := e.modSetOf(f)
	if m == nil {
		return -1
	}
	j, ok := slices.BinarySearch(m.vars, v)
	if !ok {
		return -1
	}
	return m.off + int32(j)
}

// Modifies reports whether f may (transitively) modify v ∈ V_P.
func (e *Engine) Modifies(f ir.FuncID, v ir.VarID) bool { return e.modKey(f, v) >= 0 }

// SummaryFuncs returns the functions that need summaries for this cluster
// (non-empty mod-set), sorted.
func (e *Engine) SummaryFuncs() []ir.FuncID {
	out := make([]ir.FuncID, len(e.mods))
	for i, m := range e.mods {
		out[i] = m.f
	}
	return out
}

// Summary returns the summary tuples for ptr at the exit of f: the local
// maximally complete update sequences from each source to ptr leading from
// f's entry to its exit (Definition 8). Results are memoized; recursion is
// resolved by iterating the involved summaries to a fixpoint (the paper's
// SCC treatment in Algorithm 5).
func (e *Engine) Summary(f ir.FuncID, ptr ir.VarID) []SumTuple {
	return e.tupleList(e.summaryLookup(e.keyOf(f, ptr)))
}

// keyOf returns the dense number of summary key (f, ptr). A key the walk
// can splice has its mod-set number (modKey); any other — the public
// Summary of an arbitrary pair, or a cached payload naming one — is
// numbered after those on first use.
func (e *Engine) keyOf(f ir.FuncID, ptr ir.VarID) int32 {
	if k := e.modKey(f, ptr); k >= 0 {
		return k
	}
	packed := intern.Pack2x32(int32(f), int32(ptr))
	if i, ok := e.otherKeys[packed]; ok {
		return i
	}
	if e.otherKeys == nil {
		e.otherKeys = map[uint64]int32{}
	}
	i := int32(len(e.sums))
	e.otherKeys[packed] = i
	e.sums = append(e.sums, summary{key: sumKey{f: f, ptr: ptr}})
	return i
}

// sumRing is an index-ordered ring-buffer FIFO over summary keys — the
// fixpoint worklist. Compared to the former sorted-map-per-round loop it
// never re-sorts: keys are processed in discovery order and re-enqueued
// only when a dependency actually grew.
type sumRing struct {
	buf        []int32
	head, tail int // tail - head = live count; indexes are masked
}

func (r *sumRing) empty() bool { return r.head == r.tail }

func (r *sumRing) push(k int32) {
	if r.tail-r.head == len(r.buf) {
		grown := make([]int32, intern.NextPow2(2*(len(r.buf)+1)))
		n := r.tail - r.head
		for i := 0; i < n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head, r.tail = grown, 0, n
	}
	r.buf[r.tail&(len(r.buf)-1)] = k
	r.tail++
}

func (r *sumRing) pop() int32 {
	k := r.buf[r.head&(len(r.buf)-1)]
	r.head++
	return k
}

// fixFrame is one fixpoint invocation's worklist state over dense summary
// keys. Invocations nest, and a key can belong to an outer and an inner
// one at once, so each invocation takes its own frame from the engine's
// free list. A released frame keeps its storage; only its members'
// entries are reset.
type fixFrame struct {
	ring    sumRing
	members []int32  // keys discovered, in discovery order
	keys    []fixKey // per summary key
	out     []tup    // the current walk's sources
}

// fixKey is one summary key's state in a fixpoint invocation.
type fixKey struct {
	member, queued bool
	deps           []int32 // keys whose walks read this one, in first-read order
}

// pop takes the last value off a free list, or returns the zero value
// when the list is empty.
func pop[T any](free *[]T) (v T) {
	if n := len(*free); n > 0 {
		v, *free = (*free)[n-1], (*free)[:n-1]
	}
	return v
}

// putFrame resets fr's members' entries and returns it to the call
// state's free list.
func (e *Engine) putFrame(fr *fixFrame) {
	for _, k := range fr.members {
		fr.keys[k] = fixKey{deps: fr.keys[k].deps[:0]}
	}
	fr.members = fr.members[:0]
	fr.ring.head, fr.ring.tail = 0, 0
	fr.out = fr.out[:0]
	e.call.fixFree = append(e.call.fixFree, fr)
}

// fixpoint computes root and every summary it transitively requests,
// iterating until no tuple set grows. Tuple sets are monotone (finite
// token × widened-condition space), so this terminates; the least fixpoint
// is unique, so the processing order only affects work, not results.
//
// The worklist is a FIFO ring buffer with dependency tracking: when key
// k's walk reads a callee summary g, the edge g → k is recorded, and k is
// re-enqueued only when g's tuple set actually grows — replacing the old
// scheme that re-sorted and re-ran every pending key each round.
func (e *Engine) fixpoint(root int32) {
	defer e.release(e.hold())
	fr := pop(&e.call.fixFree)
	if fr == nil {
		fr = &fixFrame{}
	}
	enqueue := func(k int32) {
		if !fr.keys[k].queued {
			fr.keys[k].queued = true
			fr.ring.push(k)
		}
	}
	discover := func(k int32) {
		if n := len(e.sums); len(fr.keys) < n {
			// Walks number new summary keys as they discover them.
			fr.keys = append(fr.keys, make([]fixKey, n-len(fr.keys))...)
		}
		if !fr.keys[k].member {
			fr.keys[k].member = true
			fr.members = append(fr.members, k)
			enqueue(k)
		}
	}
	discover(root)

	for !fr.ring.empty() && e.checkpoint() {
		k := fr.ring.pop()
		fr.keys[k].queued = false

		lookup := func(gk int32) []tup {
			if !e.sums[gk].done {
				discover(gk)
				// Record the edge gk → k once. A walk reads the same
				// summary repeatedly, so the last entry is usually k.
				if d := fr.keys[gk].deps; len(d) == 0 || (d[len(d)-1] != k && !slices.Contains(d, k)) {
					fr.keys[gk].deps = append(d, k)
				}
			}
			return e.sums[gk].tups
		}
		sk := e.sums[k].key
		fr.out = e.walkBack(VarTok(sk.ptr), e.prog.Func(sk.f).Exit, lookup, fr.out[:0])

		sum, grew := &e.sums[k], false
		for _, t := range fr.out {
			if !slices.Contains(sum.tups, t) {
				sum.tups = append(sum.tups, t)
				grew = true
			}
		}
		if grew {
			for _, d := range fr.keys[k].deps {
				enqueue(d)
			}
		}
	}
	for _, k := range fr.members {
		if !e.sums[k].done {
			e.sums[k].done = true
			e.SummariesBuilt++
		}
	}
	e.putFrame(fr)
}

// summaryLookup is the default lookup for walks outside the fixpoint: it
// computes callee summaries fully on demand.
func (e *Engine) summaryLookup(k int32) []tup {
	if !e.sums[k].done {
		e.fixpoint(k)
	}
	return e.sums[k].tups
}

// putTups returns a walk-result buffer, taken with pop(&e.call.tupBufs),
// to the call state's free list.
func (e *Engine) putTups(b []tup) { e.call.tupBufs = append(e.call.tupBufs, b[:0]) }

// SummaryAt returns the summary tuples for ptr at an arbitrary location of
// its function: the sources of maximally complete update sequences from
// the function's entry to loc.
func (e *Engine) SummaryAt(loc ir.Loc, ptr ir.VarID) []SumTuple {
	defer e.release(e.hold())
	buf := e.walkBack(VarTok(ptr), loc, e.summaryLookup, pop(&e.call.tupBufs))
	defer e.putTups(buf)
	return e.tupleList(buf)
}

// tupleList materializes an interned tuple set as public SumTuples in the
// canonical (key-sorted) order the API has always used.
func (e *Engine) tupleList(ts []tup) []SumTuple {
	out := make([]SumTuple, 0, len(ts))
	for _, t := range ts {
		out = append(out, SumTuple{Src: t.tok, Cond: e.tab.cond(t.cond)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// Rebind repoints a solved engine at a structurally equivalent successor
// program. core.ApplyEdit reuses engines of clusters whose Algorithm-1
// slice is untouched by an edit batch: every VarID, FuncID and Loc the
// slice names is identical in the new program, so the memoized summaries
// and value sets remain exact. What must swap is everything keyed or
// sized by the program as a whole: the program itself (inserted nodes
// extend the Loc space), the call graph, the Steensgaard analysis (the
// slice's classes are isomorphic or the cluster would be dirty), the
// Andersen fallback (widened answers must match a fresh run on the new
// program; it may be one not yet solved, read only if a query widens),
// and the cluster object carrying the new cover's ID. Walk storage needs
// no swap: each call checks a call state out of the shared pool and
// builds its function views from the engine's current program.
func (e *Engine) Rebind(p *ir.Program, cg *callgraph.Graph, sa *steens.Analysis, cl *cluster.Cluster, fallback *andersen.Analysis) {
	e.prog = p
	e.cg = cg
	e.sa = sa
	e.cl = cl
	e.fallback = fallback
}
