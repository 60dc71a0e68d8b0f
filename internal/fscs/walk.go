package fscs

import (
	"slices"
	"sync"

	"bootstrap/internal/ir"
)

// walkBack is the engine's core: the backward interprocedural traversal of
// Algorithms 4 and 5. Starting just before node at, in at's function f,
// with a tracked token (the paper's tuple (p, f, l, m, q, cond) — here p and l
// are fixed by the caller, the worklist carries (m, q, cond)), it
// propagates the token against each statement's effect, branching on
// unresolved points-to relations with constraints per Definition 8,
// splicing callee summaries at call nodes, and appends to out the set of
// sources: tokens at f's entry (TVar) or terminated sequences (TAddr /
// TNull / TUnknown), each once.
//
// The walk runs on Prog_P, not on the whole CFG: it steps only between
// the function's relevant nodes (see relevant), from each to the relevant
// nodes behind it through pass-through nodes (sparsePreds). A
// pass-through node returns every token unchanged, so skipping it changes
// no source; only the tuples charged fall.
//
// Conditions travel as interned CondIDs and worklist deduplication is one
// epoch-stamped slot per node in a scratch reused across walks — no
// string keys and no per-walk map or slice allocation anywhere on this
// path; the caller owns out and reuses it across walks.
//
// lookup supplies callee exit summaries by key (see keyOf); during the
// recursion fixpoint it returns the current (possibly still growing)
// tuple sets.
func (e *Engine) walkBack(start Token, at ir.Loc, lookup func(int32) []tup, out []tup) []tup {
	if !e.checkpoint() {
		// Cancelled: return no sources. Callers observe e.over and widen
		// to the fallback, so an empty set here stays sound.
		return out
	}
	if start.Kind != TVar || len(e.prog.Nodes[at].Preds) == 0 {
		// A terminated token is its own source; a TVar queried at the
		// function entry holds whatever it holds on entry.
		return append(out, tup{tok: start, cond: TrueCondID})
	}
	defer e.release(e.hold())
	v := e.view(e.prog.Nodes[at].Fn)
	entry := localIndex(v.fn, v.fn.Entry)

	s := e.getScratch(len(v.fn.Nodes))
	defer e.putScratch(s)

	base := len(out)
	record := func(t tup) {
		// Results are few (one for most walks), so a scan of this walk's
		// own results is the cheapest set.
		if !slices.Contains(out[base:], t) {
			out = append(out, t)
		}
	}
	for _, k := range e.sparsePreds(v, localIndex(v.fn, at)) {
		s.push(k, start, TrueCondID)
	}

	for len(s.work) > 0 {
		if !e.charge() {
			return out
		}
		it := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]

		s.outs = e.transfer(s.outs[:0], e.prog.Nodes[v.fn.Nodes[it.k]], it.tok, it.cond, lookup)
		var preds []int32
		for _, oc := range s.outs {
			// Without assume nodes there are no path constraints to
			// collect, so terminated sequences record immediately.
			if (oc.tok.Kind != TVar && !e.hasAssumes) || it.k == entry {
				record(oc)
				continue
			}
			if preds == nil {
				preds = e.sparsePreds(v, it.k)
			}
			for _, k := range preds {
				s.push(k, oc.tok, oc.cond)
			}
		}
	}
	return out
}

// localIndex returns loc's index in f.Nodes. A function's nodes are one
// ascending run of locations except those that devirtualization or an
// edit appended later, which a binary search finds.
func localIndex(f *ir.Func, loc ir.Loc) int32 {
	if i := uint(loc - f.Nodes[0]); i < uint(len(f.Nodes)) && f.Nodes[i] == loc {
		return int32(i)
	}
	i, _ := slices.BinarySearch(f.Nodes, loc)
	return int32(i)
}

// relevant reports whether node n, outside St_P, can change some token
// the walk carries: an assume over two V_P pointers adds a constraint,
// an unresolved call loses every V_P pointer, and a call may splice a
// summary when its callee may modify some V_P pointer. Every other node
// outside St_P is pass-through: transfer returns its input unchanged, for
// every token and condition. St_P statements and function entries are
// relevant regardless.
func (e *Engine) relevant(n *ir.Node) bool {
	st := &n.Stmt
	switch st.Op {
	case ir.OpAssumeEq, ir.OpAssumeNeq:
		return e.cl.HasVar(st.Dst) && e.cl.HasVar(st.Src)
	case ir.OpCall:
		return st.Callee == ir.NoFunc || e.modSetOf(st.Callee) != nil
	}
	return false
}

// fnView is one function's Prog_P view: where its nodes sit in the call
// state's node table.
type fnView struct {
	fn   *ir.Func
	base int32 // index of fn.Nodes[0]'s entry in callState.nodes
}

// nodeView is one node's entry in a call state's node table. The zero
// value is a node not yet judged whose sparse predecessors are not yet
// computed, so a view starts as cleared memory.
type nodeView struct {
	off, n int32 // sparse predecessors: callState.preds[off:off+n], once done
	done   bool
	rel    relState
}

// relState is a node's relevance as a view knows it: St_P statements and
// the entry are marked when the view is made, every other node when a
// search first reaches it.
type relState uint8

const (
	relUnknown relState = iota
	relYes
	relNo
)

// callState is the working storage of one public call on an engine: the
// Prog_P view of every function its walks enter, and free lists of walk
// scratch, walk-result buffers and fixpoint frames. Free lists, not
// single buffers, because all three nest: a walk resolving a value set
// runs walks of its own, and those may start a fixpoint. Nothing in it
// is a result, so it goes back to callPool when the call returns and a
// solved engine keeps only what it computed. Everything is sized by the
// functions walked, never by the program.
type callState struct {
	viewOf map[ir.FuncID]int32 // index into views
	views  []fnView
	nodes  []nodeView // every view's nodes, from its base on
	preds  []int32    // sparse predecessor lists, as local node indices

	// Stamps and stack of sparsePreds' search, by local node index.
	seen  []uint32
	stamp uint32
	stack []int32

	scratch []*walkScratch
	tupBufs [][]tup
	fixFree []*fixFrame
}

// callPool holds idle call states of every engine in the process, so the
// storage a call needs tracks the calls live at once (one per worker and
// per concurrent query), not clusters × functions.
var callPool sync.Pool

// hold gives e a call state unless a call on e already holds one, and
// reports whether it did: the outermost call that holds it releases it.
// Every method that walks holds it, so nested walks share one view of
// each function.
func (e *Engine) hold() bool {
	if e.call != nil {
		return false
	}
	c, _ := callPool.Get().(*callState)
	if c == nil {
		c = &callState{viewOf: map[ir.FuncID]int32{}}
	}
	e.call = c
	return true
}

// release ends the call that hold reported holding: it empties the
// state's views, dropping their *ir.Func pointers so an idle state
// keeps no function of a finished program reachable, and returns it to
// the pool.
func (e *Engine) release(held bool) {
	if !held {
		return
	}
	c := e.call
	e.call = nil
	clear(c.viewOf)
	clear(c.views)
	c.views, c.nodes, c.preds = c.views[:0], c.nodes[:0], c.preds[:0]
	callPool.Put(c)
}

// view returns f's Prog_P view, made on first use in this call: the
// entry and f's share of the sorted St_P marked relevant, found by one
// binary search and a scan of St_P over f's location range, and every
// other node left for sparsePreds to judge when it reaches it.
func (e *Engine) view(f ir.FuncID) fnView {
	c := e.call
	if i, ok := c.viewOf[f]; ok {
		return c.views[i]
	}
	fn := e.prog.Func(f)
	v := fnView{fn: fn, base: int32(len(c.nodes))}
	c.nodes = append(c.nodes, make([]nodeView, len(fn.Nodes))...)
	c.nodes[v.base+localIndex(fn, fn.Entry)].rel = relYes
	first, last := fn.Nodes[0], fn.Nodes[len(fn.Nodes)-1]
	stmts := e.cl.Stmts
	j, _ := slices.BinarySearch(stmts, first)
	for ; j < len(stmts) && stmts[j] <= last; j++ {
		// Nodes appended to f sit after other functions' locations.
		if k := localIndex(fn, stmts[j]); fn.Nodes[k] == stmts[j] {
			c.nodes[v.base+k].rel = relYes
		}
	}
	c.viewOf[f] = int32(len(c.views))
	c.views = append(c.views, v)
	return v
}

// relevantAt reports whether node k of v's function is relevant, judging
// it on the first ask.
func (e *Engine) relevantAt(v fnView, k int32) bool {
	nv := &e.call.nodes[v.base+k]
	if nv.rel == relUnknown {
		nv.rel = relNo
		if e.relevant(e.prog.Nodes[v.fn.Nodes[k]]) {
			nv.rel = relYes
		}
	}
	return nv.rel == relYes
}

// sparsePreds returns the relevant nodes a walk steps to from node k of
// v's function: those reachable backwards from k's predecessors through
// pass-through nodes only, as local indices in discovery order. Computed
// on first use and kept until the call ends; the slice is valid until the
// next call that can compute one.
func (e *Engine) sparsePreds(v fnView, k int32) []int32 {
	c := e.call
	if nv := c.nodes[v.base+k]; nv.done {
		return c.preds[nv.off : nv.off+nv.n]
	}
	if n := len(v.fn.Nodes); len(c.seen) < n {
		c.seen = make([]uint32, max(n, 2*len(c.seen)))
	}
	c.stamp++
	if c.stamp == 0 {
		clear(c.seen)
		c.stamp = 1
	}
	off := len(c.preds)
	stack := c.stack[:0]
	preds := e.prog.Nodes[v.fn.Nodes[k]].Preds
	for {
		for _, pr := range preds {
			j := localIndex(v.fn, pr)
			if c.seen[j] == c.stamp {
				continue
			}
			c.seen[j] = c.stamp
			if e.relevantAt(v, j) {
				c.preds = append(c.preds, j)
			} else {
				stack = append(stack, j)
			}
		}
		if len(stack) == 0 {
			break
		}
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		preds = e.prog.Nodes[v.fn.Nodes[j]].Preds
	}
	c.stack = stack
	c.nodes[v.base+k] = nodeView{off: int32(off), n: int32(len(c.preds) - off), done: true, rel: c.nodes[v.base+k].rel}
	return c.preds[off:]
}

// wbItem is one walkBack worklist entry: a tracked token with its path
// condition at a node, by its index in the walk's function.
type wbItem struct {
	k    int32
	tok  Token
	cond CondID
}

// wbLink is one (token, condition) pair pushed at a node, with the
// index of the node's next pair in the scratch's arena (0: none).
type wbLink struct {
	tok  Token
	cond CondID
	next uint32
}

// wbSlot is one node's dedup slot in a walk scratch: the epoch of the
// walk that last wrote it and the first pair that walk pushed at the
// node, heading its overflow chain. 20 bytes; most nodes a walk reaches
// see exactly one pair, so most pushes touch only this slot.
type wbSlot struct {
	epoch uint32
	wbLink
}

// walkScratch is the reusable traversal state for one live walkBack. The
// dedup set is one epoch-stamped slot per node of the walk's function: a
// stale epoch means the node logically starts empty this walk, so no
// clearing pass is needed between walks. A node's first pair sits in its
// slot and further pairs chain through links, an arena truncated at
// checkout, so a push usually touches one slot and membership is a scan
// of the small per-node fan-in. Hashing a key per push, or a separately
// allocated bucket per node, costs more than the transfer work a tuple
// does.
type walkScratch struct {
	epoch uint32
	slots []wbSlot // one per node of the walk's function, by local index
	links []wbLink // overflow pairs of this walk; links[0] is unused
	work  []wbItem
	outs  []tup // transfer's results for the item being expanded
}

// push adds (t, c) at node k to the worklist unless this walk has
// already pushed it there.
func (s *walkScratch) push(k int32, t Token, c CondID) {
	if s.insert(k, t, c) {
		s.work = append(s.work, wbItem{k: k, tok: t, cond: c})
	}
}

// insert records (t, c) at node k for this walk and reports whether it
// was new.
func (s *walkScratch) insert(k int32, t Token, c CondID) bool {
	sl := &s.slots[k]
	if sl.epoch != s.epoch {
		*sl = wbSlot{epoch: s.epoch, wbLink: wbLink{tok: t, cond: c}}
		return true
	}
	if sl.tok == t && sl.cond == c {
		return false
	}
	for i := sl.next; i != 0; i = s.links[i].next {
		if s.links[i].tok == t && s.links[i].cond == c {
			return false
		}
	}
	s.links = append(s.links, wbLink{tok: t, cond: c, next: sl.next})
	sl.next = uint32(len(s.links) - 1)
	return true
}

// begin starts a new walk on s: every slot becomes stale and the arena
// empty.
func (s *walkScratch) begin() {
	s.epoch++
	if s.epoch == 0 {
		// Epoch wrap-around: every slot stamped 2^32 walks ago would look
		// current, so clear the stamps once per 2^32 walks.
		for i := range s.slots {
			s.slots[i].epoch = 0
		}
		s.epoch = 1
	}
	s.links = s.links[:1]
}

// getScratch checks a scratch with at least n slots out of the call
// state. walkBack re-enters itself through summary lookups and FSCI value
// resolution, so each live walk owns a scratch.
func (e *Engine) getScratch(n int) *walkScratch {
	s := pop(&e.call.scratch)
	if s == nil {
		s = &walkScratch{links: make([]wbLink, 1, 64)}
	}
	if len(s.slots) < n {
		// Fresh slots carry epoch 0, which no walk uses.
		s.slots = make([]wbSlot, max(n, 2*len(s.slots)))
	}
	s.begin()
	return s
}

func (e *Engine) putScratch(s *walkScratch) {
	s.work = s.work[:0]
	e.call.scratch = append(e.call.scratch, s)
}

// transfer implements Algorithm 4: the effect of node n's statement on a
// tracked token, backwards. It appends the possible (token, condition)
// outcomes (several when a points-to relation cannot be resolved and both
// cases are tracked under constraints) to outs, the calling walk's own
// buffer, and returns it.
func (e *Engine) transfer(outs []tup, n *ir.Node, tok Token, cond CondID, lookup func(int32) []tup) []tup {
	loc := n.Loc
	st := &n.Stmt // read in place: a Stmt is 64 bytes and this runs per tuple
	q := tok.V
	pass := append(outs, tup{tok: tok, cond: cond}) // tok unchanged; other branches append over it

	// A terminated token (null / &obj / unknown) is walked further only
	// to pick up the branch constraints guarding its path: assume nodes
	// strengthen its condition; everything else is transparent.
	if tok.Kind != TVar {
		if st.Op == ir.OpAssumeEq || st.Op == ir.OpAssumeNeq {
			if !e.cl.HasVar(st.Dst) || !e.cl.HasVar(st.Src) {
				return pass
			}
			op := OpSameTarget
			if st.Op == ir.OpAssumeNeq {
				op = OpDiffTarget
			}
			return append(outs, tup{tok: tok, cond: e.tab.with(cond, Atom{Loc: loc, Op: op, X: st.Dst, Y: st.Src})})
		}
		return pass
	}

	// Statements outside St_P cannot modify V_P variables (Algorithm 1
	// includes every statement whose destination is relevant), so they act
	// as skips — this is the Prog_P slicing of Section 2. Each assignment
	// case below first asks whether the statement can touch q at all (from
	// the statement and the Steensgaard classes) and consults St_P only
	// when it can.
	switch st.Op {
	case ir.OpSkip, ir.OpRet, ir.OpTouch:
		return pass

	case ir.OpAssumeEq, ir.OpAssumeNeq:
		// Path sensitivity (Section 3): the walk crossed a branch arm
		// guarded by a pointer (in)equality; record it as a same-target /
		// different-target constraint (Definition 8) so refutable tuples
		// are weeded out at satisfiability time. Only constraints over
		// tracked (V_P) pointers are recorded — the FSCI points-to sets
		// used to refute them are only computed for the cluster's slice.
		if !e.cl.HasVar(st.Dst) || !e.cl.HasVar(st.Src) {
			return pass
		}
		op := OpSameTarget
		if st.Op == ir.OpAssumeNeq {
			op = OpDiffTarget
		}
		return append(outs, tup{tok: tok, cond: e.tab.with(cond, Atom{Loc: loc, Op: op, X: st.Dst, Y: st.Src})})

	case ir.OpCopy:
		if st.Dst != q || !e.cl.HasStmt(loc) {
			return pass
		}
		return append(outs, tup{tok: VarTok(st.Src), cond: cond})

	case ir.OpAddr:
		if st.Dst != q || !e.cl.HasStmt(loc) {
			return pass
		}
		return append(outs, tup{tok: AddrTok(st.Src), cond: cond})

	case ir.OpNullify:
		if st.Dst != q || !e.cl.HasStmt(loc) {
			return pass
		}
		return append(outs, tup{tok: NullTok(), cond: cond})

	case ir.OpLoad: // dst = *s
		if st.Dst != q || !e.cl.HasStmt(loc) {
			return pass
		}
		s := st.Src
		base := len(outs)
		if e.sa.SamePartition(s, q) {
			// Cyclic case: s and the tracked pointer share a partition, so
			// the FSCI points-to set of s is not available yet; enumerate
			// the possible objects under constraints (Definition 8).
			for _, o := range e.cl.Vars {
				if e.sa.LocClass(o) == e.sa.ContentClass(s) {
					outs = append(outs, tup{
						tok:  VarTok(o),
						cond: e.tab.with(cond, Atom{Loc: loc, Op: OpPointsTo, X: s, Y: o}),
					})
				}
			}
			if len(outs) == base {
				return append(outs, tup{tok: UnknownTok(), cond: cond})
			}
			return outs
		}
		// Top-down resolution: s is strictly higher in the hierarchy, so
		// its FSCI points-to set is computable first (Algorithm 2).
		pt, known := e.PointsToAt(s, loc)
		if !known {
			return append(outs, tup{tok: UnknownTok(), cond: cond})
		}
		for _, o := range pt {
			if !e.cl.HasVar(o) {
				continue
			}
			outs = append(outs, tup{
				tok:  VarTok(o),
				cond: e.tab.with(cond, Atom{Loc: loc, Op: OpPointsTo, X: s, Y: o}),
			})
		}
		if len(outs) == base {
			// s points nowhere the analysis tracks: the load yields an
			// unconstrained value.
			return append(outs, tup{tok: UnknownTok(), cond: cond})
		}
		return outs

	case ir.OpStore: // *d = r
		d, r := st.Dst, st.Src
		// The store can touch q only if q's location class is what d
		// points at under Steensgaard.
		if e.sa.LocClass(q) != e.sa.ContentClass(d) || !e.cl.HasStmt(loc) {
			return pass
		}
		both := func() []tup {
			return append(outs,
				tup{tok: VarTok(r), cond: e.tab.with(cond, Atom{Loc: loc, Op: OpPointsTo, X: d, Y: q})},
				tup{tok: tok, cond: e.tab.with(cond, Atom{Loc: loc, Op: OpNotPointsTo, X: d, Y: q})},
			)
		}
		if e.sa.SamePartition(d, q) {
			return both() // cyclic case: track constraints
		}
		pt, known := e.PointsToAt(d, loc)
		if !known {
			return both()
		}
		for _, o := range pt {
			if o == q {
				return both()
			}
		}
		return pass // d provably never points at q here

	case ir.OpCall:
		g := st.Callee
		if g == ir.NoFunc {
			// Undevirtualized indirect call: conservatively unknown for
			// any pointer it might modify.
			if e.cl.HasVar(q) {
				return append(outs, tup{tok: UnknownTok(), cond: cond})
			}
			return pass
		}
		k := e.modKey(g, q)
		if k < 0 {
			// Executing g has no effect on q: jump over the call
			// (Algorithm 5, line 17).
			return pass
		}
		// Splice g's exit summary for q (Algorithm 5, lines 10-13): each
		// source continues in the caller just before the call node, where
		// the parameter-binding copies rebind formals to actuals.
		for _, t := range lookup(k) {
			outs = append(outs, tup{tok: t.tok, cond: e.tab.and(cond, t.cond)})
		}
		// An empty (provisional) summary yields no outcomes this round;
		// the fixpoint revisits once the callee summary grows.
		return outs
	}
	return pass
}
