package fscs

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
)

// TestScratchOutgrowsPool: walk scratch travels in call states pooled
// across every engine in the process, so a scratch sized for a small
// program's functions must not be handed to a walk over a function with
// more nodes. The larger program's walks get scratch covering every node
// of their function and answer exactly as a freshly built engine does.
func TestScratchOutgrowsPool(t *testing.T) {
	small, large := newHarness(t, poolSmallSrc), newHarness(t, poolLargeSrc)
	widest := 0
	for _, f := range large.prog.Funcs {
		widest = max(widest, len(f.Nodes))
	}
	if len(small.prog.Nodes) >= widest {
		t.Fatalf("small program has %d nodes, large program's widest function %d: want fewer", len(small.prog.Nodes), widest)
	}
	// fillPool returns several call states holding small-program scratch
	// to the pool, so the next checkout almost surely finds one (the race
	// detector drops some pooled values at random).
	fillPool := func() {
		var held []*Engine
		for i := 0; i < 4; i++ {
			e := small.engineFor(t)
			e.hold()
			e.putScratch(e.getScratch(len(small.prog.Nodes)))
			held = append(held, e)
		}
		for _, e := range held {
			e.release(true)
		}
	}

	fillPool()
	pooled := large.engineFor(t)
	held := pooled.hold()
	s := pooled.getScratch(widest)
	if len(s.slots) < widest {
		t.Fatalf("scratch has %d slots for a %d-node function", len(s.slots), widest)
	}
	pooled.putScratch(s)
	pooled.release(held)

	fillPool()
	if err := pooled.Run(); err != nil {
		t.Fatalf("run after small-program scratch: %v", err)
	}
	fresh := large.engineFor(t)
	if err := fresh.Run(); err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	got, want := engineAnswers(large, pooled), engineAnswers(large, fresh)
	if len(got) != len(want) {
		t.Fatalf("%d answers, fresh engine gives %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("answer %d = %s, fresh engine: %s", i, got[i], want[i])
		}
	}
}

// TestScratchPoolConcurrentEngines: engines on programs of different
// sizes walk at once from several goroutines, as the scheduler's workers
// and detached query solves do, and each still answers as its engine
// does alone.
func TestScratchPoolConcurrentEngines(t *testing.T) {
	hs := []*harness{newHarness(t, poolSmallSrc), newHarness(t, poolLargeSrc)}
	want := make([][]string, len(hs))
	for i, h := range hs {
		e := h.engineFor(t)
		if err := e.Run(); err != nil {
			t.Fatalf("reference run: %v", err)
		}
		want[i] = engineAnswers(h, e)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				i := (g + round) % len(hs)
				e := hs[i].engineFor(t)
				if err := e.Run(); err != nil {
					t.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
				got := engineAnswers(hs[i], e)
				if fmt.Sprint(got) != fmt.Sprint(want[i]) {
					t.Errorf("goroutine %d round %d: answers differ from the engine run alone", g, round)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

const poolSmallSrc = `
	int a;
	int *p;
	void main() { p = &a; }
`

const poolLargeSrc = `
	int a, b, c;
	int *p, *q, *r;
	int **pp;
	void leaf() { q = p; }
	void rec() { if (p == r) { rec(); } r = q; }
	void mid() { leaf(); if (p == r) { r = &c; } rec(); }
	void main() {
		p = &a;
		r = &b;
		pp = &p;
		*pp = r;
		mid();
		q = *pp;
	}
`

// engineAnswers renders every exit summary and every pointer's value set
// at every location of h's program, in a fixed order.
func engineAnswers(h *harness, e *Engine) []string {
	var out []string
	for _, f := range e.SummaryFuncs() {
		for _, v := range e.cl.Pointers {
			for _, st := range e.Summary(f, v) {
				out = append(out, fmt.Sprintf("sum(%d,%d) %s", f, v, st.key()))
			}
		}
	}
	for _, n := range h.prog.Nodes {
		for _, v := range e.cl.Pointers {
			objs, precise := e.Values(v, n.Loc)
			out = append(out, fmt.Sprintf("values(%d,L%d) %v %v", v, n.Loc, objs, precise))
		}
	}
	return out
}

// TestScratchOverflowChain: a location holds one (token, condition) pair
// in its 20-byte slot and chains the rest through the walk's arena. A
// location that receives more pairs than the slot holds must still accept
// each distinct pair once and reject every repeat, independently of its
// neighbours; a new walk starts every location and the arena empty.
func TestScratchOverflowChain(t *testing.T) {
	if n := unsafe.Sizeof(wbSlot{}); n > 20 {
		t.Fatalf("a dedup slot is %d bytes, want at most 20 per location", n)
	}
	s := &walkScratch{slots: make([]wbSlot, 4), links: make([]wbLink, 1)}
	pairs := []tup{
		{tok: VarTok(1), cond: TrueCondID},
		{tok: VarTok(2), cond: TrueCondID},
		{tok: VarTok(1), cond: 3},
		{tok: AddrTok(1), cond: TrueCondID},
		{tok: NullTok(), cond: 5},
		{tok: UnknownTok(), cond: TrueCondID},
	}
	for walk := 0; walk < 2; walk++ {
		s.begin()
		if len(s.links) != 1 {
			t.Fatalf("walk %d starts with %d overflow entries", walk, len(s.links)-1)
		}
		for i, p := range pairs {
			if !s.insert(2, p.tok, p.cond) {
				t.Fatalf("walk %d: pair %d %v rejected at a location holding %d pairs", walk, i, p, i)
			}
		}
		for i, p := range pairs[:2] {
			if !s.insert(3, p.tok, p.cond) {
				t.Fatalf("walk %d: pair %d rejected at a neighbouring location", walk, i)
			}
		}
		for i, p := range pairs {
			if s.insert(2, p.tok, p.cond) {
				t.Errorf("walk %d: repeat of pair %d %v accepted", walk, i, p)
			}
		}
		if !s.insert(3, pairs[2].tok, pairs[2].cond) {
			t.Errorf("walk %d: a pair held only at another location rejected", walk)
		}
	}
}

// TestScratchEpochWrap: a slot is empty for a walk unless that walk's
// epoch is stamped on it. When the epoch counter wraps, a slot stamped
// 2^32 walks earlier, or never written at all (a zero stamp over the zero
// pair, which is the valid pair var(0) under the true condition), must
// not look current.
func TestScratchEpochWrap(t *testing.T) {
	s := &walkScratch{slots: make([]wbSlot, 3), links: make([]wbLink, 1)}
	stale := tup{tok: VarTok(7), cond: 2}
	s.slots[1] = wbSlot{epoch: 1, wbLink: wbLink{tok: stale.tok, cond: stale.cond}}
	s.epoch = ^uint32(0) - 1
	s.begin()
	if !s.insert(2, stale.tok, stale.cond) {
		t.Fatal("fresh slot rejected a pair before the wrap")
	}
	s.begin() // wraps
	for loc, p := range []tup{{tok: VarTok(0), cond: TrueCondID}, stale, stale} {
		if !s.insert(int32(loc), p.tok, p.cond) {
			t.Errorf("after the wrap, location %d (stamp %d) rejected %v in a new walk", loc, s.slots[loc].epoch, p)
		}
	}
}

// TestSolvedEngineAllocs: on a solved engine, repeated walks and
// memoized PointsToAt calls run on reused storage: pooled walk scratch,
// a caller-owned result buffer, and value sets kept as sorted slices.
func TestSolvedEngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its puts under the race detector")
	}
	h := newHarness(t, poolLargeSrc)
	e := h.engineFor(t)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	main := h.prog.Func(h.prog.FuncByName["main"])
	exit := main.Exit
	var buf []tup
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range e.cl.Pointers {
			buf = e.walkBack(VarTok(p), exit, e.summaryLookup, buf[:0])
			e.PointsToAt(p, exit)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocations per round of %d walks and PointsToAt calls, want 0", allocs, len(e.cl.Pointers))
	}
}

// unresolvedCallSrc keeps an indirect call unresolved when it is lowered
// without devirtualization: a NoFunc call node beside calls to a
// modifying and a non-modifying function. look's guard is an assume over
// V_P pointers outside St_P: Algorithm 1 takes in only the assumes of
// functions its slice touches.
const unresolvedCallSrc = `
	int a, b, c;
	int *p, *q, *r;
	void *fp;
	void set() { p = &a; }
	void other() { q = &b; }
	void look() { if (p == q) { c = c; } }
	void main() {
		fp = &set;
		(*fp)();
		if (p == q) { r = p; }
		look();
		other();
		q = p;
	}
`

// TestPassThroughNodes checks the predicate the sparse walk rests on.
// A node it calls pass-through is never charged, so it must return every
// token unchanged: for every V_P variable token and a null, an address
// and an unknown token, each under the true and a non-true condition,
// transfer yields exactly that (token, condition) and never asks for a
// summary. Conversely, a relevant node outside St_P other than an entry
// (an assume or a call) must change some V_P token, or the walk charges
// it for nothing. Covers: every cluster of sock and autofs @0.1 as lowered
// (indirect calls unresolved), driver.cpl devirtualized at threshold 2,
// and the guarded and unresolved-call programs, whole and at threshold 2.
func TestPassThroughNodes(t *testing.T) {
	type cover struct {
		name     string
		prog     *ir.Program
		sa       *steens.Analysis
		cg       *callgraph.Graph
		clusters []*cluster.Cluster
	}
	build := func(name, src string, devirt bool, whole bool, threshold int) cover {
		prog, err := frontend.LowerSource(src)
		if err != nil {
			t.Fatal(err)
		}
		sa := steens.Analyze(prog)
		if devirt && frontend.HasIndirectCalls(prog) {
			if err := frontend.Devirtualize(prog, func(_ ir.Loc, fp ir.VarID) []ir.FuncID { return sa.Targets(fp) }); err != nil {
				t.Fatal(err)
			}
			sa = steens.Analyze(prog)
		}
		cs := cluster.BuildAndersen(prog, sa, threshold)
		if whole {
			cs = append(cs, cluster.BuildWhole(prog, sa))
		}
		return cover{name: name, prog: prog, sa: sa, cg: callgraph.Build(prog), clusters: cs}
	}
	covers := []cover{
		build("sock@0.1", synthSource("sock", 0.1)(t), false, false, cluster.DefaultAndersenThreshold),
		build("autofs@0.1", synthSource("autofs", 0.1)(t), false, false, cluster.DefaultAndersenThreshold),
		build("driver", driverSource(t), true, false, 2),
		build("guarded", poolLargeSrc, true, true, 2),
		build("unresolved", unresolvedCallSrc, false, true, 2),
	}

	var passed, unresolved, assumes, calls int
	for _, cv := range covers {
		for _, c := range cv.clusters {
			e := NewEngine(cv.prog, cv.cg, cv.sa, c)
			held := e.hold()
			vp := make([]Token, len(c.Vars))
			for i, v := range c.Vars {
				vp[i] = VarTok(v)
			}
			toks := append(slices.Clone(vp), NullTok(), AddrTok(c.Vars[0]), UnknownTok())
			conds := []CondID{TrueCondID, e.tab.with(TrueCondID, Atom{Loc: 0, Op: OpPointsTo, X: c.Vars[0], Y: c.Vars[0]})}
			asked := false
			lookup := func(int32) []tup {
				asked = true
				return []tup{{tok: UnknownTok(), cond: TrueCondID}}
			}
			// unchanged reports whether n passes (tok, cond) through
			// without asking for a summary.
			unchanged := func(n *ir.Node, tok Token, cond CondID) bool {
				asked = false
				got := e.transfer(nil, n, tok, cond, lookup)
				return !asked && len(got) == 1 && got[0] == tup{tok: tok, cond: cond}
			}
			for _, f := range cv.prog.Funcs {
				v := e.view(f.ID)
				for k, loc := range f.Nodes {
					n := cv.prog.Nodes[loc]
					if !e.relevantAt(v, int32(k)) {
						for _, tok := range toks {
							for _, cond := range conds {
								if !unchanged(n, tok, cond) {
									t.Fatalf("%s cluster %d: pass-through L%d (%s) changes %v under condition %d",
										cv.name, c.ID, loc, n.Stmt.Op, tok, cond)
								}
							}
						}
						passed++
						continue
					}
					if loc == f.Entry || c.HasStmt(loc) {
						continue
					}
					if !slices.ContainsFunc(vp, func(tok Token) bool { return !unchanged(n, tok, TrueCondID) }) {
						t.Fatalf("%s cluster %d: relevant L%d (%s) outside St_P changes no V_P token",
							cv.name, c.ID, loc, n.Stmt.Op)
					}
					switch {
					case n.Stmt.Op == ir.OpCall && n.Stmt.Callee == ir.NoFunc:
						unresolved++
					case n.Stmt.Op == ir.OpCall:
						calls++
					default:
						assumes++
					}
				}
			}
			e.release(held)
		}
	}
	t.Logf("%d pass-through nodes; relevant outside St_P: %d unresolved calls, %d modifying calls, %d assumes",
		passed, unresolved, calls, assumes)
	if passed == 0 || unresolved == 0 || calls == 0 || assumes == 0 {
		t.Fatal("a node class the predicate decides on was never exercised")
	}
}

// TestCallStateReleased: a public call returns its call state to the
// pool when it ends, so a solved engine keeps only its results: after
// Run, after a query that walks, and after a Run a panicking hook cut
// short.
func TestCallStateReleased(t *testing.T) {
	h := newHarness(t, poolLargeSrc)
	e := h.engineFor(t)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.call != nil {
		t.Fatal("solved engine still holds its call state after Run")
	}
	main := h.prog.Func(h.prog.FuncByName["main"])
	e.Values(e.cl.Pointers[0], main.Exit)
	if e.call != nil {
		t.Fatal("engine still holds a call state after Values")
	}

	p := h.engineFor(t, WithHook(func(n int64) error {
		if n == 3 {
			panic("injected")
		}
		return nil
	}))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the hook never panicked")
			}
		}()
		_ = p.Run()
	}()
	if p.call != nil {
		t.Fatal("engine still holds its call state after Run panicked")
	}
}
