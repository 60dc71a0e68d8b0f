package fscs

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"bootstrap/internal/ir"
)

// TestScratchOutgrowsPool: walk scratch is pooled across every engine in
// the process, so a scratch an engine on a small program returned must
// not be handed to a walk over a program with more nodes. The larger
// program's walks get scratch covering all of its locations and answer
// exactly as a freshly built engine does.
func TestScratchOutgrowsPool(t *testing.T) {
	small, large := newHarness(t, poolSmallSrc), newHarness(t, poolLargeSrc)
	if len(small.prog.Nodes) >= len(large.prog.Nodes) {
		t.Fatalf("small program has %d nodes, large %d: want fewer", len(small.prog.Nodes), len(large.prog.Nodes))
	}
	// fillPool returns several small-program scratches to the pool, so
	// the next checkout almost surely finds one (the race detector drops
	// some pooled values at random).
	fillPool := func() {
		e := small.engineFor(t)
		var held []*walkScratch
		for i := 0; i < 4; i++ {
			held = append(held, e.getScratch())
		}
		for _, s := range held {
			putScratch(s)
		}
	}

	fillPool()
	pooled := large.engineFor(t)
	s := pooled.getScratch()
	if len(s.slots) < len(large.prog.Nodes) {
		t.Fatalf("scratch has %d slots for a %d-node program", len(s.slots), len(large.prog.Nodes))
	}
	putScratch(s)

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
		if !s.insert(ir.Loc(loc), p.tok, p.cond) {
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
	exit, preds := main.Exit, h.prog.Node(main.Exit).Preds
	var buf []tup
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range e.cl.Pointers {
			buf = e.walkBack(main.ID, VarTok(p), preds, e.summaryLookup, buf[:0])
			e.PointsToAt(p, exit)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocations per round of %d walks and PointsToAt calls, want 0", allocs, len(e.cl.Pointers))
	}
}
