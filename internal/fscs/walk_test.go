package fscs

import (
	"fmt"
	"sync"
	"testing"
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
	if len(s.stamp) < len(large.prog.Nodes) || len(s.bkt) < len(large.prog.Nodes) {
		t.Fatalf("scratch has %d stamps and %d buckets for a %d-node program",
			len(s.stamp), len(s.bkt), len(large.prog.Nodes))
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
