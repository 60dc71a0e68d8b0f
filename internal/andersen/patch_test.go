package andersen

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"bootstrap/internal/bitset"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/synth"
)

// dependents maps each variable to the variables whose sets a
// constraint of p derives from it, with loads and stores resolved by
// a, p's fixpoint: y feeds x for x = y and x = *y, every pointee of y
// feeds x for x = *y, and y and z feed every pointee of y for *y = z.
func dependents(p *ir.Program, a *Analysis) map[ir.VarID][]ir.VarID {
	deps := map[ir.VarID][]ir.VarID{}
	for _, n := range p.Nodes {
		st := n.Stmt
		switch st.Op {
		case ir.OpCopy:
			deps[st.Src] = append(deps[st.Src], st.Dst)
		case ir.OpLoad:
			deps[st.Src] = append(deps[st.Src], st.Dst)
			for _, o := range a.PointsTo(st.Src) {
				deps[o] = append(deps[o], st.Dst)
			}
		case ir.OpStore:
			for _, o := range a.PointsTo(st.Dst) {
				deps[st.Dst] = append(deps[st.Dst], o)
				deps[st.Src] = append(deps[st.Src], o)
			}
		}
	}
	return deps
}

// closedCone is the smallest cone Patch accepts for the edit that took
// oldProg (solved by oldA) to newProg (solved by newA): what the changed
// statements write in their own program, closed under both programs'
// dependents. It needs no Steensgaard analysis, so it checks Patch's
// contract independently of the cone core derives.
func closedCone(oldProg, newProg *ir.Program, oldA, newA *Analysis, changes []ir.StmtChange) []ir.VarID {
	in := make([]bool, newProg.NumVars())
	var cone, work []ir.VarID
	add := func(v ir.VarID) {
		if !in[v] {
			in[v] = true
			cone = append(cone, v)
			work = append(work, v)
		}
	}
	writes := func(a *Analysis, st ir.Stmt) {
		switch st.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad:
			add(st.Dst)
		case ir.OpStore:
			for _, o := range a.PointsTo(st.Dst) {
				add(o)
			}
		}
	}
	for _, ch := range changes {
		if int(ch.Old.Dst) < oldProg.NumVars() {
			writes(oldA, ch.Old)
		}
		writes(newA, ch.New)
	}
	gens := []map[ir.VarID][]ir.VarID{dependents(oldProg, oldA), dependents(newProg, newA)}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, deps := range gens {
			for _, w := range deps[v] {
				add(w)
			}
		}
	}
	return cone
}

// randomPatchEdits draws one batch of statement changes on p: up to two
// added variables, then one to four deletions, replacements or
// insertions of random copy, address-of, load and store statements over
// every variable, the added ones included.
func randomPatchEdits(p *ir.Program, rng *rand.Rand, batch int) []ir.Edit {
	var edits []ir.Edit
	nv := p.NumVars()
	for i := rng.Intn(3); i > 0; i-- {
		edits = append(edits, ir.Edit{Kind: ir.EditAddVar, Name: fmt.Sprintf("added%d_%d", batch, i), Var: ir.KindGlobal, Fn: ir.NoFunc})
		nv++
	}
	var eligible []ir.Loc
	for _, n := range p.Nodes {
		switch n.Stmt.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpStore:
			if n.CallLoc == ir.NoLoc {
				eligible = append(eligible, n.Loc)
			}
		}
	}
	ops := []ir.Op{ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpStore}
	stmt := func() ir.Stmt {
		return ir.Stmt{Op: ops[rng.Intn(len(ops))], Dst: ir.VarID(rng.Intn(nv)), Src: ir.VarID(rng.Intn(nv)),
			Callee: ir.NoFunc, FPtr: ir.NoVar}
	}
	for k := 1 + rng.Intn(4); k > 0 && len(eligible) > 0; k-- {
		loc := eligible[rng.Intn(len(eligible))]
		switch rng.Intn(3) {
		case 0:
			edits = append(edits, ir.Edit{Kind: ir.EditDeleteStmt, Loc: loc})
		case 1:
			edits = append(edits, ir.Edit{Kind: ir.EditReplaceStmt, Loc: loc, Stmt: stmt()})
		default:
			edits = append(edits, ir.Edit{Kind: ir.EditInsertAfter, Loc: loc, Stmt: stmt()})
		}
	}
	return edits
}

func diffAnalyses(t *testing.T, tag string, p *ir.Program, got, want *Analysis) {
	t.Helper()
	for v := 0; v < p.NumVars(); v++ {
		if g, w := got.PointsToSet(ir.VarID(v)), want.PointsToSet(ir.VarID(v)); !g.Equal(w) {
			t.Fatalf("%s: pts(%s) = %v, fresh Analyze %v", tag, p.VarName(ir.VarID(v)),
				got.PointsTo(ir.VarID(v)), want.PointsTo(ir.VarID(v)))
		}
	}
}

// TestPatchMatchesAnalyzeRandom chains random edit batches on random
// programs, patching each generation's analysis from the previous
// patched one, and asserts every variable's set equals a fresh Analyze
// of the edited program and the previous generation's sets are left
// as they were.
func TestPatchMatchesAnalyzeRandom(t *testing.T) {
	cfg := synth.DefaultRandomConfig()
	cfg.Funcs = 3
	cfg.Recursion = true
	seeds := int64(40)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := synth.RandomSource(rng, cfg)
		p, err := frontend.LowerSource(src)
		if err != nil {
			t.Fatal(err)
		}
		a := Analyze(p)
		for batch := 0; batch < 4; batch++ {
			tag := fmt.Sprintf("seed %d batch %d", seed, batch)
			p2 := p.Clone()
			sum, err := ir.ApplyEdits(p2, randomPatchEdits(p, rng, batch))
			if err != nil {
				t.Fatalf("%s: edits: %v", tag, err)
			}
			fresh := Analyze(p2)
			cone := closedCone(p, p2, a, fresh, sum.Changes)
			before := make([]*bitset.Set, p.NumVars())
			for v := range before {
				before[v] = a.PointsToSet(ir.VarID(v)).Clone()
			}
			got, err := Patch(a, p2, cone)
			if err != nil {
				t.Fatalf("%s: Patch over a closed cone of %d variables: %v\nprogram:\n%s", tag, len(cone), err, src)
			}
			diffAnalyses(t, tag, p2, got, fresh)
			for v, set := range before {
				if !a.PointsToSet(ir.VarID(v)).Equal(set) {
					t.Fatalf("%s: Patch wrote the previous analysis' pts(%s)", tag, p.VarName(ir.VarID(v)))
				}
			}
			if n := got.SolverStats().Passes; n > fresh.SolverStats().Passes+int64(p2.NumVars()) {
				t.Errorf("%s: patch took %d passes, a fresh solve %d", tag, n, fresh.SolverStats().Passes)
			}
			p, a = p2, got
		}
	}
}

// TestPatchEmptyCone: a batch that changes no constraint (an added
// variable and a touched nullify) re-solves nothing, shares every old
// set, and gives the added variable an empty one.
func TestPatchEmptyCone(t *testing.T) {
	p, a := analyze(t, `
		int a;
		int *x, *y;
		void main() {
			x = &a;
			y = x;
		}
	`)
	p2 := p.Clone()
	if _, err := ir.ApplyEdits(p2, []ir.Edit{{Kind: ir.EditAddVar, Name: "z", Var: ir.KindGlobal, Fn: ir.NoFunc}}); err != nil {
		t.Fatal(err)
	}
	got, err := Patch(a, p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := got.SolverStats().Passes; n != 0 {
		t.Errorf("empty cone took %d passes", n)
	}
	for _, name := range []string{"x", "y"} {
		if got.PointsToSet(v(t, p2, name)) != a.PointsToSet(v(t, p, name)) {
			t.Errorf("pts(%s) not shared with the previous analysis", name)
		}
	}
	if pts := got.PointsTo(v(t, p2, "z")); len(pts) != 0 {
		t.Errorf("pts(z) = %v, want empty", pts)
	}
	diffAnalyses(t, "empty cone", p2, got, Analyze(p2))
}

// TestPatchConeLeak: a cone that leaves out a variable a changed set
// flows into is rejected with ErrConeLeak, and the shared set stays
// untouched.
func TestPatchConeLeak(t *testing.T) {
	p, a := analyze(t, `
		int a, b;
		int *x, *y;
		void main() {
			x = &a;
			y = x;
			x = &a;
		}
	`)
	x, y, b := v(t, p, "x"), v(t, p, "y"), v(t, p, "b")
	var last ir.Loc
	for _, n := range p.Nodes {
		if n.Stmt.Op == ir.OpAddr {
			last = n.Loc
		}
	}
	p2 := p.Clone()
	edit := ir.Edit{Kind: ir.EditReplaceStmt, Loc: last,
		Stmt: ir.Stmt{Op: ir.OpAddr, Dst: x, Src: b, Callee: ir.NoFunc, FPtr: ir.NoVar}}
	if _, err := ir.ApplyEdits(p2, []ir.Edit{edit}); err != nil {
		t.Fatal(err)
	}
	before := a.PointsTo(y)
	if _, err := Patch(a, p2, []ir.VarID{x}); !errors.Is(err, ErrConeLeak) {
		t.Fatalf("cone {x} without y: err = %v, want ErrConeLeak", err)
	}
	if after := a.PointsTo(y); len(after) != len(before) {
		t.Fatalf("leak check wrote the shared set: pts(y) %v -> %v", before, after)
	}
	got, err := Patch(a, p2, []ir.VarID{x, y})
	if err != nil {
		t.Fatal(err)
	}
	diffAnalyses(t, "closed cone", p2, got, Analyze(p2))
}

// TestDeferredSolvesOnFirstRead: a Deferred analysis does no work until
// it is read, its concurrent first readers share one solve, and it then
// equals Analyze. Patch from one never read solves it first, and equals
// a fresh Analyze of the edited program.
func TestDeferredSolvesOnFirstRead(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p, err := frontend.LowerSource(synth.RandomSource(rng, synth.DefaultRandomConfig()))
	if err != nil {
		t.Fatal(err)
	}
	var solves atomic.Int32
	observe := func(solve func() SolverStats) {
		solves.Add(1)
		solve()
	}
	d := Deferred(p, observe)
	if d.Solved() || solves.Load() != 0 {
		t.Fatal("Deferred solved before its first read")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.PointsToSet(0)
		}()
	}
	wg.Wait()
	want := Analyze(p)
	if !d.Solved() || solves.Load() != 1 || d.SolverStats() != want.SolverStats() {
		t.Fatalf("8 concurrent reads: solved %v, %d solves, stats %+v, Analyze %+v",
			d.Solved(), solves.Load(), d.SolverStats(), want.SolverStats())
	}
	diffAnalyses(t, "deferred", p, d, want)

	p2 := p.Clone()
	sum, err := ir.ApplyEdits(p2, randomPatchEdits(p, rng, 0))
	if err != nil {
		t.Fatal(err)
	}
	fresh := Analyze(p2)
	got, err := Patch(Deferred(p, observe), p2, closedCone(p, p2, want, fresh, sum.Changes))
	if err != nil {
		t.Fatal(err)
	}
	if solves.Load() != 2 {
		t.Errorf("Patch from an unread analysis ran %d solves in all, want it to solve that one first", solves.Load())
	}
	diffAnalyses(t, "patch from unread", p2, got, fresh)
}
