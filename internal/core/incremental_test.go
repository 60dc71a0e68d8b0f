package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bootstrap/internal/cache"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/synth"
)

// incrProg lowers a mid-sized synthetic workload: rich enough to produce
// a multi-cluster cover with calls, small enough for the knob matrix.
func incrProg(t testing.TB) *ir.Program {
	t.Helper()
	b, ok := synth.FindBenchmark("sock")
	if !ok {
		t.Fatal("no sock benchmark")
	}
	p, err := frontend.LowerSource(synth.Generate(b, 0.05))
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

// randomStmtEdits picks n single-statement replace/delete edits on
// plain (non-call-bound) copy/addr/load nodes, deterministically from
// rng. Replacements swap Src with the source of another eligible node,
// so operands stay valid without any type bookkeeping.
func randomStmtEdits(p *ir.Program, rng *rand.Rand, n int) []ir.Edit {
	var eligible []ir.Loc
	for _, node := range p.Nodes {
		switch node.Stmt.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad:
			if node.CallLoc == ir.NoLoc {
				eligible = append(eligible, node.Loc)
			}
		}
	}
	if len(eligible) < 2 {
		return nil
	}
	var edits []ir.Edit
	for len(edits) < n {
		loc := eligible[rng.Intn(len(eligible))]
		if rng.Intn(5) == 0 {
			edits = append(edits, ir.Edit{Kind: ir.EditDeleteStmt, Loc: loc})
			continue
		}
		donor := eligible[rng.Intn(len(eligible))]
		st := p.Node(loc).Stmt
		st.Src = p.Node(donor).Stmt.Src
		st.Comment = ""
		edits = append(edits, ir.Edit{Kind: ir.EditReplaceStmt, Loc: loc, Stmt: st})
	}
	return edits
}

// sampleQueries compares PointsTo and MayAlias answers between two
// analyses of the same program at every function exit, over a bounded
// deterministic sample of covered pointers.
func sampleQueries(t *testing.T, tag string, got, want *core.Analysis) {
	t.Helper()
	prog := want.Prog
	ptrs := want.CoveredPointers()
	if len(ptrs) > 40 {
		ptrs = ptrs[:40]
	}
	var locs []ir.Loc
	for _, f := range prog.Funcs {
		locs = append(locs, f.Exit)
	}
	if len(locs) > 8 {
		locs = locs[:8]
	}
	for _, v := range ptrs {
		for _, loc := range locs {
			wp, wprec := want.PointsTo(v, loc)
			gp, gprec := got.PointsTo(v, loc)
			sort.Slice(wp, func(i, j int) bool { return wp[i] < wp[j] })
			sort.Slice(gp, func(i, j int) bool { return gp[i] < gp[j] })
			if wprec != gprec || !reflect.DeepEqual(wp, gp) {
				t.Fatalf("%s: PointsTo(%s, L%d) = %v/%v, fresh %v/%v",
					tag, prog.Var(v).Name, loc, gp, gprec, wp, wprec)
			}
		}
	}
	for i := 0; i+1 < len(ptrs) && i < 20; i += 2 {
		p, q := ptrs[i], ptrs[i+1]
		for _, loc := range locs {
			if got.MayAlias(p, q, loc) != want.MayAlias(p, q, loc) {
				t.Fatalf("%s: MayAlias(%s, %s, L%d) diverged", tag,
					prog.Var(p).Name, prog.Var(q).Name, loc)
			}
		}
	}
}

func diffFingerprints(t *testing.T, tag string, got, want map[int]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d selected clusters incrementally, %d fresh", tag, len(got), len(want))
	}
	for id, fp := range want {
		if got[id] != fp {
			t.Fatalf("%s: cluster %d fingerprint %s != fresh %s", tag, id, got[id], fp)
		}
	}
}

// TestApplyEditMatchesFreshMatrix is the differential gate: a chain of
// random edit batches, applied incrementally, must leave the analysis
// bit-identical — cluster fingerprints and query answers — to a
// from-scratch analysis of the edited program, across the knob matrix.
func TestApplyEditMatchesFreshMatrix(t *testing.T) {
	matrix := []struct {
		name string
		cfg  core.Config
	}{
		{"default", core.Config{Mode: core.ModeAndersen}},
		{"workers1", core.Config{Mode: core.ModeAndersen, Workers: 1}},
		{"workers8", core.Config{Mode: core.ModeAndersen, Workers: 8}},
		{"steens-precise", core.Config{Mode: core.ModeAndersen, SteensPrecise: true}},
		{"warm-cache", core.Config{Mode: core.ModeAndersen, Cache: cache.New(cache.Options{})}},
	}
	for _, m := range matrix {
		t.Run(m.name, func(t *testing.T) {
			prog := incrProg(t)
			a, err := core.AnalyzeProgram(prog, m.cfg)
			if err != nil {
				t.Fatalf("initial analyze: %v", err)
			}
			rng := rand.New(rand.NewSource(7))
			for batch := 0; batch < 3; batch++ {
				tag := fmt.Sprintf("batch%d", batch)
				edits := randomStmtEdits(a.Prog, rng, 5)
				if len(edits) == 0 {
					t.Fatal("no eligible edits")
				}
				a2, rep, err := core.ApplyEdit(a, edits)
				if err != nil {
					t.Fatalf("%s: ApplyEdit: %v", tag, err)
				}
				if rep.FellBack {
					t.Fatalf("%s: unexpected fallback: %s", tag, rep.Reason)
				}
				if rep.Dirty == 0 {
					t.Fatalf("%s: edits dirtied nothing", tag)
				}
				if rep.Reused+rep.Dirty != rep.Clusters {
					t.Fatalf("%s: reused %d + dirty %d != clusters %d",
						tag, rep.Reused, rep.Dirty, rep.Clusters)
				}
				// Fresh run over an independent clone of the edited
				// program, same knobs, cold cache.
				fcfg := m.cfg
				fcfg.Cache = nil
				fresh, err := core.AnalyzeProgram(a2.Prog.Clone(), fcfg)
				if err != nil {
					t.Fatalf("%s: fresh analyze: %v", tag, err)
				}
				diffFingerprints(t, tag, a2.Fingerprints(), fresh.Fingerprints())
				sampleQueries(t, tag, a2, fresh)
				// Old snapshot must keep answering while the new one is
				// live (shared engine lock, transplanted engines).
				if ptrs := a.CoveredPointers(); len(ptrs) > 0 {
					f := a.Prog.Funcs[0]
					a.PointsTo(ptrs[0], f.Exit)
				}
				a = a2
			}
		})
	}
}

// TestApplyEditKeepsDemotedIndexed: a cluster the ladder demotes stays
// in the pointer index after an edit, as it does in a fresh analysis, so
// queries on its pointers still find it and report the fallback answer
// as imprecise.
func TestApplyEditKeepsDemotedIndexed(t *testing.T) {
	// A one-tuple budget without retries demotes every cluster.
	cfg := core.Config{Mode: core.ModeAndersen, Workers: 1, ClusterBudget: 1, Retries: -1}
	a, err := core.AnalyzeProgram(incrProg(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range a.Health {
		if !h.Demoted {
			t.Fatalf("cluster %d not demoted: %+v", h.ClusterID, h)
		}
	}
	a2, rep, err := core.ApplyEdit(a, randomStmtEdits(a.Prog, rand.New(rand.NewSource(7)), 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FellBack || rep.Resolved == 0 {
		t.Fatalf("want an incremental edit that re-solves clusters: %+v", rep)
	}
	fresh, err := core.AnalyzeProgram(a2.Prog.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ptrs := fresh.CoveredPointers()
	if len(ptrs) == 0 {
		t.Fatal("fresh analysis covers no pointer")
	}
	if got := a2.CoveredPointers(); !reflect.DeepEqual(got, ptrs) {
		t.Errorf("edited analysis covers %d pointers, fresh %d", len(got), len(ptrs))
	}
	for _, p := range ptrs {
		if got, want := a2.ClustersOf(p), fresh.ClustersOf(p); !reflect.DeepEqual(got, want) {
			t.Errorf("ClustersOf(%s) = %v, fresh %v", fresh.Prog.Var(p).Name, got, want)
		}
	}
	ctx := context.Background()
	exit := fresh.Prog.Func(fresh.Prog.Entry).Exit
	for i, p := range ptrs {
		for _, q := range ptrs[i+1:] {
			gm, gp := a2.MayAliasContext(ctx, p, q, exit)
			wm, wp := fresh.MayAliasContext(ctx, p, q, exit)
			if gm != wm || gp != wp {
				t.Errorf("MayAliasContext(%d, %d) = %v/%v, fresh %v/%v", p, q, gm, gp, wm, wp)
			}
			gm, gp = a2.MustAliasContext(ctx, p, q, exit)
			wm, wp = fresh.MustAliasContext(ctx, p, q, exit)
			if gm != wm || gp != wp {
				t.Errorf("MustAliasContext(%d, %d) = %v/%v, fresh %v/%v", p, q, gm, gp, wm, wp)
			}
		}
	}
}

// TestApplyEditStructuralFallback: edits ApplyEdit cannot map onto the
// cluster cover degrade to a full Reanalyze with FellBack reported —
// the documented Reanalyze contract.
func TestApplyEditStructuralFallback(t *testing.T) {
	prog := incrProg(t)
	cfg := core.Config{Mode: core.ModeAndersen, Workers: 2}
	a, err := core.AnalyzeProgram(prog, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	g := a.Prog.Vars[0].ID
	edits := []ir.Edit{{
		Kind: ir.EditAddFunc,
		Spec: &ir.FuncSpec{
			Name:     "injected",
			Stmts:    []ir.Stmt{{Op: ir.OpNullify, Dst: g, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar}},
			Succs:    [][]int{{}},
			CallLocs: []int{-1},
			Entry:    0,
			Exit:     0,
		},
	}}
	a2, rep, err := core.ApplyEdit(a, edits)
	if err != nil {
		t.Fatalf("ApplyEdit: %v", err)
	}
	if !rep.FellBack || rep.Reason == "" {
		t.Fatalf("adding a function must fall back, got %+v", rep)
	}
	fresh, err := core.AnalyzeProgram(a2.Prog.Clone(), core.Config{Mode: core.ModeAndersen, Workers: 2})
	if err != nil {
		t.Fatalf("fresh: %v", err)
	}
	diffFingerprints(t, "fallback", a2.Fingerprints(), fresh.Fingerprints())
	if _, ok := a2.Prog.FuncByName["injected"]; !ok {
		t.Fatal("edit not applied")
	}
}

// TestApplyEditLazy: lazy analyses stay lazy across edits — no eager
// re-solving when no engine was ever materialized — and still answer
// identically to a fresh lazy analysis.
func TestApplyEditLazy(t *testing.T) {
	prog := incrProg(t)
	cfg := core.Config{Mode: core.ModeAndersen, Lazy: true, Workers: 1}
	a, err := core.AnalyzeProgram(prog, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	edits := randomStmtEdits(a.Prog, rng, 4)
	a2, rep, err := core.ApplyEdit(a, edits)
	if err != nil {
		t.Fatalf("ApplyEdit: %v", err)
	}
	if rep.FellBack {
		t.Fatalf("unexpected fallback: %s", rep.Reason)
	}
	if rep.Resolved != 0 {
		t.Fatalf("cold lazy analysis eagerly resolved %d clusters", rep.Resolved)
	}
	fresh, err := core.AnalyzeProgram(a2.Prog.Clone(), cfg)
	if err != nil {
		t.Fatalf("fresh: %v", err)
	}
	sampleQueries(t, "lazy", a2, fresh)

	// Warm a lazy analysis through queries, then edit: dirty clusters
	// with warmed siblings re-solve eagerly so answers stay fresh.
	for _, v := range a2.CoveredPointers() {
		a2.PointsTo(v, a2.Prog.Funcs[0].Exit)
	}
	edits = randomStmtEdits(a2.Prog, rng, 4)
	a3, rep, err := core.ApplyEdit(a2, edits)
	if err != nil {
		t.Fatalf("ApplyEdit warm: %v", err)
	}
	if rep.FellBack {
		t.Fatalf("unexpected warm fallback: %s", rep.Reason)
	}
	fresh, err = core.AnalyzeProgram(a3.Prog.Clone(), cfg)
	if err != nil {
		t.Fatalf("fresh warm: %v", err)
	}
	sampleQueries(t, "lazy-warm", a3, fresh)
}

// TestApplyEditBadBatch: malformed edits error out without touching the
// previous analysis.
func TestApplyEditBadBatch(t *testing.T) {
	prog := incrProg(t)
	a, err := core.AnalyzeProgram(prog, core.Config{Mode: core.ModeAndersen, Workers: 1})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	before := len(a.Prog.Nodes)
	if _, _, err := core.ApplyEdit(a, []ir.Edit{{Kind: ir.EditReplaceStmt, Loc: ir.Loc(1 << 30)}}); err == nil {
		t.Fatal("bad edit accepted")
	}
	if len(a.Prog.Nodes) != before {
		t.Fatal("failed batch mutated the previous program")
	}
}

const fuzzEditProg = `
	int a, b, c, d;
	int *x, *y, *p, *q;
	int **pp, **qq;
	void leaf() {
		q = &d;
		qq = &q;
	}
	void main() {
		x = &a;
		y = &b;
		p = &c;
		pp = &x;
		*pp = y;
		x = *qq;
		leaf();
		x = y;
	}
`

// FuzzApplyEdit feeds byte-derived edit sequences through ApplyEdit and
// asserts bit-identity with a from-scratch analysis after every batch:
// same selected-cluster fingerprints, same answers.
func FuzzApplyEdit(f *testing.F) {
	f.Add([]byte{0x01, 0x02})
	f.Add([]byte{0xff, 0x10, 0x20, 0x30})
	f.Add([]byte{7, 7, 7, 7, 7, 7})
	base, err := frontend.LowerSource(fuzzEditProg)
	if err != nil {
		f.Fatalf("lower: %v", err)
	}
	cfg := core.Config{Mode: core.ModeAndersen, Workers: 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 64 {
			t.Skip()
		}
		a, err := core.AnalyzeProgram(base.Clone(), cfg)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		var eligible []ir.Loc
		for _, n := range a.Prog.Nodes {
			switch n.Stmt.Op {
			case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpStore:
				if n.CallLoc == ir.NoLoc {
					eligible = append(eligible, n.Loc)
				}
			}
		}
		if len(eligible) == 0 {
			t.Skip()
		}
		var edits []ir.Edit
		for i := 0; i+1 < len(data); i += 2 {
			loc := eligible[int(data[i])%len(eligible)]
			st := a.Prog.Node(loc).Stmt
			switch data[i+1] % 4 {
			case 0:
				edits = append(edits, ir.Edit{Kind: ir.EditDeleteStmt, Loc: loc})
			case 1:
				st.Src = ir.VarID(int(data[i+1]/4) % len(a.Prog.Vars))
				edits = append(edits, ir.Edit{Kind: ir.EditReplaceStmt, Loc: loc, Stmt: st})
			case 2:
				st.Dst = ir.VarID(int(data[i+1]/4) % len(a.Prog.Vars))
				edits = append(edits, ir.Edit{Kind: ir.EditReplaceStmt, Loc: loc, Stmt: st})
			case 3:
				ins := ir.Stmt{Op: ir.OpNullify, Dst: st.Dst, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar}
				edits = append(edits, ir.Edit{Kind: ir.EditInsertAfter, Loc: loc, Stmt: ins})
			}
		}
		a2, rep, err := core.ApplyEdit(a, edits)
		if err != nil {
			t.Skip() // malformed batch; rejection is the contract
		}
		fresh, err := core.AnalyzeProgram(a2.Prog.Clone(), cfg)
		if err != nil {
			t.Fatalf("fresh analyze: %v", err)
		}
		gf, wf := a2.Fingerprints(), fresh.Fingerprints()
		if len(gf) != len(wf) {
			t.Fatalf("selected %d clusters incrementally, %d fresh (fellback=%v)", len(gf), len(wf), rep.FellBack)
		}
		for id, fp := range wf {
			if gf[id] != fp {
				t.Fatalf("cluster %d fingerprint mismatch (fellback=%v)", id, rep.FellBack)
			}
		}
		for _, v := range fresh.CoveredPointers() {
			for _, fn := range fresh.Prog.Funcs {
				wp, wprec := fresh.PointsTo(v, fn.Exit)
				gp, gprec := a2.PointsTo(v, fn.Exit)
				sort.Slice(wp, func(i, j int) bool { return wp[i] < wp[j] })
				sort.Slice(gp, func(i, j int) bool { return gp[i] < gp[j] })
				if wprec != gprec || !reflect.DeepEqual(wp, gp) {
					t.Fatalf("PointsTo(%d, L%d) = %v/%v, fresh %v/%v",
						v, fn.Exit, gp, gprec, wp, wprec)
				}
			}
		}
	})
}
