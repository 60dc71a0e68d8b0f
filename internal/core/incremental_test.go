package core_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"bootstrap/internal/cache"
	"bootstrap/internal/cluster"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/synth"
)

// incrProg lowers a mid-sized synthetic workload: rich enough to produce
// a multi-cluster cover with calls, small enough for the knob matrix.
func incrProg(t testing.TB) *ir.Program {
	t.Helper()
	return lowerRow(t, "sock", 0.05)
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
	ctx := context.Background()
	for _, v := range ptrs {
		for _, loc := range locs {
			wp, wprec := want.PointsToContext(ctx, v, loc)
			gp, gprec := got.PointsToContext(ctx, v, loc)
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
			gm, gprec := got.MayAliasContext(ctx, p, q, loc)
			wm, wprec := want.MayAliasContext(ctx, p, q, loc)
			if gm != wm || gprec != wprec {
				t.Fatalf("%s: MayAlias(%s, %s, L%d) = %v/%v, fresh %v/%v", tag,
					prog.Var(p).Name, prog.Var(q).Name, loc, gm, gprec, wm, wprec)
			}
		}
	}
}

// diffAndersen compares every variable's flow-insensitive Andersen set
// between two analyses of the same program: ApplyEdit patches the
// previous analysis' sets, and a wrong patch would otherwise show only
// through imprecise fallback answers.
func diffAndersen(t *testing.T, tag string, got, want *core.Analysis) {
	t.Helper()
	for v := range want.Prog.Vars {
		id := ir.VarID(v)
		if g, w := got.Andersen.PointsToSet(id), want.Andersen.PointsToSet(id); !g.Equal(w) {
			t.Fatalf("%s: Andersen pts(%s) = %v, fresh %v", tag, want.Prog.Var(id).Name,
				got.Andersen.PointsTo(id), want.Andersen.PointsTo(id))
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

// progDigest hashes everything an edit can write in p: every node's
// statement (Args included), Succs, Preds and CallLoc, every
// function's Params and Nodes, and the three name maps, whose entries
// are summed so that map order does not count.
func progDigest(p *ir.Program) uint64 {
	h := fnv.New64a()
	var buf []byte
	num := func(x int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(x)) }
	str := func(s string) { num(int64(len(s))); buf = append(buf, s...) }
	locs := func(ls []ir.Loc) {
		num(int64(len(ls)))
		for _, l := range ls {
			num(int64(l))
		}
	}
	vars := func(vs []ir.VarID) {
		num(int64(len(vs)))
		for _, v := range vs {
			num(int64(v))
		}
	}
	flush := func() { h.Write(buf); buf = buf[:0] }
	for _, v := range p.Vars {
		num(int64(v.ID))
		str(v.Name)
		num(int64(v.Kind))
		num(int64(v.Fn))
		flush()
	}
	for _, n := range p.Nodes {
		st := n.Stmt
		num(int64(n.Loc))
		num(int64(n.Fn))
		num(int64(st.Op))
		num(int64(st.Dst))
		num(int64(st.Src))
		num(int64(st.Callee))
		num(int64(st.FPtr))
		vars(st.Args)
		str(st.Comment)
		if st.Free {
			num(1)
		} else {
			num(0)
		}
		locs(n.Succs)
		locs(n.Preds)
		num(int64(n.CallLoc))
		flush()
	}
	for _, f := range p.Funcs {
		num(int64(f.ID))
		str(f.Name)
		vars(f.Params)
		num(int64(f.Ret))
		num(int64(f.Entry))
		num(int64(f.Exit))
		locs(f.Nodes)
		flush()
	}
	entry := func(k string, v int64) uint64 {
		e := fnv.New64a()
		e.Write([]byte(k))
		e.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
		return e.Sum64()
	}
	var varNames, funcNames, funcValues uint64
	for k, v := range p.VarByName {
		varNames += entry(k, int64(v))
	}
	for k, v := range p.FuncByName {
		funcNames += entry(k, int64(v))
	}
	for k, v := range p.FuncValue {
		funcValues += entry(fmt.Sprint(k), int64(v))
	}
	num(int64(len(p.VarByName)))
	num(int64(varNames))
	num(int64(len(p.FuncByName)))
	num(int64(funcNames))
	num(int64(len(p.FuncValue)))
	num(int64(funcValues))
	num(int64(p.Entry))
	flush()
	return h.Sum64()
}

// applyEditKeepsPrev runs core.ApplyEdit and fails the test if the call
// wrote the previous analysis' program, which old-snapshot queries may
// still be reading: its digest must read the same before and after,
// whether the batch was applied, rejected or fell back.
func applyEditKeepsPrev(t *testing.T, tag string, prev *core.Analysis, edits []ir.Edit) (*core.Analysis, *core.EditReport, error) {
	t.Helper()
	before := progDigest(prev.Prog)
	a2, rep, err := core.ApplyEdit(context.Background(), prev, edits)
	if after := progDigest(prev.Prog); after != before {
		t.Fatalf("%s: ApplyEdit wrote the previous program (digest %x, then %x)", tag, before, after)
	}
	return a2, rep, err
}

// editArm applies edits to prev and checks the successor against a
// fresh analysis of the edited program: fingerprints, every variable's
// Andersen set and sampled answers. read says whether prev's fallback
// was read first: ApplyEdit must then patch it, and otherwise hand the
// successor a fallback still unsolved.
func editArm(t *testing.T, tag string, prev *core.Analysis, edits []ir.Edit, cfg core.Config, read bool) *core.Analysis {
	t.Helper()
	a2, rep, err := core.ApplyEdit(context.Background(), prev, edits)
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
	if a2.Andersen.Solved() != read {
		t.Fatalf("%s: successor fallback solved = %v, want %v (patched only when read first)",
			tag, a2.Andersen.Solved(), read)
	}
	// Fresh run over an independent clone of the edited program, same
	// knobs, cold cache.
	fcfg := cfg
	fcfg.Cache = nil
	fresh, err := core.AnalyzeProgram(a2.Prog.Clone(), fcfg)
	if err != nil {
		t.Fatalf("%s: fresh analyze: %v", tag, err)
	}
	diffFingerprints(t, tag, a2.Fingerprints(), fresh.Fingerprints())
	diffAndersen(t, tag, a2, fresh)
	sampleQueries(t, tag, a2, fresh)
	return a2
}

// TestApplyEditMatchesFreshMatrix is the differential gate: a chain of
// random edit batches, applied incrementally, must leave the analysis
// bit-identical — cluster fingerprints, query answers and every
// variable's Andersen set — to a from-scratch analysis of the edited
// program, across the knob matrix. Each row's first batch runs twice:
// from an analysis whose fallback was never read (the successor defers
// its solve) and from one read first (ApplyEdit patches it). Later
// batches patch, since the check before them read their fallback.
func TestApplyEditMatchesFreshMatrix(t *testing.T) {
	matrix := []struct {
		name string
		cfg  core.Config
	}{
		{"default", core.Config{Mode: core.ModeAndersen}},
		{"workers1", core.Config{Mode: core.ModeAndersen, Workers: 1}},
		{"workers8", core.Config{Mode: core.ModeAndersen, Workers: 8}},
		{"warm-cache", core.Config{Mode: core.ModeAndersen, Cache: cache.New(cache.Options{})}},
		// incrProg's largest partition (8) is under the default
		// threshold; 4 sends its oversized partitions through the
		// Andersen refinement and KindAndersen transplants.
		{"andersen-threshold", core.Config{Mode: core.ModeAndersen, AndersenThreshold: 4}},
		// A negative threshold selects the default, in ApplyEdit's cover
		// rebuild as in a fresh run.
		{"negative-threshold", core.Config{Mode: core.ModeAndersen, AndersenThreshold: -1}},
	}
	for _, m := range matrix {
		t.Run(m.name, func(t *testing.T) {
			analyze := func() *core.Analysis {
				a, err := core.AnalyzeProgram(incrProg(t), m.cfg)
				if err != nil {
					t.Fatalf("initial analyze: %v", err)
				}
				return a
			}
			a := analyze()
			if m.cfg.AndersenThreshold > 0 {
				refined := 0
				for _, c := range a.Clusters {
					if c.Kind == cluster.KindAndersen {
						refined++
					}
				}
				if refined == 0 {
					t.Fatalf("threshold %d: no KindAndersen cluster among %d", m.cfg.AndersenThreshold, len(a.Clusters))
				}
			}
			rng := rand.New(rand.NewSource(7))
			for batch := 0; batch < 3; batch++ {
				tag := fmt.Sprintf("batch%d", batch)
				edits := randomStmtEdits(a.Prog, rng, 5)
				if len(edits) == 0 {
					t.Fatal("no eligible edits")
				}
				if batch == 0 {
					editArm(t, tag+"-unread", analyze(), edits, m.cfg, false)
					a.Andersen.SolverStats() // the read
				}
				a2 := editArm(t, tag, a, edits, m.cfg, true)
				// Old snapshot must keep answering while the new one is
				// live (shared engine lock, transplanted engines).
				if ptrs := a.CoveredPointers(); len(ptrs) > 0 {
					f := a.Prog.Funcs[0]
					a.PointsToContext(context.Background(), ptrs[0], f.Exit)
				}
				a = a2
			}
		})
	}
}

// TestApplyEditStorm replays a storm of single-statement edits on four
// Table 1 workloads at scale 0.12, each seeded from its name. Every
// batch must map incrementally (no fallback) with every cluster either
// reused or dirty, every 8th edited program must match a fresh
// analysis, and edits must stay local: the mean fraction of clusters an
// edit dirties stays under a quarter (today sock 5.1%, autofs 1.4%,
// raid 6.9%, mt_daapd 1.2%).
func TestApplyEditStorm(t *testing.T) {
	const (
		batches       = 40
		identityEvery = 8
		maxDirtyFrac  = 0.25
	)
	cfg := core.Config{Mode: core.ModeAndersen, AndersenThreshold: 60}
	for _, name := range []string{"sock", "autofs", "raid", "mt_daapd"} {
		t.Run(name, func(t *testing.T) {
			b, ok := synth.FindBenchmark(name)
			if !ok {
				t.Fatalf("unknown benchmark %s", name)
			}
			prog, err := frontend.LowerSource(synth.Generate(b, 0.12))
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.AnalyzeProgram(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write([]byte(name))
			rng := rand.New(rand.NewSource(int64(h.Sum64())))
			var dirtyFrac float64
			for i := 1; i <= batches; i++ {
				tag := fmt.Sprintf("edit%d", i)
				edits := randomStmtEdits(a.Prog, rng, 1)
				if len(edits) == 0 {
					t.Fatalf("%s: no eligible statements left", tag)
				}
				a2, rep, err := core.ApplyEdit(context.Background(), a, edits)
				if err != nil {
					t.Fatalf("%s: ApplyEdit: %v", tag, err)
				}
				if rep.FellBack {
					t.Fatalf("%s: fell back to full reanalysis: %s", tag, rep.Reason)
				}
				if rep.Reused+rep.Dirty != rep.Clusters {
					t.Fatalf("%s: reused %d + dirty %d != clusters %d", tag, rep.Reused, rep.Dirty, rep.Clusters)
				}
				dirtyFrac += float64(rep.Dirty) / float64(rep.Clusters)
				a = a2
				if i%identityEvery == 0 {
					fresh, err := core.AnalyzeProgram(a.Prog.Clone(), cfg)
					if err != nil {
						t.Fatalf("%s: fresh analyze: %v", tag, err)
					}
					diffFingerprints(t, tag, a.Fingerprints(), fresh.Fingerprints())
					diffAndersen(t, tag, a, fresh)
				}
			}
			if mean := dirtyFrac / batches; mean >= maxDirtyFrac {
				t.Errorf("mean dirty fraction %.3f over %d edits, want under %.2f", mean, batches, maxDirtyFrac)
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
	a2, rep, err := core.ApplyEdit(context.Background(), a, randomStmtEdits(a.Prog, rand.New(rand.NewSource(7)), 5))
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
// cluster cover degrade to a full, cache-warm reanalysis with FellBack
// reported.
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
	a2, rep, err := core.ApplyEdit(context.Background(), a, edits)
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

// fptrProg stores two functions in one function pointer and calls
// through it; work's body calls nothing.
const fptrProg = `
	int a, b;
	int *p, *q;
	void *fp;
	void set(int *v) { p = v; }
	void other(int *v) { q = v; }
	void work() { p = &a; }
	void main() {
		fp = &set;
		fp = &other;
		work();
		(*fp)(q);
		q = &b;
	}
`

// TestApplyEditFallbackDevirtualizesClone: a rebuilt body that calls
// through a function pointer takes the structural fallback, whose
// reanalysis devirtualizes the edited program: Devirtualize expands the
// new indirect call on the edited clone, and the previous program, which
// the first analysis devirtualized already, is not written.
func TestApplyEditFallbackDevirtualizesClone(t *testing.T) {
	prog, err := frontend.LowerSource(fptrProg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: core.ModeAndersen, Workers: 2}
	a, err := core.AnalyzeProgram(prog, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if frontend.HasIndirectCalls(a.Prog) {
		t.Fatal("test premise broken: the analysis left an indirect call")
	}
	vr := func(name string) ir.VarID { return a.Prog.VarByName[name] }
	skip := ir.Stmt{Op: ir.OpSkip, Dst: ir.NoVar, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar}
	call := ir.Stmt{Op: ir.OpCall, Dst: ir.NoVar, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: vr("fp"), Args: []ir.VarID{vr("p")}}
	ret := ir.Stmt{Op: ir.OpRet, Dst: ir.NoVar, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar}
	edits := []ir.Edit{{Kind: ir.EditRebuildFunc, Spec: &ir.FuncSpec{
		Name:     "work",
		Stmts:    []ir.Stmt{skip, call, ret},
		Succs:    [][]int{{1}, {2}, {}},
		CallLocs: []int{-1, -1, -1},
		Entry:    0,
		Exit:     2,
	}}}
	a2, rep, err := applyEditKeepsPrev(t, "rebuild work", a, edits)
	if err != nil {
		t.Fatalf("ApplyEdit: %v", err)
	}
	if !rep.FellBack {
		t.Fatal("a rebuilt function must fall back")
	}
	if frontend.HasIndirectCalls(a2.Prog) {
		t.Fatal("the fallback left the new indirect call unexpanded")
	}
	fresh, err := core.AnalyzeProgram(a2.Prog.Clone(), cfg)
	if err != nil {
		t.Fatalf("fresh: %v", err)
	}
	diffFingerprints(t, "fallback", a2.Fingerprints(), fresh.Fingerprints())
	sampleQueries(t, "fallback", a2, fresh)
}

// TestApplyEditOtherModesFallBack: the incremental path maps edits onto
// the Andersen cascade's cover only, so every other mode must fall back
// to a full reanalysis, for that reason, and end where a fresh analysis
// of the edited program does.
func TestApplyEditOtherModesFallBack(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeNone, core.ModeSteensgaard, core.ModeSyntactic} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := core.Config{Mode: mode, Workers: 2}
			a, err := core.AnalyzeProgram(incrProg(t), cfg)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			edits := randomStmtEdits(a.Prog, rand.New(rand.NewSource(7)), 5)
			a2, rep, err := core.ApplyEdit(context.Background(), a, edits)
			if err != nil {
				t.Fatalf("ApplyEdit: %v", err)
			}
			if want := "incremental path supports the default Andersen cascade only"; !rep.FellBack || rep.Reason != want {
				t.Fatalf("report %+v, want a fallback because %q", rep, want)
			}
			fresh, err := core.AnalyzeProgram(a2.Prog.Clone(), cfg)
			if err != nil {
				t.Fatalf("fresh: %v", err)
			}
			tag := mode.String()
			diffFingerprints(t, tag, a2.Fingerprints(), fresh.Fingerprints())
			diffAndersen(t, tag, a2, fresh)
			sampleQueries(t, tag, a2, fresh)
		})
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
	a2, rep, err := core.ApplyEdit(context.Background(), a, edits)
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
		a2.PointsToContext(context.Background(), v, a2.Prog.Funcs[0].Exit)
	}
	edits = randomStmtEdits(a2.Prog, rng, 4)
	a3, rep, err := core.ApplyEdit(context.Background(), a2, edits)
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
	if _, _, err := core.ApplyEdit(context.Background(), a, []ir.Edit{{Kind: ir.EditReplaceStmt, Loc: ir.Loc(1 << 30)}}); err == nil {
		t.Fatal("bad edit accepted")
	}
	if len(a.Prog.Nodes) != before {
		t.Fatal("failed batch mutated the previous program")
	}
}

// TestApplyEditAddedVarRewritten: a batch may add a variable, store
// through it, and rewrite that store again. The rewritten statement
// names a variable the previous generation lacks, and ApplyEdit must
// neither look it up there nor lose the edit: the chain stays identical
// to fresh analyses, Andersen sets included, without a fallback. The
// chain runs from a fallback read first, so the first batch patches
// (the Andersen cone must skip the added variable too), and from one
// never read.
func TestApplyEditAddedVarRewritten(t *testing.T) {
	base, err := frontend.LowerSource(fuzzEditProg)
	if err != nil {
		t.Fatal(err)
	}
	for _, read := range []bool{false, true} {
		cfg := core.Config{Mode: core.ModeAndersen, Workers: 1}
		a, err := core.AnalyzeProgram(base.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if read {
			a.Andersen.SolverStats()
		}
		vr := func(name string) ir.VarID { return a.Prog.VarByName[name] }
		var store, addr ir.Loc
		for _, n := range a.Prog.Nodes {
			switch {
			case n.Stmt.Op == ir.OpStore:
				store = n.Loc
			case n.Stmt.Op == ir.OpAddr && n.Stmt.Dst == vr("x"):
				addr = n.Loc
			}
		}
		z := ir.VarID(len(a.Prog.Vars))
		stmt := func(op ir.Op, dst, src ir.VarID) ir.Stmt {
			return ir.Stmt{Op: op, Dst: dst, Src: src, Callee: ir.NoFunc, FPtr: ir.NoVar}
		}
		batches := [][]ir.Edit{
			{
				{Kind: ir.EditAddVar, Name: "z", Var: ir.KindGlobal, Fn: ir.NoFunc},
				{Kind: ir.EditReplaceStmt, Loc: store, Stmt: stmt(ir.OpStore, z, vr("y"))},
				{Kind: ir.EditReplaceStmt, Loc: store, Stmt: stmt(ir.OpCopy, vr("x"), z)},
			},
			{{Kind: ir.EditInsertAfter, Loc: addr, Stmt: stmt(ir.OpAddr, z, vr("p"))}},
			{{Kind: ir.EditReplaceStmt, Loc: store, Stmt: stmt(ir.OpStore, z, vr("y"))}},
		}
		for i, batch := range batches {
			tag := fmt.Sprintf("read=%v batch %d", read, i)
			a2, rep, err := core.ApplyEdit(context.Background(), a, batch)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if rep.FellBack {
				t.Fatalf("%s: fell back: %s", tag, rep.Reason)
			}
			fresh, err := core.AnalyzeProgram(a2.Prog.Clone(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			diffFingerprints(t, tag, a2.Fingerprints(), fresh.Fingerprints())
			diffAndersen(t, tag, a2, fresh)
			sampleQueries(t, tag, a2, fresh)
			a = a2
		}
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
// same selected-cluster fingerprints, same Andersen sets, same answers,
// and no fallback. The byte pairs split into two batches: the first
// applies to a from-scratch analysis, the second to the first's
// successor, which carries the partition records a from-scratch
// analysis lacks, so the second batch reaches the reuse of records,
// alias-free partitions' included. Each input runs in two
// arms: from an analysis whose fallback was read first, so ApplyEdit
// patches it (cone leak check included), and from one never read, whose
// first successor must defer its solve. The check after the first batch
// reads that successor's fallback, so the second batch patches in both
// arms. Neither batch may write the program it edits a clone of
// (applyEditKeepsPrev), rejected batches included.
//
// Each byte pair (i, k) edits eligible statement i: k%4 picks delete,
// replace Src, replace Dst or insert a nullify of the destination, and
// k/4 the operand. The first half of the pairs, rounded up, is the first
// batch.
func FuzzApplyEdit(f *testing.F) {
	f.Add([]byte{0x01, 0x02})
	f.Add([]byte{0xff, 0x10, 0x20, 0x30})
	f.Add([]byte{7, 7, 7, 7, 7, 7})
	// Across the pp/qq levels (vars a..d = 0..3, x y p q = 4..7, pp qq =
	// 8, 9; eligible statement 1 is qq = &q, 5 pp = &x, 6 *pp = y, 7
	// x = *qq): the store's source, the store through qq, pp = &q,
	// qq = &x with pp = *qq, and *pp = q with qq = &x.
	f.Add([]byte{6, 6*4 + 1})
	f.Add([]byte{6, 9*4 + 2})
	f.Add([]byte{1, 8*4 + 2})
	f.Add([]byte{5, 9*4 + 2, 7, 8*4 + 2})
	f.Add([]byte{6, 7*4 + 1, 1, 4*4 + 1})
	// The first batch turns the store into *c = y, through c, which
	// points nowhere: {c} stays an alias-free partition. The second
	// inserts c = null after it, the partition's first statement.
	f.Add([]byte{6, 2*4 + 2, 6, 3})
	base, err := frontend.LowerSource(fuzzEditProg)
	if err != nil {
		f.Fatalf("lower: %v", err)
	}
	var eligible []ir.Loc
	for _, n := range base.Nodes {
		switch n.Stmt.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpStore:
			if n.CallLoc == ir.NoLoc {
				eligible = append(eligible, n.Loc)
			}
		}
	}
	// decode turns byte pairs into edits of p's statements.
	decode := func(p *ir.Program, data []byte) []ir.Edit {
		var edits []ir.Edit
		for i := 0; i+1 < len(data); i += 2 {
			loc := eligible[int(data[i])%len(eligible)]
			st := p.Node(loc).Stmt
			switch data[i+1] % 4 {
			case 0:
				edits = append(edits, ir.Edit{Kind: ir.EditDeleteStmt, Loc: loc})
			case 1:
				st.Src = ir.VarID(int(data[i+1]/4) % len(p.Vars))
				edits = append(edits, ir.Edit{Kind: ir.EditReplaceStmt, Loc: loc, Stmt: st})
			case 2:
				st.Dst = ir.VarID(int(data[i+1]/4) % len(p.Vars))
				edits = append(edits, ir.Edit{Kind: ir.EditReplaceStmt, Loc: loc, Stmt: st})
			case 3:
				ins := ir.Stmt{Op: ir.OpNullify, Dst: st.Dst, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar}
				edits = append(edits, ir.Edit{Kind: ir.EditInsertAfter, Loc: loc, Stmt: ins})
			}
		}
		return edits
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 64 {
			t.Skip()
		}
		split := (len(data)/2 + 1) / 2 * 2
		for _, read := range []bool{true, false} {
			cfg := core.Config{Mode: core.ModeAndersen, Workers: 1}
			a, err := core.AnalyzeProgram(base.Clone(), cfg)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			if read {
				a.Andersen.SolverStats()
			}
			for batch, chunk := range [][]byte{data[:split], data[split:]} {
				tag := fmt.Sprintf("read=%v batch %d", read, batch)
				a2, rep, err := applyEditKeepsPrev(t, tag, a, decode(a.Prog, chunk))
				if err != nil {
					t.Skip() // malformed batch; rejection is the contract
				}
				if rep.FellBack {
					t.Fatalf("%s: statement edits fell back: %s", tag, rep.Reason)
				}
				if a2.Andersen.Solved() != (read || batch > 0) {
					t.Fatalf("%s: successor fallback solved = %v; only a read one is patched", tag, a2.Andersen.Solved())
				}
				fresh, err := core.AnalyzeProgram(a2.Prog.Clone(), cfg)
				if err != nil {
					t.Fatalf("%s: fresh analyze: %v", tag, err)
				}
				gf, wf := a2.Fingerprints(), fresh.Fingerprints()
				if len(gf) != len(wf) {
					t.Fatalf("%s: selected %d clusters incrementally, %d fresh", tag, len(gf), len(wf))
				}
				for id, fp := range wf {
					if gf[id] != fp {
						t.Fatalf("%s: cluster %d fingerprint mismatch", tag, id)
					}
				}
				diffAndersen(t, tag, a2, fresh)
				ctx := context.Background()
				for _, v := range fresh.CoveredPointers() {
					for _, fn := range fresh.Prog.Funcs {
						wp, wprec := fresh.PointsToContext(ctx, v, fn.Exit)
						gp, gprec := a2.PointsToContext(ctx, v, fn.Exit)
						sort.Slice(wp, func(i, j int) bool { return wp[i] < wp[j] })
						sort.Slice(gp, func(i, j int) bool { return gp[i] < gp[j] })
						if wprec != gprec || !reflect.DeepEqual(wp, gp) {
							t.Fatalf("%s: PointsTo(%d, L%d) = %v/%v, fresh %v/%v",
								tag, v, fn.Exit, gp, gprec, wp, wprec)
						}
					}
				}
				a = a2
			}
		}
	})
}

// chainEdit draws one single-statement edit for
// TestApplyEditChainCoverMatchesFresh: on a plain (non-call-bound)
// copy, address-of, load or store, replace the source or the
// destination with the same operand of another such statement, or
// insert a nullify of the destination after it.
func chainEdit(p *ir.Program, rng *rand.Rand) ir.Edit {
	var eligible []*ir.Node
	for _, n := range p.Nodes {
		switch n.Stmt.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpStore:
			if n.CallLoc == ir.NoLoc {
				eligible = append(eligible, n)
			}
		}
	}
	n := eligible[rng.Intn(len(eligible))]
	donor := eligible[rng.Intn(len(eligible))].Stmt
	st := n.Stmt
	st.Comment = ""
	switch rng.Intn(3) {
	case 0:
		st.Src = donor.Src
	case 1:
		st.Dst = donor.Dst
	default:
		ins := ir.Stmt{Op: ir.OpNullify, Dst: donor.Dst, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar}
		return ir.Edit{Kind: ir.EditInsertAfter, Loc: n.Loc, Stmt: ins}
	}
	return ir.Edit{Kind: ir.EditReplaceStmt, Loc: n.Loc, Stmt: st}
}

// diffCover compares two analyses of the same program cluster by
// cluster — ID, kind, pointers, V_P, St_P and functions — and the
// pointer index: ClustersOf for every variable, and CoveredPointers.
func diffCover(t *testing.T, tag string, got, want *core.Analysis) {
	t.Helper()
	if len(got.Clusters) != len(want.Clusters) {
		t.Fatalf("%s: %d clusters, fresh %d", tag, len(got.Clusters), len(want.Clusters))
	}
	for i, w := range want.Clusters {
		g := got.Clusters[i]
		if g.ID != w.ID || g.Kind != w.Kind || !slices.Equal(g.Pointers, w.Pointers) ||
			!slices.Equal(g.Vars, w.Vars) || !slices.Equal(g.Stmts, w.Stmts) || !slices.Equal(g.Funcs, w.Funcs) {
			t.Fatalf("%s: cluster %d is %v P=%v V=%v St=%v F=%v\nfresh %v P=%v V=%v St=%v F=%v", tag, i,
				g, g.Pointers, g.Vars, g.Stmts, g.Funcs, w, w.Pointers, w.Vars, w.Stmts, w.Funcs)
		}
	}
	for v := range want.Prog.Vars {
		if g, w := got.ClustersOf(ir.VarID(v)), want.ClustersOf(ir.VarID(v)); !slices.Equal(g, w) {
			t.Fatalf("%s: ClustersOf(%s) = %v, fresh %v", tag, want.Prog.Vars[v].Name, g, w)
		}
	}
	if g, w := got.CoveredPointers(), want.CoveredPointers(); !slices.Equal(g, w) {
		t.Fatalf("%s: CoveredPointers = %v, fresh %v", tag, g, w)
	}
}

// aliasFreeProg has three alias-free partitions, {o1, o2}, {o3, o4} and
// {o5, o6}: each pair shares a location class, nothing writes either
// member, and the one store, through s, writes no program variable.
const aliasFreeProg = `
	int *o1, *o2, *o3, *o4, *o5, *o6;
	int **p, **q, **s, **u;
	void main() {
		p = &o1;
		p = &o2;
		q = &o3;
		q = &o4;
		u = &o5;
		u = &o6;
		*s = o5;
	}
`

// TestApplyEditChainCoverMatchesFresh: after every edit of a chain, the
// whole cover and the pointer index equal a fresh analysis of the edited
// program (diffCover), not only the selected clusters' fingerprints, and
// the previous generation's program is as it was (applyEditKeepsPrev).
// The rows run a seeded chain of 60 single-statement edits at threshold
// 8, so oversized partitions take the Andersen refinement. The
// hand-written chain gives each alias-free partition of aliasFreeProg
// its first statement, each through a different dirty signal, with the
// partition's member list unchanged:
//
//   - o1 = o2 names both members as operands;
//   - *q = o3 writes o3 and o4 through q (store expansion; the stored
//     value shares the written objects' partition, so it is a member
//     too);
//   - s = u merges s's pointee class into the location class of o5 and
//     o6, so the existing *s = o5 starts to write them (signature
//     drift).
func TestApplyEditChainCoverMatchesFresh(t *testing.T) {
	cfg := core.Config{Mode: core.ModeAndersen, AndersenThreshold: 8, Lazy: true}
	chain := func(t *testing.T, prog *ir.Program, next func(a *core.Analysis, i int) ir.Edit, n int) {
		a, err := core.AnalyzeProgram(prog, cfg)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		for i := 0; i < n; i++ {
			e := next(a, i)
			tag := fmt.Sprintf("edit %d (%v at L%d: %v)", i, e.Kind, e.Loc, e.Stmt)
			a2, rep, err := applyEditKeepsPrev(t, tag, a, []ir.Edit{e})
			if err != nil {
				t.Fatalf("%s: ApplyEdit: %v", tag, err)
			}
			if rep.FellBack {
				t.Fatalf("%s: fell back: %s", tag, rep.Reason)
			}
			fresh, err := core.AnalyzeProgram(a2.Prog.Clone(), cfg)
			if err != nil {
				t.Fatalf("%s: fresh analyze: %v", tag, err)
			}
			diffCover(t, tag, a2, fresh)
			a = a2
		}
	}
	for _, name := range []string{"autofs", "mt_daapd"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(28))
			chain(t, lowerRow(t, name, 0.3), func(a *core.Analysis, _ int) ir.Edit {
				return chainEdit(a.Prog, rng)
			}, 60)
		})
	}
	t.Run("alias-free", func(t *testing.T) {
		prog, err := frontend.LowerSource(aliasFreeProg)
		if err != nil {
			t.Fatal(err)
		}
		vr := func(name string) ir.VarID { return prog.VarByName[name] }
		addrOf := func(dst, src string) ir.Loc {
			for _, n := range prog.Nodes {
				if n.Stmt.Op == ir.OpAddr && n.Stmt.Dst == vr(dst) && n.Stmt.Src == vr(src) {
					return n.Loc
				}
			}
			t.Fatalf("no %s = &%s", dst, src)
			return 0
		}
		stmt := func(op ir.Op, dst, src string) ir.Stmt {
			return ir.Stmt{Op: op, Dst: vr(dst), Src: vr(src), Callee: ir.NoFunc, FPtr: ir.NoVar}
		}
		edits := []ir.Edit{
			{Kind: ir.EditInsertAfter, Loc: addrOf("p", "o2"), Stmt: stmt(ir.OpCopy, "o1", "o2")},
			{Kind: ir.EditInsertAfter, Loc: addrOf("q", "o4"), Stmt: stmt(ir.OpStore, "q", "o3")},
			{Kind: ir.EditInsertAfter, Loc: addrOf("u", "o6"), Stmt: stmt(ir.OpCopy, "s", "u")},
		}
		chain(t, prog, func(_ *core.Analysis, i int) ir.Edit { return edits[i] }, len(edits))
	})
}

// TestApplyEditDriftedStorePointer: a remote copy that merges a store
// pointer's pointee class into a location class makes a store no edit
// touched write that class's variables. The pointer drifts, but it is
// in no slice the store enters, and the written variables keep their
// signatures, so the partition that gains the store is dirty only
// through the store its drifted pointer names. A warm-up edit first
// gives the partition a record that keeps its old slice.
func TestApplyEditDriftedStorePointer(t *testing.T) {
	prog, err := frontend.LowerSource(`
		int *o5, *o6, *o7;
		int **s, **u, **w;
		void main() {
			u = &o5;
			u = &o6;
			*s = o5;
			o6 = null;
			w = &o7;
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	vr := func(name string) ir.VarID { return prog.VarByName[name] }
	var uo6, wo7 ir.Loc
	for _, n := range prog.Nodes {
		switch {
		case n.Stmt.Op == ir.OpAddr && n.Stmt.Src == vr("o6"):
			uo6 = n.Loc
		case n.Stmt.Op == ir.OpAddr && n.Stmt.Src == vr("o7"):
			wo7 = n.Loc
		}
	}
	cfg := core.Config{Mode: core.ModeAndersen, Workers: 1}
	a, err := core.AnalyzeProgram(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stmt := func(op ir.Op, dst, src string) ir.Stmt {
		return ir.Stmt{Op: op, Dst: vr(dst), Src: vr(src), Callee: ir.NoFunc, FPtr: ir.NoVar}
	}
	for i, e := range []ir.Edit{
		{Kind: ir.EditReplaceStmt, Loc: wo7, Stmt: stmt(ir.OpAddr, "w", "o7")},
		{Kind: ir.EditInsertAfter, Loc: uo6, Stmt: stmt(ir.OpCopy, "s", "u")},
	} {
		tag := fmt.Sprintf("edit %d", i)
		a2, rep, err := core.ApplyEdit(context.Background(), a, []ir.Edit{e})
		if err != nil || rep.FellBack {
			t.Fatalf("%s: ApplyEdit: %v %+v", tag, err, rep)
		}
		fresh, err := core.AnalyzeProgram(a2.Prog.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		diffCover(t, tag, a2, fresh)
		diffFingerprints(t, tag, a2.Fingerprints(), fresh.Fingerprints())
		sampleQueries(t, tag, a2, fresh)
		a = a2
	}
}
