package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"bootstrap/internal/faults"
	"bootstrap/internal/frontend"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
)

func errorsIsBudget(err error) bool { return errors.Is(err, fscs.ErrBudget) }

const testProgram = `
	int a, b, c;
	int *x, *y, *p;
	int **px;
	lock m1, m2;
	lock *l1, *l2;
	void swap() {
		int *t;
		t = x;
		x = y;
		y = t;
	}
	void locks() {
		l1 = &m1;
		l2 = l1;
	}
	void main() {
		x = &a;
		y = &b;
		p = &c;
		px = &x;
		swap();
		*px = p;
		locks();
	}
`

func v(t *testing.T, a *Analysis, name string) ir.VarID {
	t.Helper()
	id, ok := a.Prog.VarByName[name]
	if !ok {
		t.Fatalf("no variable %q", name)
	}
	return id
}

func exitLoc(a *Analysis) ir.Loc { return a.Prog.Func(a.Prog.Entry).Exit }

// mayAlias and mustAlias are the tests' shorthand for the context-first
// queries under a background context, for checks that do not look at
// precision.
func mayAlias(a *Analysis, p, q ir.VarID, loc ir.Loc) bool {
	ok, _ := a.MayAliasContext(context.Background(), p, q, loc)
	return ok
}

func mustAlias(a *Analysis, p, q ir.VarID, loc ir.Loc) bool {
	ok, _ := a.MustAliasContext(context.Background(), p, q, loc)
	return ok
}

func TestModesAgreeOnAliases(t *testing.T) {
	var results []*Analysis
	for _, mode := range []Mode{ModeNone, ModeSteensgaard, ModeAndersen, ModeSyntactic} {
		a, err := AnalyzeSource(testProgram, Config{Mode: mode, Workers: 1, AndersenThreshold: 2})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		results = append(results, a)
	}
	exit := exitLoc(results[0])
	pairs := [][2]string{
		{"x", "y"}, {"x", "p"}, {"y", "p"}, {"l1", "l2"}, {"x", "l1"},
	}
	for _, pair := range pairs {
		base := results[0]
		want := mayAlias(base, v(t, base, pair[0]), v(t, base, pair[1]), exit)
		for i, a := range results[1:] {
			got := mayAlias(a, v(t, a, pair[0]), v(t, a, pair[1]), exit)
			if got != want {
				t.Errorf("mode %d: MayAlias(%s,%s) = %v, baseline (no clustering) = %v",
					i+1, pair[0], pair[1], got, want)
			}
		}
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	a, err := AnalyzeSource(testProgram, Config{Mode: ModeAndersen, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	exit := exitLoc(a)
	// swap + *px = p: x ends as &c (store through px), y as &a.
	objs, _ := a.PointsToContext(context.Background(), v(t, a, "x"), exit)
	names := map[string]bool{}
	for _, o := range objs {
		names[a.Prog.VarName(o)] = true
	}
	if !names["c"] {
		t.Errorf("PointsTo(x) = %v, want c after *px = p", names)
	}
	if !mustAlias(a, v(t, a, "l1"), v(t, a, "l2"), exit) {
		t.Error("l1 and l2 must alias")
	}
	if mayAlias(a, v(t, a, "x"), v(t, a, "l1"), exit) {
		t.Error("int pointers and lock pointers cannot alias")
	}
	if len(a.Clusters) < 2 {
		t.Errorf("expected multiple clusters, got %d", len(a.Clusters))
	}
	if a.Timing.Steensgaard <= 0 || a.Timing.FSCS <= 0 {
		t.Error("timings should be recorded")
	}
}

func TestDemandDrivenLocks(t *testing.T) {
	a, err := AnalyzeSource(testProgram, Config{
		Mode:    ModeAndersen,
		Workers: 1,
		Demand:  func(vr *ir.Var) bool { return vr.IsLock },
	})
	if err != nil {
		t.Fatal(err)
	}
	exit := exitLoc(a)
	if !mustAlias(a, v(t, a, "l1"), v(t, a, "l2"), exit) {
		t.Error("demand-driven lock analysis should still prove l1 == l2")
	}
	// Non-lock pointers were not analyzed precisely.
	if ids := a.ClustersOf(v(t, a, "x")); len(ids) != 0 {
		t.Errorf("x should not be in any analyzed cluster, got %v", ids)
	}
	// Queries on unanalyzed pointers fall back soundly.
	if !mayAlias(a, v(t, a, "x"), v(t, a, "y"), exit) {
		t.Error("fallback should report x/y as possible aliases")
	}
	// Fewer engines ran than in full mode.
	full, err := AnalyzeSource(testProgram, Config{Mode: ModeAndersen, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Health) >= len(full.Health) {
		t.Errorf("demand mode ran %d engines, full mode %d — expected fewer",
			len(a.Health), len(full.Health))
	}
}

// clusterOf returns the ID of the first analyzed cluster containing the
// named pointer in a healthy reference analysis.
func clusterOf(t *testing.T, a *Analysis, name string) int {
	t.Helper()
	ids := a.ClustersOf(v(t, a, name))
	if len(ids) == 0 {
		t.Fatalf("%s is in no analyzed cluster", name)
	}
	return ids[0]
}

// healthOf returns the health entry of one cluster.
func healthOf(t *testing.T, a *Analysis, id int) ClusterHealth {
	t.Helper()
	for _, h := range a.Health {
		if h.ClusterID == id {
			return h
		}
	}
	t.Fatalf("no health entry for cluster %d (have %d entries)", id, len(a.Health))
	return ClusterHealth{}
}

// soundnessPairs is the pointer sample the fault tests probe.
var soundnessPairs = []string{"x", "y", "p", "px", "l1", "l2"}

// assertSound checks the two soundness directions on every sampled pair:
// an alias the healthy precise analysis reports must survive degradation,
// and a degraded run must never report aliases beyond the flow-insensitive
// Andersen over-approximation.
func assertSound(t *testing.T, healthy, faulty *Analysis) {
	t.Helper()
	exit := exitLoc(healthy)
	for i, pn := range soundnessPairs {
		for _, qn := range soundnessPairs[i+1:] {
			want := mayAlias(healthy, v(t, healthy, pn), v(t, healthy, qn), exit)
			got := mayAlias(faulty, v(t, faulty, pn), v(t, faulty, qn), exit)
			if want && !got {
				t.Errorf("MayAlias(%s,%s): degraded run lost a may-alias (unsound)", pn, qn)
			}
			andersen := faulty.Andersen.MayAlias(v(t, faulty, pn), v(t, faulty, qn))
			if got && !andersen {
				t.Errorf("MayAlias(%s,%s): degraded run reports an alias Andersen refutes", pn, qn)
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	seq, err := AnalyzeSource(testProgram, Config{Mode: ModeSteensgaard, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := AnalyzeSource(testProgram, Config{Mode: ModeSteensgaard, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	exit := exitLoc(seq)
	for _, pair := range [][2]string{{"x", "y"}, {"x", "p"}, {"l1", "l2"}} {
		s := mayAlias(seq, v(t, seq, pair[0]), v(t, seq, pair[1]), exit)
		p := mayAlias(par, v(t, par, pair[0]), v(t, par, pair[1]), exit)
		if s != p {
			t.Errorf("MayAlias(%s,%s): sequential %v != parallel %v", pair[0], pair[1], s, p)
		}
	}

	// Fault injection: with one cluster panicking, one forced out of
	// budget and one timing out, the run must still complete, report the
	// failures in Health, and keep every query sound — sequentially and
	// under the parallel scheduler alike.
	xID := clusterOf(t, seq, "x")
	lockID := clusterOf(t, seq, "l1")
	pxID := clusterOf(t, seq, "px")
	if xID == lockID || xID == pxID || lockID == pxID {
		t.Fatalf("fault targets must be distinct clusters: x=%d l1=%d px=%d", xID, lockID, pxID)
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("faults/workers=%d", workers), func(t *testing.T) {
			plan := faults.NewPlan().
				Set(xID, faults.Fault{Kind: faults.Panic}).
				Set(lockID, faults.Fault{Kind: faults.Budget}).
				Set(pxID, faults.Fault{Kind: faults.Slow, Delay: 400 * time.Millisecond})
			a, err := AnalyzeSource(testProgram, Config{
				Mode:           ModeSteensgaard,
				Workers:        workers,
				ClusterTimeout: 150 * time.Millisecond,
				Faults:         plan,
			})
			if err != nil {
				t.Fatalf("a faulty cluster must not fail the analysis: %v", err)
			}
			if len(a.Health) != len(seq.Health) {
				t.Errorf("Health has %d entries, want %d", len(a.Health), len(seq.Health))
			}
			hx := healthOf(t, a, xID)
			if hx.Status != HealthDegraded || !hx.Demoted || hx.Stack == "" || hx.Err == nil {
				t.Errorf("panicked cluster: %+v, want degraded+demoted with stack and error", hx)
			}
			hl := healthOf(t, a, lockID)
			if hl.Status != HealthExhausted || !hl.Demoted || !errorsIsBudget(hl.Err) {
				t.Errorf("budget cluster: %+v, want exhausted+demoted with ErrBudget", hl)
			}
			hp := healthOf(t, a, pxID)
			if hp.Status != HealthTimedOut || !hp.Demoted {
				t.Errorf("slow cluster: %+v, want timed-out+demoted", hp)
			}
			for _, h := range []ClusterHealth{hx, hl, hp} {
				if h.Attempts != 2 {
					t.Errorf("cluster %d: %d attempts, want 2 (ladder retry before demotion)", h.ClusterID, h.Attempts)
				}
			}
			assertSound(t, seq, a)
		})
	}
}

func TestPanicRecoveredByRetry(t *testing.T) {
	healthy, err := AnalyzeSource(testProgram, Config{Mode: ModeSteensgaard, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	xID := clusterOf(t, healthy, "x")
	// The panic fires only on the first attempt; the ladder retry runs
	// clean and the cluster keeps its precise engine.
	plan := faults.NewPlan().Set(xID, faults.Fault{Kind: faults.Panic, Attempts: 1})
	a, err := AnalyzeSource(testProgram, Config{Mode: ModeSteensgaard, Workers: 2, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	h := healthOf(t, a, xID)
	if h.Status != HealthRecovered || h.Demoted || h.Attempts != 2 {
		t.Errorf("health = %+v, want recovered after 2 attempts, not demoted", h)
	}
	if h.Stack == "" {
		t.Error("the recovered panic's stack should be captured")
	}
	if a.Engine(xID) == nil {
		t.Error("recovered cluster should keep its engine")
	}
	// With the engine recovered, answers match the healthy run exactly.
	exit := exitLoc(healthy)
	for i, pn := range soundnessPairs {
		for _, qn := range soundnessPairs[i+1:] {
			want := mayAlias(healthy, v(t, healthy, pn), v(t, healthy, qn), exit)
			got := mayAlias(a, v(t, a, pn), v(t, a, qn), exit)
			if want != got {
				t.Errorf("MayAlias(%s,%s) = %v after recovery, healthy run says %v", pn, qn, got, want)
			}
		}
	}
}

func TestClusterTimeoutDegradesEverything(t *testing.T) {
	healthy, err := AnalyzeSource(testProgram, Config{Mode: ModeSteensgaard, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeSource(testProgram, Config{
		Mode: ModeSteensgaard, Workers: 4, ClusterTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatalf("an impossible deadline must degrade, not fail: %v", err)
	}
	if len(a.Health) == 0 {
		t.Fatal("Health should be populated")
	}
	for _, h := range a.Health {
		if h.Status != HealthTimedOut || !h.Demoted {
			t.Errorf("cluster %d: %+v, want timed-out+demoted under a 1ns deadline", h.ClusterID, h)
		}
	}
	assertSound(t, healthy, a)
}

// TestRunTimeoutDegradesEverything: an expired run deadline demotes
// every cluster, on the serial path (ModeSteensgaard) and on the
// pipelined one (eager ModeAndersen), whose cover is built under the
// caller's context: the deadline must never truncate it.
func TestRunTimeoutDegradesEverything(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: ModeSteensgaard, Workers: 4},
		{Mode: ModeAndersen, AndersenThreshold: 2, Workers: 4},
	} {
		healthy, err := AnalyzeSource(testProgram, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(healthy.Health) == 0 {
			t.Fatalf("%s: no cluster scheduled; the check would be vacuous", cfg.Mode)
		}
		cfg.RunTimeout = time.Nanosecond
		a, err := AnalyzeSource(testProgram, cfg)
		if err != nil {
			t.Fatalf("%s: an expired run deadline must degrade, not fail: %v", cfg.Mode, err)
		}
		if len(a.Clusters) != len(healthy.Clusters) || len(a.Health) != len(healthy.Health) {
			t.Errorf("%s: %d clusters, %d scheduled under the deadline; healthy run has %d, %d",
				cfg.Mode, len(a.Clusters), len(a.Health), len(healthy.Clusters), len(healthy.Health))
		}
		for _, h := range a.Health {
			if h.Status != HealthTimedOut || !h.Demoted {
				t.Errorf("%s: cluster %d: %+v, want timed-out+demoted under an expired run deadline", cfg.Mode, h.ClusterID, h)
			}
		}
		assertSound(t, healthy, a)
	}
}

func TestCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog, err := frontend.LowerSource(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeProgramContext(ctx, prog, Config{Mode: ModeSteensgaard, Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled caller context: err = %v, want context.Canceled", err)
	}
}

func TestTimingLowerDirect(t *testing.T) {
	// The frontend phase is measured directly; it must never go negative
	// even though parallel FSCS makes Wall < FSCS.
	a, err := AnalyzeSource(testProgram, Config{Mode: ModeAndersen, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Timing.Lower <= 0 {
		t.Errorf("Timing.Lower = %v, want > 0", a.Timing.Lower)
	}
}

func TestBudgetTimeout(t *testing.T) {
	a, err := AnalyzeSource(testProgram, Config{Mode: ModeNone, Workers: 1, ClusterBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Health) != 1 {
		t.Fatalf("Health has %d entries, want 1", len(a.Health))
	}
	h := a.Health[0]
	if h.Status != HealthExhausted || !h.Demoted {
		t.Errorf("health = %+v, want exhausted+demoted", h)
	}
	if h.Attempts != 2 {
		t.Errorf("ladder should retry once before demoting, got %d attempts", h.Attempts)
	}
	if !errorsIsBudget(h.Err) {
		t.Errorf("health error = %v, want fscs.ErrBudget", h.Err)
	}
	// The demoted cluster has no engine; queries fall back soundly.
	if eng := a.Engine(a.Clusters[0].ID); eng != nil {
		t.Error("demoted cluster should have no engine")
	}
	exit := exitLoc(a)
	if !mayAlias(a, v(t, a, "x"), v(t, a, "y"), exit) {
		t.Error("fallback must keep the sound may-alias answer")
	}
}

func TestAliasesUnion(t *testing.T) {
	a, err := AnalyzeSource(testProgram, Config{Mode: ModeAndersen, Workers: 1, AndersenThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	exit := exitLoc(a)
	al, _ := a.Aliases(context.Background(), v(t, a, "l1"), exit)
	found := false
	for _, q := range al {
		if a.Prog.VarName(q) == "l2" {
			found = true
		}
	}
	if !found {
		t.Errorf("Aliases(l1) should contain l2, got %d entries", len(al))
	}
}

func TestEngineAccessors(t *testing.T) {
	a, err := AnalyzeSource(testProgram, Config{Mode: ModeSteensgaard, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	l1 := v(t, a, "l1")
	ids := a.ClustersOf(l1)
	if len(ids) == 0 {
		t.Fatal("l1 must be in an analyzed cluster")
	}
	eng := a.Engine(ids[0])
	if eng == nil {
		t.Fatal("engine missing")
	}
	if !eng.Cluster().HasPointer(l1) {
		t.Error("engine cluster should contain l1")
	}
	var _ *fscs.Engine = eng
}

func TestAnalyzeSourceErrors(t *testing.T) {
	if _, err := AnalyzeSource("int", Config{}); err == nil {
		t.Error("parse error should propagate")
	}
	if _, err := AnalyzeSource("void main() { x = y; }", Config{}); err == nil {
		t.Error("lowering error should propagate")
	}
	if _, err := AnalyzeSource(testProgram, Config{Mode: ModeSyntactic + 1}); err == nil {
		t.Error("an unknown mode should be an error")
	}
}

func TestLazyMode(t *testing.T) {
	a, err := AnalyzeSource(testProgram, Config{Mode: ModeSteensgaard, Workers: 1, Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	// No eager engine runs.
	if len(a.Health) != 0 {
		t.Errorf("lazy mode ran %d engines eagerly", len(a.Health))
	}
	exit := exitLoc(a)
	// First query creates exactly the engines of l1's clusters and still
	// answers correctly.
	if !mustAlias(a, v(t, a, "l1"), v(t, a, "l2"), exit) {
		t.Error("lazy query should still prove l1 == l2")
	}
	// Matches eager results on the standard pairs.
	eager, err := AnalyzeSource(testProgram, Config{Mode: ModeSteensgaard, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"x", "y"}, {"x", "p"}, {"x", "l1"}} {
		lz := mayAlias(a, v(t, a, pair[0]), v(t, a, pair[1]), exit)
		eg := mayAlias(eager, v(t, eager, pair[0]), v(t, eager, pair[1]), exit)
		if lz != eg {
			t.Errorf("lazy MayAlias(%s,%s) = %v, eager = %v", pair[0], pair[1], lz, eg)
		}
	}
	// Every engine the queries used was solved through the ladder, so
	// the bookkeeping agrees: one QueryHealth record per solved cluster.
	qh := a.QueryHealth()
	if solved, _ := a.SolveStats(); solved != len(qh) {
		t.Errorf("SolveStats solved = %d, QueryHealth has %d records", solved, len(qh))
	}
	recorded := map[int]bool{}
	for _, h := range qh {
		recorded[h.ClusterID] = true
	}
	for _, c := range a.Clusters {
		if a.Engine(c.ID) != nil && !recorded[c.ID] {
			t.Errorf("cluster %d holds an engine but has no QueryHealth record", c.ID)
		}
	}
}

func TestHybridSizeLimit(t *testing.T) {
	a, err := AnalyzeSource(testProgram, Config{
		Mode: ModeSteensgaard, Workers: 1, HybridSizeLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	exit := exitLoc(a)
	// The x/y/p cluster exceeds the limit: queries fall back to the
	// flow-insensitive answer — still sound (may-aliases preserved).
	if !mayAlias(a, v(t, a, "x"), v(t, a, "y"), exit) {
		t.Error("hybrid fallback must keep sound may-aliases")
	}
	// The small lock cluster is still analyzed precisely.
	if !mustAlias(a, v(t, a, "l1"), v(t, a, "l2"), exit) {
		t.Error("small cluster should keep the precise treatment")
	}
	// Fewer engines ran than without the limit.
	full, _ := AnalyzeSource(testProgram, Config{Mode: ModeSteensgaard, Workers: 1})
	if len(a.Health) >= len(full.Health) {
		t.Errorf("hybrid ran %d engines, full %d", len(a.Health), len(full.Health))
	}
}

func TestValuesInContext(t *testing.T) {
	src := `
		int a1, a2;
		int *g;
		void set(int *v) { g = v; }
		void main() {
			set(&a1);
			set(&a2);
		}
	`
	a, err := AnalyzeSource(src, Config{Mode: ModeSteensgaard, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sites []ir.Loc
	setID := a.Prog.FuncByName["set"]
	for _, n := range a.Prog.Nodes {
		if n.Stmt.Op == ir.OpCall && n.Stmt.Callee == setID {
			sites = append(sites, n.Loc)
		}
	}
	if len(sites) != 2 {
		t.Fatalf("found %d call sites", len(sites))
	}
	setExit := a.Prog.Func(setID).Exit
	ctx := context.Background()
	for i, want := range []string{"a1", "a2"} {
		objs, precise, err := a.ValuesInContext(ctx, v(t, a, "g"), setExit, fscs.Context{sites[i]})
		if err != nil {
			t.Fatal(err)
		}
		if !precise || len(objs) != 1 || a.Prog.VarName(objs[0]) != want {
			names := make([]string, len(objs))
			for j, o := range objs {
				names[j] = a.Prog.VarName(o)
			}
			t.Errorf("context %d: objs=%v precise=%v, want exactly {%s}", i, names, precise, want)
		}
	}
	// Context validation errors propagate.
	if _, _, err := a.ValuesInContext(ctx, v(t, a, "g"), setExit, fscs.Context{}); err == nil {
		t.Error("bad context should error")
	}
	// Must-alias in context.
	ok, precise, err := a.MustAliasInContext(ctx, v(t, a, "g"), v(t, a, "g"), setExit, fscs.Context{sites[0]})
	if err != nil || !ok || !precise {
		t.Errorf("g must alias itself in a valid context: %v precise=%v %v", ok, precise, err)
	}
}

func TestDerefState(t *testing.T) {
	src := `
		int a;
		int *ok, *nul, *mix;
		void main() {
			ok = &a;
			nul = null;
			mix = &a;
			if (*) { mix = null; }
		}
	`
	a, err := AnalyzeSource(src, Config{Mode: ModeSteensgaard, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	exit := exitLoc(a)
	ctx := context.Background()
	objs, mayNull, _, precise := a.DerefStateContext(ctx, v(t, a, "ok"), exit)
	if !precise || mayNull || len(objs) != 1 {
		t.Errorf("ok: objs=%d null=%v precise=%v", len(objs), mayNull, precise)
	}
	objs, mayNull, _, precise = a.DerefStateContext(ctx, v(t, a, "nul"), exit)
	if !precise || !mayNull || len(objs) != 0 {
		t.Errorf("nul: objs=%d null=%v precise=%v", len(objs), mayNull, precise)
	}
	_, mayNull, _, _ = a.DerefStateContext(ctx, v(t, a, "mix"), exit)
	if !mayNull {
		t.Error("mix: expected a null path")
	}
}
