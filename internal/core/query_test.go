package core

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bootstrap/internal/andersen"
	"bootstrap/internal/cache"
	"bootstrap/internal/faults"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
	"bootstrap/internal/synth"
)

func lazyConfig() Config {
	return Config{Mode: ModeAndersen, Workers: 2, AndersenThreshold: 2, Lazy: true}
}

// TestContextQueriesMatchEager: queries on a lazy analysis, which solve
// clusters on first touch, must agree with the same queries on an eager
// one, pair by pair.
func TestContextQueriesMatchEager(t *testing.T) {
	lazy, err := AnalyzeSource(testProgram, lazyConfig())
	if err != nil {
		t.Fatal(err)
	}
	eager, err := AnalyzeSource(testProgram, Config{Mode: ModeAndersen, Workers: 1, AndersenThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	exit := exitLoc(eager)
	ctx := context.Background()
	pairs := [][2]string{
		{"x", "y"}, {"x", "p"}, {"y", "p"}, {"l1", "l2"}, {"x", "l1"},
		{"a", "b"}, {"px", "x"},
	}
	for _, pair := range pairs {
		p, q := v(t, lazy, pair[0]), v(t, lazy, pair[1])
		got, precise := lazy.MayAliasContext(ctx, p, q, exit)
		want, _ := eager.MayAliasContext(ctx, v(t, eager, pair[0]), v(t, eager, pair[1]), exit)
		if got != want {
			t.Errorf("MayAliasContext(%s,%s) = %v, eager MayAlias = %v", pair[0], pair[1], got, want)
		}
		if !precise {
			t.Errorf("MayAliasContext(%s,%s) imprecise under background context", pair[0], pair[1])
		}
	}
	for _, name := range []string{"x", "y", "p", "px", "l1"} {
		p := v(t, lazy, name)
		got, _ := lazy.PointsToContext(ctx, p, exit)
		want, _ := eager.PointsToContext(ctx, v(t, eager, name), exit)
		if len(got) != len(want) {
			t.Errorf("PointsToContext(%s) = %v, eager = %v", name, got, want)
			continue
		}
		for i := range got {
			if lazy.Prog.VarName(got[i]) != eager.Prog.VarName(want[i]) {
				t.Errorf("PointsToContext(%s)[%d] = %s, eager %s",
					name, i, lazy.Prog.VarName(got[i]), eager.Prog.VarName(want[i]))
			}
		}
	}
}

// TestEnsureClusterSingleFlight: 50 concurrent first touches of the same
// cluster must run exactly one solve.
func TestEnsureClusterSingleFlight(t *testing.T) {
	m := obs.NewMetrics()
	cfg := lazyConfig()
	cfg.Metrics = m
	a, err := AnalyzeSource(testProgram, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := v(t, a, "x")
	ids := a.ClustersOf(x)
	if len(ids) == 0 {
		t.Fatal("x not covered by any cluster")
	}
	const n = 50
	var wg sync.WaitGroup
	engines := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng, _, final := a.EnsureCluster(context.Background(), ids[0])
			engines[i] = final && eng != nil
		}(i)
	}
	wg.Wait()
	for i, ok := range engines {
		if !ok {
			t.Fatalf("caller %d did not get the solved engine", i)
		}
	}
	if solved := m.Counter("bootstrap_clusters_solved_total", "").Value(); solved != 1 {
		t.Errorf("%d solves for one cluster under 50 concurrent callers", solved)
	}
	if !a.ClusterSolved(ids[0]) {
		t.Errorf("ClusterSolved false after solve")
	}
	if qh := a.QueryHealth(); len(qh) != 1 || qh[0].ClusterID != ids[0] {
		t.Errorf("QueryHealth = %+v, want one record for cluster %d", qh, ids[0])
	}
}

// TestExpiredContextDegrades: an already-dead context cannot wait for a
// solve; the answer must then come from the fallback and still be sound
// (a superset of the true may-alias relation). x is in two clusters and
// the first alone proves x and p alias, so a query that reaches a solved
// first cluster returns precisely without touching the second — whether
// it was solved beforehand (the second iteration) or its detached solve
// landed before the expired context was observed.
func TestExpiredContextDegrades(t *testing.T) {
	for _, presolve := range []bool{false, true} {
		a, err := AnalyzeSource(testProgram, lazyConfig())
		if err != nil {
			t.Fatal(err)
		}
		exit := exitLoc(a)
		x, p := v(t, a, "x"), v(t, a, "p")
		if ids := a.ClustersOf(x); len(ids) < 2 {
			t.Fatalf("x is in clusters %v; the test needs two", ids)
		}
		if presolve {
			if eng, _, final := a.EnsureCluster(context.Background(), a.ClustersOf(x)[0]); !final || eng == nil {
				t.Fatal("pre-solve of x's first cluster failed")
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		got, precise := a.MayAliasContext(ctx, x, p, exit)
		// x,p do alias at exit; the fallback must agree (soundness).
		if !got {
			t.Errorf("presolve=%v: degraded MayAlias(x,p) = false; fallback unsound", presolve)
		}
		if presolve && !precise {
			t.Errorf("pre-solved first cluster proves the alias, yet precise=false")
		}
		// Detached solves keep going: once none is in flight, a later
		// query must be precise.
		inFlight := func() int {
			a.mu.Lock()
			defer a.mu.Unlock()
			return len(a.solving)
		}
		deadline := time.Now().Add(10 * time.Second)
		for inFlight() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("presolve=%v: detached solve never completed", presolve)
			}
			time.Sleep(time.Millisecond)
		}
		got, precise = a.MayAliasContext(context.Background(), x, p, exit)
		if !got || !precise {
			t.Errorf("presolve=%v: after detached solves: MayAlias(x,p) = (%v, precise=%v), want (true, true)", presolve, got, precise)
		}
	}
}

// TestNeedsSolvePredicates: the admission-routing predicates must say
// "no solve" exactly when the context queries answer structurally.
func TestNeedsSolvePredicates(t *testing.T) {
	a, err := AnalyzeSource(testProgram, lazyConfig())
	if err != nil {
		t.Fatal(err)
	}
	x, y, l1 := v(t, a, "x"), v(t, a, "y"), v(t, a, "l1")
	if a.MayAliasNeedsSolve(x, x) {
		t.Errorf("identity pair needs a solve")
	}
	if a.MayAliasNeedsSolve(x, l1) {
		t.Errorf("partition-disjoint pair needs a solve")
	}
	if !a.MayAliasNeedsSolve(x, y) {
		t.Errorf("cold same-partition pair needs no solve")
	}
	if !a.PointsToNeedsSolve(x) {
		t.Errorf("cold covered pointer needs no solve")
	}
	exit := exitLoc(a)
	a.MayAliasContext(context.Background(), x, y, exit)
	if a.MayAliasNeedsSolve(x, y) {
		t.Errorf("pair still needs a solve after its clusters solved")
	}
	if a.PointsToNeedsSolve(x) {
		t.Errorf("pointer still needs a solve after its clusters solved")
	}
}

// TestSolveStatsAndCoveredPointers sanity-checks the serve-facing
// accessors.
func TestSolveStatsAndCoveredPointers(t *testing.T) {
	a, err := AnalyzeSource(testProgram, lazyConfig())
	if err != nil {
		t.Fatal(err)
	}
	covered := a.CoveredPointers()
	if len(covered) == 0 {
		t.Fatal("no covered pointers")
	}
	names := map[string]bool{}
	for _, p := range covered {
		names[a.Prog.VarName(p)] = true
	}
	for _, want := range []string{"x", "y"} {
		if !names[want] {
			t.Errorf("%s missing from CoveredPointers", want)
		}
	}
	if solved, demoted := a.SolveStats(); solved != 0 || demoted != 0 {
		t.Errorf("fresh lazy analysis: SolveStats = (%d, %d), want (0, 0)", solved, demoted)
	}
	x := v(t, a, "x")
	a.EnsureCluster(context.Background(), a.ClustersOf(x)[0])
	if solved, _ := a.SolveStats(); solved != 1 {
		t.Errorf("after one EnsureCluster: solved = %d, want 1", solved)
	}
}

// TestAliasesMatchMayAlias: Aliases(p) is exactly the set of q != p for
// which MayAliasContext(p, q) holds, for every variable at every function
// exit — covered or not — on a healthy run, on one whose clusters are all
// demoted, and under lock demand, where x is in no analyzed cluster. In
// both degraded shapes the fallback stands in for x's clusters, so x's
// aliases must still list p and be flagged imprecise.
func TestAliasesMatchMayAlias(t *testing.T) {
	locks := func(vr *ir.Var) bool { return vr.IsLock }
	for _, tc := range []struct {
		name     string
		cfg      Config
		xPrecise bool
	}{
		{"healthy", Config{Mode: ModeAndersen, Workers: 1, AndersenThreshold: 2}, true},
		{"demoted", Config{Mode: ModeAndersen, Workers: 1, ClusterBudget: 1, Retries: -1}, false},
		{"lock-demand", Config{Mode: ModeAndersen, Workers: 1, Demand: locks}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := AnalyzeSource(testProgram, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			n := a.Prog.NumVars()
			pairs := 0
			for _, f := range a.Prog.Funcs {
				for pi := 0; pi < n; pi++ {
					p := ir.VarID(pi)
					var want []ir.VarID
					for qi := 0; qi < n; qi++ {
						q := ir.VarID(qi)
						if may, _ := a.MayAliasContext(ctx, p, q, f.Exit); may && q != p {
							want = append(want, q)
						}
					}
					got, _ := a.Aliases(ctx, p, f.Exit)
					if !slices.Equal(got, want) {
						t.Errorf("Aliases(%s) at L%d = %v, MayAliasContext admits %v",
							a.Prog.VarName(p), f.Exit, got, want)
					}
					pairs += len(want)
				}
			}
			if pairs == 0 {
				t.Fatal("no aliases anywhere; the check is vacuous")
			}
			x, p := v(t, a, "x"), v(t, a, "p")
			al, precise := a.Aliases(ctx, x, exitLoc(a))
			if !slices.Contains(al, p) || precise != tc.xPrecise {
				t.Errorf("Aliases(x) = %v precise=%v, want p listed and precise=%v", al, precise, tc.xPrecise)
			}
		})
	}
}

// TestQueryAPIContextFirst: every exported alias query on *Analysis takes
// a context.Context first, so a ctx-less twin cannot come back unnoticed.
// The NeedsSolve predicates are admission-routing probes, not queries:
// they never solve and answer without an engine.
func TestQueryAPIContextFirst(t *testing.T) {
	ctxType := reflect.TypeOf((*context.Context)(nil)).Elem()
	typ := reflect.TypeOf((*Analysis)(nil))
	queries := 0
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		query := m.Name == "Aliases"
		for _, prefix := range []string{"MayAlias", "MustAlias", "PointsTo", "DerefState", "Values"} {
			query = query || strings.HasPrefix(m.Name, prefix)
		}
		if !query || strings.HasSuffix(m.Name, "NeedsSolve") {
			continue
		}
		queries++
		if m.Type.NumIn() < 2 || m.Type.In(1) != ctxType {
			t.Errorf("%s%s: an alias query must take a context.Context first", m.Name, strings.TrimPrefix(m.Type.String(), "func"))
		}
	}
	if queries < 7 {
		t.Errorf("found %d alias queries on *Analysis, want at least 7", queries)
	}
}

// TestFallbackSolvedOnFirstRead pins when the whole-program Andersen
// fallback is solved: never by the cascade, and exactly once by its
// first read. On autofs@0.3, cold, warm (in-memory cache) and Lazy, a
// healthy AnalyzeProgramContext books no Andersen passes and records no
// fallback span. Then 16 concurrent PointsToContext calls on a pointer
// whose answer widens solve it once: one fallback span, the passes
// counter equal to its SolverStats, and every variable's set equal to
// andersen.Analyze of the same program. Cold and Lazy widen because a
// faults plan demotes the pointer's cluster (Lazy demotes it in the
// query's own solve); the warm leg widens on an imprecise engine answer
// instead, since an armed plan would bypass the cache.
func TestFallbackSolvedOnFirstRead(t *testing.T) {
	b, ok := synth.FindBenchmark("autofs")
	if !ok {
		t.Fatal("no autofs benchmark")
	}
	src := synth.Generate(b, 0.3)
	cc := cache.New(cache.Options{})
	if _, err := AnalyzeSource(src, Config{Mode: ModeAndersen, Cache: cc}); err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		cfg  Config
	}{
		{"cold", Config{Mode: ModeAndersen}},
		{"warm", Config{Mode: ModeAndersen, Cache: cc}},
		{"lazy", Config{Mode: ModeAndersen, Lazy: true}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			m, tr := obs.NewMetrics(), obs.NewTracer()
			analyze := func(plan *faults.Plan) *Analysis {
				t.Helper()
				cfg := leg.cfg
				cfg.Metrics, cfg.Tracer, cfg.Faults = m, tr, plan
				a, err := AnalyzeSource(src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if a.Andersen.Solved() || len(eventNames(tr.Events())["fallback"]) != 0 ||
					m.Counter("bootstrap_andersen_passes_total", "").Value() != 0 {
					t.Fatal("the cascade solved the whole-program fallback")
				}
				return a
			}
			a := analyze(nil)
			if leg.cfg.Cache != nil && (a.CacheStats.Misses != 0 || a.CacheStats.Hits == 0) {
				t.Fatalf("warm run: %+v, want only hits", a.CacheStats)
			}
			exit := exitLoc(a)
			var p ir.VarID
			if leg.cfg.Cache != nil {
				p = impreciseAtExit(t, a)
			} else {
				p = a.CoveredPointers()[0]
				plan := faults.NewPlan().Set(a.ClustersOf(p)[0], faults.Fault{Kind: faults.Panic})
				a = analyze(plan)
			}

			const readers = 16
			answers := make([][]ir.VarID, readers)
			var wg sync.WaitGroup
			for i := range answers {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					objs, precise := a.PointsToContext(context.Background(), p, exit)
					if precise {
						t.Errorf("reader %d: PointsTo(%s) precise, want widened", i, a.Prog.VarName(p))
					}
					answers[i] = objs
				}(i)
			}
			wg.Wait()
			for i := range answers {
				if !slices.Equal(answers[i], answers[0]) {
					t.Fatalf("reader %d answered %v, reader 0 %v", i, answers[i], answers[0])
				}
			}
			spans := eventNames(tr.Events())["fallback"]
			passes := m.Counter("bootstrap_andersen_passes_total", "").Value()
			if len(spans) != 1 || spans[0].TID != obs.TIDFallback {
				t.Fatalf("%d fallback spans after %d concurrent reads, want 1 on the fallback track", len(spans), readers)
			}
			if want := a.Andersen.SolverStats().Passes; passes != want || passes <= 0 || spans[0].Args["passes"] != want {
				t.Errorf("passes counter %d, span %v, solve %d", passes, spans[0].Args["passes"], want)
			}
			fresh := andersen.Analyze(a.Prog)
			for v := range a.Prog.Vars {
				if id := ir.VarID(v); !a.Andersen.PointsToSet(id).Equal(fresh.PointsToSet(id)) {
					t.Fatalf("fallback pts(%s) = %v, Analyze %v", a.Prog.VarName(id),
						a.Andersen.PointsTo(id), fresh.PointsTo(id))
				}
			}
		})
	}
}

// impreciseAtExit returns a covered pointer whose engine answer at the
// entry function's exit is imprecise, found through the engines alone,
// which never read the fallback.
func impreciseAtExit(t *testing.T, a *Analysis) ir.VarID {
	t.Helper()
	for _, p := range a.CoveredPointers() {
		for _, id := range a.ClustersOf(p) {
			if _, ok := a.Engine(id).Values(p, exitLoc(a)); !ok {
				return p
			}
		}
	}
	t.Fatal("every covered pointer is precise at the exit")
	return ir.NoVar
}
