package core_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"bootstrap/internal/cache"
	"bootstrap/internal/cluster"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
	"bootstrap/internal/synth"
)

// lowerRow lowers a Table 1 row at scale.
func lowerRow(t testing.TB, name string, scale float64) *ir.Program {
	t.Helper()
	b, ok := synth.FindBenchmark(name)
	if !ok {
		t.Fatalf("no %s benchmark", name)
	}
	p, err := frontend.LowerSource(synth.Generate(b, scale))
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

// donorEdit draws an edit the way the daemon benchmark does: the source
// of a plain copy, address-of or load (outside call bindings) is
// replaced by the source of another such statement of the same function
// in the same Steensgaard partition, so the edit never merges
// partitions. heavy selects a destination in a partition above the
// Andersen threshold, whose clusters the edit re-derives. It returns
// the edit and the edit that undoes it.
func donorEdit(t testing.TB, a *core.Analysis, rng *rand.Rand, heavy bool) (edit, undo ir.Edit) {
	t.Helper()
	prog := a.Prog
	plain := func(n *ir.Node) bool {
		switch n.Stmt.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad:
			return n.CallLoc == ir.NoLoc
		}
		return false
	}
	var eligible []*ir.Node
	for _, n := range prog.Nodes {
		if plain(n) && (len(a.Steens.PartitionOf(n.Stmt.Dst)) > cluster.DefaultAndersenThreshold) == heavy {
			eligible = append(eligible, n)
		}
	}
	for try := 0; try < 256 && len(eligible) > 0; try++ {
		n := eligible[rng.Intn(len(eligible))]
		var donors []ir.VarID
		for _, loc := range prog.Func(n.Fn).Nodes {
			d := prog.Node(loc)
			if plain(d) && d.Stmt.Src != n.Stmt.Src && a.Steens.SamePartition(d.Stmt.Src, n.Stmt.Src) {
				donors = append(donors, d.Stmt.Src)
			}
		}
		if len(donors) == 0 {
			continue
		}
		st := n.Stmt
		st.Src = donors[rng.Intn(len(donors))]
		return ir.Edit{Kind: ir.EditReplaceStmt, Loc: n.Loc, Stmt: st},
			ir.Edit{Kind: ir.EditReplaceStmt, Loc: n.Loc, Stmt: n.Stmt}
	}
	t.Fatalf("no statement with a same-partition donor (heavy=%v)", heavy)
	return
}

// applyOK applies one edit and fails the test on an error or a fallback.
func applyOK(t testing.TB, a *core.Analysis, e ir.Edit) (*core.Analysis, *core.EditReport) {
	t.Helper()
	a2, rep, err := core.ApplyEdit(context.Background(), a, []ir.Edit{e})
	if err != nil {
		t.Fatalf("ApplyEdit: %v", err)
	}
	if rep.FellBack {
		t.Fatalf("ApplyEdit fell back: %s", rep.Reason)
	}
	return a2, rep
}

// TestApplyEditCacheStatsWindow: an edited analysis' CacheStats is the
// edit's own window over the shared cache, as a fresh run's is, not the
// cache's lifetime counters: every re-solve is one lookup, a hit exactly
// when the report says the cache served it.
func TestApplyEditCacheStatsWindow(t *testing.T) {
	c := cache.New(cache.Options{})
	a, err := core.AnalyzeProgram(lowerRow(t, "autofs", 0.3), core.Config{Mode: core.ModeAndersen, Cache: c})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if a.CacheStats.Misses == 0 {
		t.Fatal("the cold run looked nothing up")
	}
	edit, undo := donorEdit(t, a, rand.New(rand.NewSource(3)), false)
	a1, rep := applyOK(t, a, edit)
	a2, rep2 := applyOK(t, a1, undo)
	for i, r := range []struct {
		st  cache.Stats
		rep *core.EditReport
	}{{a1.CacheStats, rep}, {a2.CacheStats, rep2}} {
		if r.rep.Resolved == 0 {
			t.Fatalf("edit %d re-solved no cluster; the check needs one", i)
		}
		if r.st.Hits != int64(r.rep.CacheHits) || r.st.Hits+r.st.Misses != int64(r.rep.Resolved) {
			t.Errorf("edit %d: CacheStats hits %d, misses %d; report resolved %d, cache hits %d",
				i, r.st.Hits, r.st.Misses, r.rep.Resolved, r.rep.CacheHits)
		}
	}
	if rep2.CacheHits == 0 {
		t.Error("the undo found none of the original results in the cache")
	}
}

// TestApplyEditRetainedHeapFlat: a long edit chain retains what its
// latest analysis needs, not a share of every generation before it.
// Partition bases and transplanted clusters carry Steensgaard member
// lists from generation to generation, so a list that shares its
// backing array with the rest of its generation's lists keeps that
// whole array alive; the chain then grows by an array for each
// generation some list survives from. The chain is the daemon
// benchmark's: a solved lazy analysis of autofs with a result cache,
// light and heavy same-partition edits each followed by its undo. The
// cache is bounded below what the first solve stores, so it is full
// before the first reading. Not parallel: other tests' allocations
// would enter the reading.
//
// A second chain then inserts one node per edit and never undoes it,
// so each generation's additions live on in every later one, as do the
// copies of the nodes and functions it writes; anything that shares an
// allocation with them stays alive too. Each insert repeats its
// anchor's statement, which changes no answer, so the analysis itself
// does not grow.
func TestApplyEditRetainedHeapFlat(t *testing.T) {
	const (
		warmPairs    = 10
		totalPairs   = 70
		heavyEvery   = 7
		warmInserts  = 10
		totalInserts = 60
	)
	ctx := context.Background()
	a, err := core.AnalyzeProgram(lowerRow(t, "autofs", 1), core.Config{
		Mode: core.ModeAndersen, Lazy: true, Cache: cache.New(cache.Options{MaxBytes: 64 << 10}),
	})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	for id := range a.Clusters {
		a.EnsureCluster(ctx, id)
	}
	light, heavy := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(7))
	pair := func(i int) {
		rng, h := light, false
		if i%heavyEvery == heavyEvery-1 {
			rng, h = heavy, true
		}
		edit, undo := donorEdit(t, a, rng, h)
		a1, _ := applyOK(t, a, edit)
		a, _ = applyOK(t, a1, undo)
	}
	retained := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	flat := func(what string, warm, total int, step func(i int)) {
		for i := 0; i < warm; i++ {
			step(i)
		}
		early := retained()
		for i := warm; i < total; i++ {
			step(i)
		}
		late := retained()
		runtime.KeepAlive(a)
		limit := early + early/20
		t.Logf("retained after %d %s %.2f MB, after %d %s %.2f MB (limit %.2f MB)",
			warm, what, float64(early)/(1<<20), total, what, float64(late)/(1<<20), float64(limit)/(1<<20))
		if late > limit {
			t.Errorf("retained heap grew from %d to %d bytes over %d %s, want at most 5%% growth",
				early, late, total-warm, what)
		}
	}
	flat("edit/undo pairs", warmPairs, totalPairs, pair)
	ins := rand.New(rand.NewSource(11))
	flat("inserts", warmInserts, totalInserts, func(int) {
		var plain []*ir.Node
		for _, n := range a.Prog.Nodes {
			switch n.Stmt.Op {
			case ir.OpCopy, ir.OpAddr, ir.OpLoad:
				if n.CallLoc == ir.NoLoc {
					plain = append(plain, n)
				}
			}
		}
		n := plain[ins.Intn(len(plain))]
		a, _ = applyOK(t, a, ir.Edit{Kind: ir.EditInsertAfter, Loc: n.Loc, Stmt: n.Stmt})
	})
}

// TestApplyEditSlicesDirtyPartitionsOnly: an edit runs Algorithm 1 on
// the partitions it dirties, not on every partition it cannot reuse by
// lookup. On perfbench's program, after one warm-up edit, a light edit
// and its undo each dirty a cluster or two, and each slices one or two
// partitions, as incr_partitions_sliced_total reports: an alias-free
// partition (802 of autofs@1.0's 1,885) is checked against the dirty
// variables, not sliced again.
func TestApplyEditSlicesDirtyPartitionsOnly(t *testing.T) {
	m := obs.NewMetrics()
	a, err := core.AnalyzeProgram(lowerRow(t, "autofs", 1), core.Config{Mode: core.ModeAndersen, Lazy: true, Metrics: m})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	sliced := m.Counter("incr_partitions_sliced_total", "")
	rng := rand.New(rand.NewSource(1))
	warm, _ := donorEdit(t, a, rng, false)
	a, _ = applyOK(t, a, warm)
	edit, undo := donorEdit(t, a, rng, false)
	for i, e := range []ir.Edit{edit, undo} {
		before := sliced.Value()
		var rep *core.EditReport
		a, rep = applyOK(t, a, e)
		if n := sliced.Value() - before; n < 1 || n > 2 {
			t.Errorf("edit %d (%d dirty clusters) sliced %d partitions, want 1 or 2", i, rep.Dirty, n)
		}
	}
}
