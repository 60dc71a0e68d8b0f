// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// family per table/figure:
//
//   - BenchmarkTable1NoClustering / BenchmarkTable1Steensgaard /
//     BenchmarkTable1Andersen — the three FSCS configurations of Table 1,
//     per benchmark row, as serial walks over scaled-down workloads (run
//     cmd/benchtab for the full table through core's cascade);
//   - BenchmarkFigure1 — the two Lazy cascade runs behind Figure 1;
//   - BenchmarkAblationThreshold — the Andersen-threshold sweep;
//   - BenchmarkSteensgaard / BenchmarkAndersen / BenchmarkAlgorithm1 —
//     stage micro-benchmarks;
//   - BenchmarkFingerprint / BenchmarkEngineShell — the fixed per-cluster
//     set-up of a warm run (cache key, through one table per program
//     and per call) and of a cold one (engine before its first walk);
//   - BenchmarkAnalyzeProgram — the whole eager analysis;
//   - BenchmarkClone / BenchmarkApplyEdit — the daemon's edit→answer
//     path: the program copy every edit starts from, and a light and a
//     heavy edit, each with its undo, on a solved lazy analysis.
package bootstrap_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"bootstrap/internal/andersen"
	"bootstrap/internal/bench"
	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/core"
	"bootstrap/internal/cpl"
	"bootstrap/internal/frontend"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

const benchScale = 0.12

// benchRows is a representative slice of Table 1: tiny, driver-sized,
// low-overlap (Andersen clustering wins) and high-overlap (it does not).
var benchRows = []string{"sock", "ctrace", "autofs", "raid", "mt_daapd"}

type prepared struct {
	prog *ir.Program
	sa   *steens.Analysis
	cg   *callgraph.Graph
}

func prepare(b *testing.B, name string, scale float64) prepared {
	b.Helper()
	row, ok := synth.FindBenchmark(name)
	if !ok {
		b.Fatalf("unknown benchmark %s", name)
	}
	prog, err := frontend.LowerSource(synth.Generate(row, scale))
	if err != nil {
		b.Fatal(err)
	}
	return prepared{prog: prog, sa: steens.Analyze(prog), cg: callgraph.Build(prog)}
}

// coverWork is what solving a cover charged: worklist tuples, and the
// clusters whose engine ran out of budget.
type coverWork struct {
	tuples, exhausted int64
}

// report adds the per-op work of b.N cover solves to b's metrics.
func (w coverWork) report(b *testing.B) {
	b.ReportMetric(float64(w.tuples)/float64(b.N), "tuples/op")
	b.ReportMetric(float64(w.exhausted)/float64(b.N), "exhausted/op")
}

// reportCover adds the cover's cluster count and largest cluster to b's
// metrics. Call it after the timed loop: b.ResetTimer drops metrics
// reported before it.
func reportCover(b *testing.B, cover []*cluster.Cluster) {
	stats := cluster.CoverStats(cover)
	b.ReportMetric(float64(stats.NumClusters), "clusters")
	b.ReportMetric(float64(stats.MaxSize), "maxsize")
}

// runCover solves every cluster of cs and adds what the engines charged
// to w.
func runCover(b *testing.B, p prepared, cs []*cluster.Cluster, budget int64, w *coverWork) {
	b.Helper()
	for _, c := range cs {
		eng := fscs.NewEngine(p.prog, p.cg, p.sa, c, fscs.WithBudget(budget))
		_ = eng.Run()
		w.tuples += eng.TuplesProcessed
		if eng.Exhausted() {
			w.exhausted++
		}
	}
}

// BenchmarkTable1NoClustering measures column 6: the monolithic FSCS run
// (budget-capped, as the paper caps at 15 minutes). The budget counts
// Prog_P tuples (fscs.WithBudget), so exhausted/op reports whether the
// run finished: a row that finishes does more work, and takes longer,
// than one cut off at the cap.
func BenchmarkTable1NoClustering(b *testing.B) {
	for _, name := range benchRows {
		b.Run(name, func(b *testing.B) {
			p := prepare(b, name, benchScale)
			whole := []*cluster.Cluster{cluster.BuildWhole(p.prog, p.sa)}
			b.ReportAllocs()
			b.ResetTimer()
			var w coverWork
			for i := 0; i < b.N; i++ {
				runCover(b, p, whole, 300_000, &w)
			}
			w.report(b)
		})
	}
}

// BenchmarkTable1Steensgaard measures columns 7-9: FSCS on Steensgaard
// partitions.
func BenchmarkTable1Steensgaard(b *testing.B) {
	for _, name := range benchRows {
		b.Run(name, func(b *testing.B) {
			p := prepare(b, name, benchScale)
			cover := cluster.BuildSteensgaard(p.prog, p.sa)
			b.ReportAllocs()
			b.ResetTimer()
			var w coverWork
			for i := 0; i < b.N; i++ {
				runCover(b, p, cover, 0, &w)
			}
			w.report(b)
			reportCover(b, cover)
		})
	}
}

// BenchmarkTable1Andersen measures columns 10-12: FSCS on bootstrapped
// Andersen clusters. It also reports the worklist tuples one pass
// charges and the time per tuple: the walk's constant factor, separate
// from how much work the cover asks for.
func BenchmarkTable1Andersen(b *testing.B) {
	for _, name := range benchRows {
		b.Run(name, func(b *testing.B) {
			p := prepare(b, name, benchScale)
			cover := cluster.BuildAndersen(p.prog, p.sa, 8)
			b.ReportAllocs()
			b.ResetTimer()
			var w coverWork
			for i := 0; i < b.N; i++ {
				runCover(b, p, cover, 0, &w)
			}
			w.report(b)
			reportCover(b, cover)
			if w.tuples > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(w.tuples), "ns/tuple")
			}
		})
	}
}

// BenchmarkFigure1 measures the cluster-size series of the paper's
// autofs figure: two Lazy cascade runs, which build covers and solve no
// cluster.
func BenchmarkFigure1(b *testing.B) {
	row, _ := synth.FindBenchmark("autofs")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Figure1(row, bench.Options{Scale: benchScale}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationThreshold sweeps the Andersen threshold (the paper
// fixes 60 empirically; Section 2's "Andersen Threshold" discussion).
func BenchmarkAblationThreshold(b *testing.B) {
	for _, th := range []int{4, 8, 16, 1 << 30} {
		b.Run(fmt.Sprintf("threshold=%d", th), func(b *testing.B) {
			p := prepare(b, "raid", 0.5)
			b.ReportAllocs()
			b.ResetTimer()
			var w coverWork
			for i := 0; i < b.N; i++ {
				cover := cluster.BuildAndersen(p.prog, p.sa, th)
				runCover(b, p, cover, 0, &w)
			}
		})
	}
}

// BenchmarkSteensgaard measures the base partitioning stage alone.
func BenchmarkSteensgaard(b *testing.B) {
	for _, name := range []string{"sock", "autofs"} {
		b.Run(name, func(b *testing.B) {
			row, _ := synth.FindBenchmark(name)
			prog, err := frontend.LowerSource(synth.Generate(row, 0.5))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steens.Analyze(prog)
			}
		})
	}
}

// BenchmarkAndersen measures the inclusion-based stage alone.
func BenchmarkAndersen(b *testing.B) {
	for _, name := range []string{"sock", "autofs"} {
		b.Run(name, func(b *testing.B) {
			row, _ := synth.FindBenchmark(name)
			prog, err := frontend.LowerSource(synth.Generate(row, 0.5))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				andersen.Analyze(prog)
			}
		})
	}
}

// BenchmarkAlgorithm1 measures the relevant-statement slicing over all
// partitions of a driver-shaped workload.
func BenchmarkAlgorithm1(b *testing.B) {
	p := prepare(b, "autofs", 0.5)
	parts := p.sa.Partitions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := cluster.NewIndex(p.prog, p.sa)
		for _, part := range parts {
			ix.RelevantStatements(part)
		}
	}
}

// BenchmarkFingerprint measures the cache keys of every cluster of the
// row's Andersen cover, which a warm run pays before it can import, the
// way an analysis computes them: one cache.Table for the program, so
// each function's skeleton is hashed once, then one Canon per cluster.
// The percall sub-benchmarks key each cluster through cache.NewCanon, a
// table of its own, as core.RunCluster does outside an analysis.
func BenchmarkFingerprint(b *testing.B) {
	params := cache.Params{MaxCond: 8}
	run := func(b *testing.B, name string, keyCover func(p prepared, cover []*cluster.Cluster)) {
		p := prepare(b, name, benchScale)
		cover := cluster.BuildAndersen(p.prog, p.sa, cluster.DefaultAndersenThreshold)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			keyCover(p, cover)
		}
		b.ReportMetric(float64(len(cover)), "clusters") // after ResetTimer, which drops metrics
	}
	for _, name := range benchRows {
		b.Run(name, func(b *testing.B) {
			run(b, name, func(p prepared, cover []*cluster.Cluster) {
				tab := cache.NewTable(p.prog, p.sa, p.cg)
				for _, c := range cover {
					tab.Canon(c, params)
				}
			})
		})
	}
	b.Run("percall", func(b *testing.B) {
		for _, name := range benchRows {
			b.Run(name, func(b *testing.B) {
				run(b, name, func(p prepared, cover []*cluster.Cluster) {
					for _, c := range cover {
						cache.NewCanon(p.prog, p.sa, p.cg, c, params)
					}
				})
			})
		}
	})
}

// BenchmarkEngineShell measures fscs.NewEngine without Run over every
// cluster of the row's Andersen cover: the mod-set closure and interning
// tables each engine sets up, which warm imports pay too.
func BenchmarkEngineShell(b *testing.B) {
	for _, name := range benchRows {
		b.Run(name, func(b *testing.B) {
			p := prepare(b, name, benchScale)
			cover := cluster.BuildAndersen(p.prog, p.sa, cluster.DefaultAndersenThreshold)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range cover {
					fscs.NewEngine(p.prog, p.cg, p.sa, c)
				}
			}
			b.ReportMetric(float64(len(cover)), "clusters") // after ResetTimer, which drops metrics
		})
	}
}

// BenchmarkFrontend measures the front end on perfbench's program,
// autofs@1.0, stage by stage: lex pulls every token through
// cpl.Lexer.Next, parse runs cpl.Parse (lexing included), lower runs
// frontend.Lower on a parsed file, and source runs frontend.LowerSource,
// the whole serial step every analysis starts with.
func BenchmarkFrontend(b *testing.B) {
	row, _ := synth.FindBenchmark("autofs")
	src := synth.Generate(row, 1.0)
	b.Run("lex", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lx := cpl.NewLexer(src)
			for {
				t, err := lx.Next()
				if err != nil {
					b.Fatal(err)
				}
				if t.Kind == cpl.EOF {
					break
				}
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cpl.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lower", func(b *testing.B) {
		file, err := cpl.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := frontend.Lower(file); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("source", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := frontend.LowerSource(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCycleElimination compares the baseline Andersen solver
// with online cycle elimination on a cycle-heavy workload.
func BenchmarkAblationCycleElimination(b *testing.B) {
	row, _ := synth.FindBenchmark("sendmail")
	prog, err := frontend.LowerSource(synth.Generate(row, 0.1))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			andersen.Analyze(prog)
		}
	})
	b.Run("cycle-elimination", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			andersen.Analyze(prog, andersen.WithCycleElimination())
		}
	})
}

// BenchmarkAnalyzeProgram measures the whole eager analysis on the
// Andersen cover: the clustering cascade overlapped with the FSCS
// workers, one worker per CPU.
func BenchmarkAnalyzeProgram(b *testing.B) {
	cfg := core.Config{Mode: core.ModeAndersen, Workers: runtime.GOMAXPROCS(0), AndersenThreshold: 8}
	for _, name := range benchRows {
		b.Run(name, func(b *testing.B) {
			row, ok := synth.FindBenchmark(name)
			if !ok {
				b.Fatalf("unknown benchmark %s", name)
			}
			prog, err := frontend.LowerSource(synth.Generate(row, benchScale))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.AnalyzeProgram(prog, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// editRow is the workload of the edit→answer benchmarks: perfbench's
// `edit` program.
const editRow = "autofs"

// BenchmarkClone measures Program.Clone, which every ApplyEdit runs
// before it edits.
func BenchmarkClone(b *testing.B) {
	prog := prepare(b, editRow, 1).prog
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = prog.Clone()
	}
}

// cloneSink keeps BenchmarkClone's copies live.
var cloneSink *ir.Program

// donorEdit draws an edit the way perfbench's `edit` workload does: the
// source of a plain copy, address-of or load (outside call bindings) is
// replaced by the source of another such statement of the same function
// in the same Steensgaard partition. A light edit's destination lies in
// a partition at or under the Andersen threshold; a heavy one's, as in
// every seventh perfbench edit, in a partition above it, whose Andersen
// refinement the edit re-derives. It returns the edit and the edit that
// undoes it.
func donorEdit(b *testing.B, a *core.Analysis, rng *rand.Rand, heavy bool) (edit, undo ir.Edit) {
	b.Helper()
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
	b.Fatalf("no statement with a same-partition donor (heavy=%v)", heavy)
	return
}

// BenchmarkApplyEdit measures one edit and its undo through
// core.ApplyEdit, from a lazy analysis with a result cache whose every
// cluster is solved: what the daemon's /edit does. Each op starts from
// the analysis the previous op's undo returned. The light case edits a
// partition kept whole, as six of perfbench's seven edits do; the heavy
// case (autofs-heavy) edits the oversized partition, as the seventh
// does, and re-derives its Andersen refinement. Select the light case
// alone with -bench 'BenchmarkApplyEdit/autofs$'.
func BenchmarkApplyEdit(b *testing.B) {
	for _, heavy := range []bool{false, true} {
		name := editRow
		if heavy {
			name += "-heavy"
		}
		b.Run(name, func(b *testing.B) {
			ctx := context.Background()
			prog := prepare(b, editRow, 1).prog
			a, err := core.AnalyzeProgramContext(ctx, prog, core.Config{
				Mode: core.ModeAndersen, Lazy: true, Cache: cache.New(cache.Options{}),
			})
			if err != nil {
				b.Fatal(err)
			}
			for id := range a.Clusters {
				a.EnsureCluster(ctx, id)
			}
			seed := int64(1)
			if heavy {
				seed = 7
			}
			edit, undo := donorEdit(b, a, rand.New(rand.NewSource(seed)), heavy)
			pair := func() {
				a1, rep, err := core.ApplyEdit(ctx, a, []ir.Edit{edit})
				if err == nil && !rep.FellBack {
					a, rep, err = core.ApplyEdit(ctx, a1, []ir.Edit{undo})
				}
				if err != nil {
					b.Fatal(err)
				}
				if rep.FellBack {
					b.Fatalf("edit fell back to a full reanalysis: %s", rep.Reason)
				}
			}
			pair() // the first pair fills the cache with the edit's clusters
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pair()
			}
		})
	}
}
