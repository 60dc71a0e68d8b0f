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
//     set-up of a warm run (cache key) and of a cold one (engine before
//     its first walk);
//   - BenchmarkAnalyzeProgram — the whole eager analysis.
package bootstrap_test

import (
	"fmt"
	"runtime"
	"testing"

	"bootstrap/internal/andersen"
	"bootstrap/internal/bench"
	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/core"
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
			stats := cluster.CoverStats(cover)
			b.ReportMetric(float64(stats.NumClusters), "clusters")
			b.ReportMetric(float64(stats.MaxSize), "maxsize")
			b.ReportAllocs()
			b.ResetTimer()
			var w coverWork
			for i := 0; i < b.N; i++ {
				runCover(b, p, cover, 0, &w)
			}
			w.report(b)
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
			stats := cluster.CoverStats(cover)
			b.ReportMetric(float64(stats.NumClusters), "clusters")
			b.ReportMetric(float64(stats.MaxSize), "maxsize")
			b.ReportAllocs()
			b.ResetTimer()
			var w coverWork
			for i := 0; i < b.N; i++ {
				runCover(b, p, cover, 0, &w)
			}
			w.report(b)
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

// BenchmarkFingerprint measures cache.NewCanon over every cluster of
// the row's Andersen cover: the canonical slice encoding and its hash,
// which a warm run pays per cluster before it can import.
func BenchmarkFingerprint(b *testing.B) {
	for _, name := range benchRows {
		b.Run(name, func(b *testing.B) {
			p := prepare(b, name, benchScale)
			cover := cluster.BuildAndersen(p.prog, p.sa, cluster.DefaultAndersenThreshold)
			b.ReportMetric(float64(len(cover)), "clusters")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range cover {
					cache.NewCanon(p.prog, p.sa, p.cg, c, cache.Params{MaxCond: 8})
				}
			}
		})
	}
}

// BenchmarkEngineShell measures fscs.NewEngine without Run over every
// cluster of the row's Andersen cover: the mod-set closure and interning
// tables each engine sets up, which warm imports pay too.
func BenchmarkEngineShell(b *testing.B) {
	for _, name := range benchRows {
		b.Run(name, func(b *testing.B) {
			p := prepare(b, name, benchScale)
			cover := cluster.BuildAndersen(p.prog, p.sa, cluster.DefaultAndersenThreshold)
			b.ReportMetric(float64(len(cover)), "clusters")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range cover {
					fscs.NewEngine(p.prog, p.cg, p.sa, c)
				}
			}
		})
	}
}

// BenchmarkFrontend measures parse + lowering throughput.
func BenchmarkFrontend(b *testing.B) {
	row, _ := synth.FindBenchmark("autofs")
	src := synth.Generate(row, 0.5)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := frontend.LowerSource(src); err != nil {
			b.Fatal(err)
		}
	}
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
