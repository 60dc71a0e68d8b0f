package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"bootstrap/internal/andersen"
	"bootstrap/internal/bench/legacyfscs"
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

// FSCSPerfPoint is one workload's measurement of the PR's two hot-path
// optimizations against the frozen pre-PR baseline (legacyfscs): the
// per-cluster engine comparison (interned integer-keyed summaries vs
// string-keyed maps with the per-round sorted worklist) and the
// whole-program comparison (pipelined cascade + interned engines vs the
// serial cascade + legacy engines).
type FSCSPerfPoint struct {
	Bench    string `json:"bench"`
	Pointers int    `json:"pointers"`
	Clusters int    `json:"clusters"`
	// Workers is this row's parallelism: each workload is measured at
	// Workers=1 (the serial trajectory older baselines recorded) and
	// Workers=8 (where the pipelined cascade and the parallel FSCS
	// workers earn their keep). Zero in a pre-PR-7 baseline file means
	// "whatever GOMAXPROCS was"; AssertFSCS matches those rows against
	// the fresh Workers=8 measurements.
	Workers int `json:"workers,omitempty"`

	// Partition- and cluster-size shape of the workload (Workers=1 row
	// only; the shape is workers-independent). PrecisePartitionMax is
	// MaxPartitionSize under the oversharing-resistant -steens-precise
	// partitioner, the column the PR-7 acceptance criterion watches.
	PartitionP50        int `json:"partition_p50,omitempty"`
	PartitionP90        int `json:"partition_p90,omitempty"`
	PartitionMax        int `json:"partition_max,omitempty"`
	PrecisePartitionMax int `json:"precise_partition_max,omitempty"`
	ClusterP50          int `json:"cluster_p50,omitempty"`
	ClusterP90          int `json:"cluster_p90,omitempty"`
	ClusterMax          int `json:"cluster_max,omitempty"`

	InternedClusterNS int64   `json:"interned_cluster_ns"`
	LegacyClusterNS   int64   `json:"legacy_cluster_ns"`
	ClusterSpeedup    float64 `json:"cluster_speedup"`

	PipelinedProgramNS int64   `json:"pipelined_program_ns"`
	BaselineProgramNS  int64   `json:"baseline_program_ns"`
	ProgramSpeedup     float64 `json:"program_speedup"`

	// The warm columns measure the content-addressed result cache: the
	// whole-program analysis re-run against a fully warm cache, its
	// speedup over the cache-free pipelined run, and the hit rate of the
	// FIRST cache-enabled run in this process — 0.0 against an empty
	// cache directory, 1.0 when a previous benchtab run already
	// populated it (what CI asserts on its second run).
	WarmProgramNS int64   `json:"warm_program_ns"`
	WarmSpeedup   float64 `json:"warm_speedup"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
}

// FSCSPerfReport is the BENCH_fscs.json payload: one point per workload
// in fixed cover order, plus the knobs the numbers were taken under so
// future PRs can tell whether a trajectory change is real or a config
// drift.
type FSCSPerfReport struct {
	Date      string          `json:"date"`
	Scale     float64         `json:"scale"`
	Threshold int             `json:"threshold"`
	Workers   int             `json:"workers"`
	Reps      int             `json:"reps"`
	Points    []FSCSPerfPoint `json:"points"`
}

// timeCover times one full sweep of engine runs over the cover and
// returns the best (minimum) wall clock over reps sweeps — the standard
// best-of-N discipline that filters scheduler noise from a trajectory
// that later PRs will diff against.
func timeCover(reps int, sweep func()) time.Duration {
	best := time.Duration(-1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		sweep()
		if d := time.Since(t0); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// LegacyAnalyzeProgram replays the pre-PR whole-program shape: the
// clustering cascade runs serially to completion, and only then do
// worker goroutines start the (string-keyed) FSCS engines. This is the
// baseline side of the ProgramSpeedup column and of the root
// BenchmarkAnalyzeProgram comparison.
func LegacyAnalyzeProgram(prog *ir.Program, threshold, workers int) {
	sa := steens.Analyze(prog)
	_ = andersen.Analyze(prog)
	cg := callgraph.Build(prog)
	cover := cluster.BuildAndersen(prog, sa, threshold)

	jobs := make(chan *cluster.Cluster)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				eng := legacyfscs.NewEngine(prog, cg, sa, c)
				_ = eng.Run()
			}
		}()
	}
	for _, c := range cover {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
}

// fscsWorkersAxis is the parallelism dimension of the report: the serial
// trajectory older baselines recorded, and the width where the pipelined
// cascade and the parallel FSCS workers earn their keep.
var fscsWorkersAxis = [2]int{1, 8}

// SizeHist summarizes a size distribution with the three quantiles the
// report records. Percentiles use the nearest-rank method on the sorted
// sizes; an empty input yields zeros.
func SizeHist(sizes []int) (p50, p90, max int) {
	if len(sizes) == 0 {
		return 0, 0, 0
	}
	s := append([]int(nil), sizes...)
	sort.Ints(s)
	rank := func(q float64) int {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return rank(0.50), rank(0.90), s[len(s)-1]
}

// FSCSPerf measures every workload in the given order (callers pass a
// fixed cover order so successive BENCH_fscs.json files diff cleanly),
// at each parallelism of fscsWorkersAxis. reps < 1 defaults to 3.
//
// The optimized (pipelined) side runs the default core configuration,
// which solves Andersen with the plain worklist solver; the baseline side
// is the frozen legacy cascade. The
// oversharing-resistant precise partitioner is measured separately (the
// precise_partition_max column): its overlapping cover shrinks the worst
// partition but enlarges the cluster cover, so it is a precision knob,
// not part of the timed fast path. The knobs make any column
// reproducible in isolation from the bootstrap CLI.
func FSCSPerf(benches []synth.Benchmark, opt Options, reps int, w io.Writer) (FSCSPerfReport, error) {
	opt.fill()
	if reps < 1 {
		reps = 3
	}
	report := FSCSPerfReport{
		Date:      time.Now().UTC().Format("2006-01-02"),
		Scale:     opt.Scale,
		Threshold: opt.threshold(),
		Workers:   runtime.GOMAXPROCS(0),
		Reps:      reps,
	}
	for _, b := range benches {
		prog, err := frontend.LowerSource(synth.Generate(b, opt.Scale))
		if err != nil {
			return report, fmt.Errorf("fscsperf %s: %w", b.Name, err)
		}
		sa := steens.Analyze(prog)
		cg := callgraph.Build(prog)
		cover := cluster.BuildAndersen(prog, sa, opt.threshold())

		// Workers-independent columns, measured once and reported in the
		// Workers=1 row: the per-cluster engine comparison and the
		// partition/cluster shape histograms.
		internedNS := int64(timeCover(reps, func() {
			for _, c := range cover {
				eng := fscs.NewEngine(prog, cg, sa, c)
				_ = eng.Run()
			}
		}))
		legacyNS := int64(timeCover(reps, func() {
			for _, c := range cover {
				eng := legacyfscs.NewEngine(prog, cg, sa, c)
				_ = eng.Run()
			}
		}))
		var partSizes, clusterSizes []int
		for _, part := range sa.Partitions() {
			partSizes = append(partSizes, len(part))
		}
		for _, c := range cover {
			clusterSizes = append(clusterSizes, len(c.Pointers))
		}
		preciseMax := steens.Analyze(prog, steens.Precise()).MaxPartitionSize()

		for wi, workers := range fscsWorkersAxis {
			p := FSCSPerfPoint{
				Bench:    b.Name,
				Pointers: prog.NumVars(),
				Clusters: len(cover),
				Workers:  workers,
			}
			if wi == 0 {
				p.InternedClusterNS = internedNS
				p.LegacyClusterNS = legacyNS
				p.ClusterSpeedup = ratio(legacyNS, internedNS)
				p.PartitionP50, p.PartitionP90, p.PartitionMax = SizeHist(partSizes)
				p.ClusterP50, p.ClusterP90, p.ClusterMax = SizeHist(clusterSizes)
				p.PrecisePartitionMax = preciseMax
			}

			cfg := core.Config{
				Mode:              core.ModeAndersen,
				Workers:           workers,
				AndersenThreshold: opt.threshold(),
			}
			p.PipelinedProgramNS = int64(timeCover(reps, func() {
				if _, err := core.AnalyzeProgramContext(context.Background(), prog, cfg); err != nil {
					panic(err) // synthetic workloads never fail to analyze
				}
			}))
			p.BaselineProgramNS = int64(timeCover(reps, func() {
				LegacyAnalyzeProgram(prog, opt.threshold(), workers)
			}))
			p.ProgramSpeedup = ratio(p.BaselineProgramNS, p.PipelinedProgramNS)

			// Warm rerun against the result cache, one cache subtree per
			// workers column so each row's first cache-enabled run sees the
			// dir state a CI rerun of that row would. The first run reports
			// the hit rate (cold dir: 0.0; pre-populated dir: 1.0) and fills
			// the in-memory tier; the timed reruns then serve entirely from
			// it.
			cdir := opt.CacheDir
			if cdir != "" {
				cdir = filepath.Join(cdir, fmt.Sprintf("w%d", workers))
			}
			cc := cache.New(cache.Options{Dir: cdir})
			ccfg := cfg
			ccfg.Cache = cc
			a, err := core.AnalyzeProgramContext(context.Background(), prog, ccfg)
			if err != nil {
				return report, fmt.Errorf("fscsperf %s: %w", b.Name, err)
			}
			p.CacheHitRate = a.CacheStats.HitRate()
			p.WarmProgramNS = int64(timeCover(reps, func() {
				if _, err := core.AnalyzeProgramContext(context.Background(), prog, ccfg); err != nil {
					panic(err) // synthetic workloads never fail to analyze
				}
			}))
			p.WarmSpeedup = ratio(p.PipelinedProgramNS, p.WarmProgramNS)

			if w != nil {
				fmt.Fprintf(w, "%-16s w%-2d cluster %6.2fx (%.1fms -> %.1fms)  program %6.2fx (%.1fms -> %.1fms)  warm %6.2fx (%.1fms, hit rate %.2f)\n",
					b.Name, workers, p.ClusterSpeedup, ms(p.LegacyClusterNS), ms(p.InternedClusterNS),
					p.ProgramSpeedup, ms(p.BaselineProgramNS), ms(p.PipelinedProgramNS),
					p.WarmSpeedup, ms(p.WarmProgramNS), p.CacheHitRate)
			}
			report.Points = append(report.Points, p)
		}
	}
	return report, nil
}

func ratio(base, opt int64) float64 {
	if opt <= 0 {
		return 0
	}
	return float64(base) / float64(opt)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// WriteFSCSJSON emits the report as indented JSON — the BENCH_fscs.json
// artifact the CI bench job uploads.
func WriteFSCSJSON(w io.Writer, r FSCSPerfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
