// Package core implements the paper's bootstrapping framework end to end:
// the cascade of increasingly precise analyses (Steensgaard → Andersen →
// summarization-based FSCS), where each stage runs only on the pointer
// subsets produced by the previous stage; per-cluster slicing via
// Algorithm 1; parallel execution of the independent per-cluster analyses
// on in-process workers; and the demand-driven mode that analyzes only
// clusters whose pointers an application cares about (e.g. lock pointers
// for race detection).
//
// This is the public facade of the repository: parse/lower a program, call
// Analyze, and query flow- and context-sensitive aliases.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bootstrap/internal/andersen"
	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/faults"
	"bootstrap/internal/frontend"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
	"bootstrap/internal/steens"
)

// Mode selects the clustering cascade.
type Mode uint8

// Clustering modes, in increasing bootstrap depth. The paper's Table 1
// compares ModeNone (column "without clustering"), ModeSteensgaard and
// ModeAndersen; ModeSyntactic is the Zhang et al. related-work baseline.
const (
	ModeNone Mode = iota
	ModeSteensgaard
	ModeAndersen
	ModeSyntactic
)

var modeNames = [...]string{"none", "steensgaard", "andersen", "syntactic"}

func (m Mode) String() string { return modeNames[m] }

// Config tunes an analysis run.
type Config struct {
	// Mode selects the clustering cascade stage. The zero value is
	// ModeNone: one cluster over the whole program, the paper's "without
	// clustering" column. ModeAndersen is the full bootstrap, and the
	// CLIs' -mode flag defaults to it ("andersen").
	Mode Mode
	// AndersenThreshold is the partition size above which Andersen
	// clustering kicks in (paper: 60). Zero or less selects the default.
	AndersenThreshold int
	// Workers bounds the per-cluster parallelism. Zero or negative means
	// GOMAXPROCS; 1 forces sequential execution.
	Workers int
	// ClusterBudget caps the worklist tuples each per-cluster engine may
	// process — the analogue of the paper's 15-minute timeout. Zero means
	// unlimited. A tuple is one (token, condition) pair the engine
	// transfers at a node of the cluster's slice Prog_P (fscs.WithBudget);
	// nodes that pass every token through unchanged cost nothing.
	ClusterBudget int64
	// ClusterTimeout bounds the wall-clock time of each per-cluster
	// engine attempt — the paper's 15-minute timeout made literal. On
	// expiry the cluster walks the degradation ladder (see Retries). Zero
	// means no per-cluster deadline.
	ClusterTimeout time.Duration
	// RunTimeout bounds the wall-clock time of the whole per-cluster FSCS
	// stage, and of an eager ApplyEdit's re-solves; when it expires,
	// clusters still running (or not yet started) are demoted to the
	// flow-insensitive fallback — the run completes with degraded
	// precision instead of erroring. Zero means no whole-run deadline.
	RunTimeout time.Duration
	// Retries is the degradation ladder's retry count after a failed
	// attempt (budget, deadline or panic); each retry halves the
	// condition width (8 on the first attempt) and ClusterBudget. Zero
	// selects the default (1); negative disables retries, demoting on
	// the first failure.
	Retries int
	// Faults injects deterministic faults into chosen clusters — the
	// testing/chaos hook for the fault-tolerance layer. Nil injects
	// nothing. Faults apply to every solve: the eager scheduler's and the
	// query-time ones (EnsureCluster). While the plan has any armed
	// fault (faults.Plan.Active), the result cache is bypassed: injected
	// behavior is attempt-local by design.
	Faults *faults.Plan
	// Demand restricts the precise analysis to clusters containing at
	// least one pointer satisfying the predicate (the paper's
	// demand-driven mode). Nil analyzes every cluster.
	Demand func(*ir.Var) bool
	// Lazy defers all per-cluster FSCS work: no engines run during
	// AnalyzeProgram; the first query touching a cluster solves the whole
	// cluster, once, through EnsureCluster. This is the paper's "ability
	// to pick and choose which clusters to explore ... adapted on-the-fly
	// based on the demands of the application".
	Lazy bool
	// Cache, when non-nil, warm-starts the per-cluster FSCS stage: before
	// a cluster is dispatched to an engine its slice fingerprint is looked
	// up, hits import the stored summary tables and points-to sets instead
	// of solving (bit-for-bit identical results, per Theorem 6), and
	// first-attempt healthy solves are stored back. The cache may be
	// shared across runs and programs; see package cache. Query-time
	// solves (EnsureCluster) probe and store it too. Fault injection
	// (Faults) bypasses it.
	Cache *cache.Cache
	// Tracer, when non-nil, records one span per cascade phase (parse,
	// Steensgaard, clustering, FSCS stage, and the fallback
	// solve once a query reads it), per scheduled cluster and ladder
	// attempt (with cluster id, size, worker and outcome — solved, cached
	// or demoted), and per cache probe/import/store, in the Chrome trace
	// event format (see package obs). Nil disables tracing; every span
	// call is a nil-check no-op.
	Tracer *obs.Tracer
	// Metrics, when non-nil, accumulates the run's work counters and
	// histograms (worklist tuples, interning hits, cluster outcomes,
	// solve-time distribution, solver passes; see DESIGN.md §10). The
	// registry may be shared across runs — counters only ever add. Nil
	// disables; engines then skip even the end-of-run flush.
	Metrics *obs.Metrics
}

// Timing records where the analysis spent its time, mirroring the columns
// of the paper's Table 1: package bench reads its Steens column from
// Steensgaard, AndClust from a Lazy run's Clustering, and each cover's
// Time from an eager run's Wall. Per-cluster times are in Health.
type Timing struct {
	Lower       time.Duration // frontend (parse + lower + devirtualize)
	Steensgaard time.Duration // partitioning
	Clustering  time.Duration // cover construction, until its last cluster is admitted (eager: handed to the FSCS workers)
	FSCS        time.Duration // total sequential per-cluster FSCS time
	Wall        time.Duration // wall-clock of the cover and the FSCS stage it streams into (parallel)
}

// Analysis is a completed bootstrapped analysis with query access.
type Analysis struct {
	Prog   *ir.Program
	Steens *steens.Analysis
	// Andersen is the whole-program flow-insensitive fallback, the sound
	// answer wherever FSCS gives none: a demoted, unselected or
	// still-solving cluster, or an imprecise engine answer. No step of
	// the cascade reads it; it solves itself on its first read, once,
	// and a run whose answers never need it never solves it.
	Andersen  *andersen.Analysis
	CallGraph *callgraph.Graph
	Clusters  []*cluster.Cluster
	Timing    Timing

	// Health reports, per selected cluster (sorted by cluster ID), how
	// its engine fared under the fault-tolerant scheduler: completed,
	// retried, recovered from a panic, served from the result cache, or
	// demoted to the fallback. Empty in Lazy mode, where engines run at
	// query time.
	Health []ClusterHealth

	// CacheStats is this run's window over Config.Cache's counters
	// (zero without a cache). Under concurrent runs sharing one cache
	// the window includes the other runs' traffic.
	CacheStats cache.Stats

	cfg Config
	// mu serializes engine access (engines are single-threaded). It is a
	// pointer because ApplyEdit transplants engines from the previous
	// analysis into its successor: both generations must serialize
	// through the same lock while old-snapshot queries drain.
	mu *sync.Mutex
	// engines holds, by cluster ID, each cluster's solved (or
	// cache-imported) engine; nil when it has none.
	engines []*fscs.Engine
	// selected holds, by cluster ID, the clusters eligible for engines;
	// nil marks one not selected, or deselected by a demotion.
	selected []*cluster.Cluster
	// ptrStart and ptrClusters index the admitted clusters by pointer:
	// p's clusters are ptrClusters[ptrStart[p]:ptrStart[p+1]], in cover
	// order (see indexCover).
	ptrStart    []int32
	ptrClusters []int

	// Query-time solve state (see query.go): in-flight single-flight
	// solves, and by cluster ID the health of clusters solved on first
	// touch (nil: not solved at query time). An entry's ClusterID is not
	// kept up to date: an edit shares entries between generations, and
	// readers take the ID from the index.
	solving     map[int]*inflight
	queryHealth []*ClusterHealth

	// parts holds one record per Steensgaard partition of Steens, in
	// partition order: the edit that produced this analysis built them,
	// and the next edit looks its partitions up in them. nil after a
	// from-scratch run or a fallback (the next edit derives them from
	// the cover, see deriveParts).
	parts []partRecord
	// steensSigs is the per-variable Steensgaard signature table of
	// Steens, which ApplyEdit computed when it produced this analysis;
	// the next edit reuses it as its old-generation table. nil after a
	// from-scratch run or a fallback.
	steensSigs []uint64
	// canons is the program part of the cache key of every cluster,
	// shared by the run's workers and query-time solves. It is built
	// once the program is final, and only when Config.Cache is set.
	canons *cache.Table
}

// AnalyzeSource parses, lowers and analyzes CPL source text.
func AnalyzeSource(src string, cfg Config) (*Analysis, error) {
	// The frontend phase is timed directly: deriving it by subtracting
	// the other stages from the total underflows once stages overlap
	// wall-clock (parallel FSCS makes Wall < FSCS).
	t0 := time.Now()
	sp := cfg.Tracer.Start("phase", "parse", obs.TIDMain).Arg("bytes", len(src))
	prog, err := frontend.LowerSource(src)
	if err != nil {
		sp.Arg("error", err.Error()).End()
		return nil, err
	}
	sp.Arg("vars", prog.NumVars()).End()
	lower := time.Since(t0)
	a, err := AnalyzeProgram(prog, cfg)
	if err != nil {
		return nil, err
	}
	a.Timing.Lower = lower
	return a, nil
}

// AnalyzeProgram runs the full bootstrap cascade over an IR program. The
// program may still contain indirect-call placeholders; they are
// devirtualized with Steensgaard-resolved targets first. The program
// must not be mutated after analysis: solved engines, and the fallback
// solved on first read, walk it at query time.
func AnalyzeProgram(prog *ir.Program, cfg Config) (*Analysis, error) {
	return AnalyzeProgramContext(context.Background(), prog, cfg)
}

// AnalyzeProgramContext is AnalyzeProgram under a cancellation context.
// Cancelling ctx aborts the run with ctx's error. Deadlines configured in
// cfg (RunTimeout, ClusterTimeout) are softer: they degrade clusters to
// the flow-insensitive fallback and the analysis still completes, every
// query remaining sound.
//
// Every configuration runs the same cascade. Steensgaard (with
// devirtualization) and the call graph come first; the alias cover then
// arrives cluster by cluster in cover order and is admitted as it
// arrives. An eager run streams the admitted clusters straight into the
// FSCS workers, which start on the first one. A Lazy run returns once
// the whole cover is admitted; each cluster then solves on the first
// query touching it (EnsureCluster). Neither waits for the
// whole-program fallback (Analysis.Andersen): it solves on first read.
func AnalyzeProgramContext(ctx context.Context, prog *ir.Program, cfg Config) (*Analysis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	setDefaults(&cfg)
	if int(cfg.Mode) >= len(modeNames) {
		return nil, fmt.Errorf("core: unknown mode %d", cfg.Mode)
	}
	a := newAnalysis(prog, cfg)
	var cacheBefore cache.Stats
	if cfg.Cache != nil {
		cacheBefore = cfg.Cache.Stats()
	}
	tr := cfg.Tracer
	tr.NameThread(obs.TIDMain, "cascade")

	// Stage 0: Steensgaard over the whole program (the scalable base of
	// the cascade), plus function-pointer devirtualization.
	t0 := time.Now()
	sp := tr.Start("phase", "steensgaard", obs.TIDMain)
	sa, err := steensFront(prog)
	if err != nil {
		sp.End()
		return nil, err
	}
	a.Steens = sa
	sp.Arg("partitions", sa.NumPartitions()).Arg("max_partition", sa.MaxPartitionSize()).End()
	sa.Record(cfg.Metrics)
	a.Timing.Steensgaard = time.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: analysis cancelled: %w", err)
	}

	a.CallGraph = callgraph.Build(prog)
	if cfg.Cache != nil {
		a.canons = cache.NewTable(prog, sa, a.CallGraph)
	}
	a.Andersen = deferredFallback(prog, cfg)

	// The fscs span opens first so that it encloses the clustering span
	// the cover overlaps.
	t1 := time.Now()
	var fsp *obs.Span
	if !cfg.Lazy {
		fsp = tr.Start("phase", "fscs", obs.TIDMain).Arg("workers", cfg.Workers)
	}
	csp := tr.Start("phase", "clustering", obs.TIDMain).Arg("mode", cfg.Mode.String())
	cover := coverStream(ctx, prog, sa, cfg)
	admitCover := func(work chan<- *cluster.Cluster) {
		for c := range cover {
			a.Clusters = append(a.Clusters, c)
			if a.admit(c) && work != nil {
				work <- c
			}
		}
		a.indexCover()
		a.Timing.Clustering = time.Since(t1)
		csp.Arg("clusters", len(a.Clusters)).End()
	}

	var hs []ClusterHealth
	if cfg.Lazy {
		admitCover(nil)
	} else {
		// Stage 2: the precise per-cluster FSCS analyses, in parallel,
		// under the fault-tolerant scheduler (see RunCluster).
		work := make(chan *cluster.Cluster)
		go func() {
			defer close(work)
			admitCover(work)
		}()
		runCtx, cancel := stageContext(ctx, cfg)
		defer cancel()
		hs = a.runEager(runCtx, work, cfg)
		a.Timing.Wall = time.Since(t1)
		fsp.Arg("clusters", len(hs)).End()
	}
	if err := ctx.Err(); err != nil {
		// Explicit caller cancellation aborts, even mid-cover; cfg
		// deadlines never land here (runCtx expiring only degrades
		// clusters).
		return nil, fmt.Errorf("core: analysis cancelled: %w", err)
	}
	if !cfg.Lazy {
		a.recordEager(hs)
	}
	if cfg.Cache != nil {
		a.CacheStats = cfg.Cache.Stats().Sub(cacheBefore)
	}
	return a, nil
}

// setDefaults normalizes the config knobs every entry point depends on.
func setDefaults(cfg *Config) {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.AndersenThreshold < 1 {
		cfg.AndersenThreshold = cluster.DefaultAndersenThreshold
	}
}

// newAnalysis allocates the Analysis shell with its query-state maps.
func newAnalysis(prog *ir.Program, cfg Config) *Analysis {
	return &Analysis{
		Prog:    prog,
		cfg:     cfg,
		mu:      &sync.Mutex{},
		solving: map[int]*inflight{},
	}
}

// deferredFallback returns prog's whole-program Andersen fallback,
// solved on its first read. The solve, when it runs, is one `fallback`
// phase span on the fallback track and books its passes in cfg.Metrics.
func deferredFallback(prog *ir.Program, cfg Config) *andersen.Analysis {
	return andersen.Deferred(prog, func(solve func() andersen.SolverStats) {
		cfg.Tracer.NameThread(obs.TIDFallback, "fallback")
		sp := cfg.Tracer.Start("phase", "fallback", obs.TIDFallback)
		st := solve()
		sp.Arg("passes", st.Passes).End()
		st.Record(cfg.Metrics)
	})
}

// steensFront runs the Steensgaard base stage: analyze, devirtualize
// indirect calls with the resolved targets, and re-analyze when the
// program changed.
func steensFront(prog *ir.Program) (*steens.Analysis, error) {
	sa := steens.Analyze(prog)
	if frontend.HasIndirectCalls(prog) {
		if err := frontend.Devirtualize(prog, func(_ ir.Loc, fp ir.VarID) []ir.FuncID {
			return sa.Targets(fp)
		}); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		sa = steens.Analyze(prog)
	}
	return sa, nil
}

// coverStream delivers the run's alias cover in cover order, with final
// cluster IDs. The Andersen cover streams from cluster.StreamAndersen as
// partitions are refined on cfg.Workers goroutines; every other cover
// (the baselines) is built whole and fed. The cover is built under ctx,
// never under the RunTimeout deadline (see stageContext).
func coverStream(ctx context.Context, prog *ir.Program, sa *steens.Analysis, cfg Config) <-chan *cluster.Cluster {
	switch cfg.Mode {
	case ModeNone:
		return feed([]*cluster.Cluster{cluster.BuildWhole(prog, sa)})
	case ModeSteensgaard:
		return feed(cluster.BuildSteensgaard(prog, sa))
	case ModeSyntactic:
		return feed(cluster.BuildSyntactic(prog, sa))
	}
	return cluster.StreamAndersen(obs.ContextWithTracer(ctx, cfg.Tracer), prog, sa,
		cfg.AndersenThreshold, cfg.Workers)
}

// maxCond bounds the conjuncts per points-to constraint
// (fscs.WithMaxCond) on a cluster's first attempt; it is part of every
// cache key.
const maxCond = 8

// Engine returns the solved (or cache-imported) FSCS engine of a
// cluster, or nil when it has none: not selected, demoted, or in Lazy
// mode not yet solved. It never builds an engine; EnsureCluster does.
func (a *Analysis) Engine(clusterID int) *fscs.Engine {
	a.mu.Lock()
	defer a.mu.Unlock()
	return at(a.engines, clusterID)
}

// ClustersOf returns the IDs of the analyzed clusters containing p, in
// cover order.
func (a *Analysis) ClustersOf(p ir.VarID) []int {
	if p < 0 || int(p)+1 >= len(a.ptrStart) {
		return nil
	}
	lo, hi := a.ptrStart[p], a.ptrStart[p+1]
	return a.ptrClusters[lo:hi:hi]
}
