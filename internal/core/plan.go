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
	"bootstrap/internal/frontend"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
	"bootstrap/internal/oneflow"
	"bootstrap/internal/steens"
)

// Plan is the front-end's deterministic product: everything the eager
// per-cluster FSCS stage needs before any engine has run — the lowered
// (devirtualized) program, the Steensgaard base analysis, the
// flow-insensitive fallback, the call graph, and the alias cover with
// its final cluster IDs.
//
// The plan is the scheduler seam for remote execution: two processes
// that BuildPlan the same source under the same Config compute
// bit-identical covers with identical cluster IDs (every builder is
// deterministic), so a distributed coordinator can hand out bare
// cluster IDs as work items and a worker can resolve them against its
// own plan. Package dist is built entirely on this property.
type Plan struct {
	Prog      *ir.Program
	Steens    *steens.Analysis
	Andersen  *andersen.Analysis
	CallGraph *callgraph.Graph
	Clusters  []*cluster.Cluster

	// Timing covers the front-end stages (Steensgaard, One-Flow,
	// Clustering); AnalyzeFromPlan copies it into the Analysis and adds
	// the FSCS stage.
	Timing Timing
}

// Cluster returns the plan's cluster with the given ID, or nil. Cover
// builders assign IDs densely in cover order, so this is an index probe
// with a defensive scan fallback.
func (pl *Plan) Cluster(id int) *cluster.Cluster {
	if id >= 0 && id < len(pl.Clusters) && pl.Clusters[id].ID == id {
		return pl.Clusters[id]
	}
	for _, c := range pl.Clusters {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// planDefaults normalizes the config knobs both BuildPlan and the
// analyze entry points depend on.
func planDefaults(cfg *Config) {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.AndersenThreshold == 0 {
		cfg.AndersenThreshold = cluster.DefaultAndersenThreshold
	}
}

// steensFront runs the Steensgaard base stage: analyze, devirtualize
// indirect calls with the resolved targets, and re-analyze when the
// program changed.
func steensFront(prog *ir.Program, cfg Config) (*steens.Analysis, error) {
	sa := steens.Analyze(prog, cfg.steensOpts()...)
	if frontend.HasIndirectCalls(prog) {
		if err := frontend.Devirtualize(prog, func(_ ir.Loc, fp ir.VarID) []ir.FuncID {
			return sa.Targets(fp)
		}); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		sa = steens.Analyze(prog, cfg.steensOpts()...)
	}
	return sa, nil
}

// newAnalysis allocates the Analysis shell with its query-state maps.
func newAnalysis(prog *ir.Program, cfg Config) *Analysis {
	return &Analysis{
		Prog:        prog,
		cfg:         cfg,
		mu:          &sync.Mutex{},
		engines:     map[int]*fscs.Engine{},
		selected:    map[int]*cluster.Cluster{},
		byPointer:   map[ir.VarID][]int{},
		solving:     map[int]*inflight{},
		queryHealth: map[int]ClusterHealth{},
	}
}

// BuildPlan runs the serial front-end of the cascade — Steensgaard (plus
// devirtualization), optional One-Flow, the alias cover, the
// flow-insensitive fallback and the call graph — and returns the plan
// without running any per-cluster engine. AnalyzeProgramContext is
// BuildPlan + AnalyzeFromPlan (modulo the pipelined fast path, which
// overlaps the two on purpose).
func BuildPlan(ctx context.Context, prog *ir.Program, cfg Config) (*Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	planDefaults(&cfg)
	pl := &Plan{Prog: prog}
	tr := cfg.Tracer
	tr.NameThread(obs.TIDMain, "cascade")

	t0 := time.Now()
	sp := tr.Start("phase", "steensgaard", obs.TIDMain)
	sa, err := steensFront(prog, cfg)
	if err != nil {
		sp.End()
		return nil, err
	}
	pl.Steens = sa
	sp.Arg("partitions", sa.NumPartitions()).Arg("max_partition", sa.MaxPartitionSize()).End()
	sa.Record(cfg.Metrics)
	pl.Timing.Steensgaard = time.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: analysis cancelled: %w", err)
	}

	var of *oneflow.Analysis
	if cfg.UseOneFlow {
		t := time.Now()
		sp := tr.Start("phase", "oneflow", obs.TIDMain)
		of = oneflow.AnalyzeWith(prog, sa)
		sp.End()
		pl.Timing.OneFlow = time.Since(t)
	}

	t1 := time.Now()
	sp = tr.Start("phase", "clustering", obs.TIDMain).Arg("mode", cfg.Mode.String())
	switch cfg.Mode {
	case ModeNone:
		pl.Clusters = []*cluster.Cluster{cluster.BuildWhole(prog, sa)}
	case ModeSteensgaard:
		pl.Clusters = cluster.BuildSteensgaard(prog, sa)
	case ModeAndersen:
		threshold := cfg.AndersenThreshold
		if of != nil {
			pl.Clusters = buildWithOneFlow(prog, sa, of, threshold)
		} else {
			pl.Clusters = cluster.BuildAndersen(prog, sa, threshold)
		}
	case ModeSyntactic:
		pl.Clusters = cluster.BuildSyntactic(prog, sa)
	default:
		sp.End()
		return nil, fmt.Errorf("core: unknown mode %d", cfg.Mode)
	}
	sp.Arg("clusters", len(pl.Clusters)).End()
	pl.Timing.Clustering = time.Since(t1)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: analysis cancelled: %w", err)
	}

	sp = tr.Start("phase", "fallback", obs.TIDMain)
	pl.Andersen = andersen.Analyze(prog)
	pl.CallGraph = callgraph.Build(prog)
	sp.End()
	pl.Andersen.SolverStats().Record(cfg.Metrics)
	return pl, nil
}

// AnalyzeFromPlan runs the eager per-cluster FSCS stage over an already
// built plan, under the fault-tolerant scheduler, and returns the full
// query facade. This is the serial Stage 2 of AnalyzeProgramContext
// made callable on its own: the distributed coordinator uses it as the
// merge pass — with the shard fleet's shared result cache in
// cfg.Cache, every worker-solved cluster imports instead of solving,
// and any cluster the fleet failed (lost workers, expired leases)
// simply solves locally through the usual retry-then-demote ladder.
func AnalyzeFromPlan(ctx context.Context, pl *Plan, cfg Config) (*Analysis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	planDefaults(&cfg)
	a := newAnalysis(pl.Prog, cfg)
	a.Steens = pl.Steens
	a.Andersen = pl.Andersen
	a.CallGraph = pl.CallGraph
	a.Clusters = pl.Clusters
	a.Timing = pl.Timing

	var cacheBefore cache.Stats
	if cfg.Cache != nil {
		cacheBefore = cfg.Cache.Stats()
	}
	finish := func() *Analysis {
		if cfg.Cache != nil {
			a.CacheStats = cfg.Cache.Stats().Sub(cacheBefore)
		}
		return a
	}
	// Demand-driven selection, then the hybrid size cut-off: oversized
	// clusters keep the cheap flow-insensitive answer.
	var work []*cluster.Cluster
	for _, c := range a.Clusters {
		if a.admit(c) {
			work = append(work, c)
		}
	}
	if cfg.Lazy {
		// Engines are created (and compute) on first query.
		return finish(), nil
	}

	// Stage 2: the precise per-cluster FSCS analyses, in parallel, under
	// the fault-tolerant scheduler: each cluster gets a wall-clock
	// deadline and panic isolation, and on failure walks the degradation
	// ladder (retry with halved knobs, then demote to the fallback) so
	// one hard or broken cluster degrades only itself, never the run.
	runCtx, cancel := stageContext(ctx, cfg)
	defer cancel()
	tw := time.Now()
	fsp := cfg.Tracer.Start("phase", "fscs", obs.TIDMain).
		Arg("clusters", len(work)).Arg("workers", cfg.Workers)
	hs := a.runEager(runCtx, feed(work), nil, cfg)
	a.Timing.Wall = time.Since(tw)
	fsp.End()
	if err := ctx.Err(); err != nil {
		// Explicit caller cancellation aborts; cfg deadlines never land
		// here (runCtx expiring only degrades clusters).
		return nil, fmt.Errorf("core: analysis cancelled: %w", err)
	}
	a.recordEager(hs)
	return finish(), nil
}
