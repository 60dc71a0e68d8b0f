// Package core implements the paper's bootstrapping framework end to end:
// the cascade of increasingly precise analyses (Steensgaard → [One-Flow] →
// Andersen → summarization-based FSCS), where each stage runs only on the
// pointer subsets produced by the previous stage; per-cluster slicing via
// Algorithm 1; parallel execution of the independent per-cluster analyses;
// the paper's greedy k-machine simulation; and the demand-driven mode that
// analyzes only clusters whose pointers an application cares about (e.g.
// lock pointers for race detection).
//
// This is the public facade of the repository: parse/lower a program, call
// Analyze, and query flow- and context-sensitive aliases.
package core

import (
	"context"
	"fmt"
	"sort"
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
	"bootstrap/internal/oneflow"
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
	// clustering kicks in (paper: 60). Zero selects the default.
	AndersenThreshold int
	// UseOneFlow inserts Das's One-Level-Flow analysis between
	// Steensgaard and Andersen, refining which partitions are considered
	// oversized (the cascade extension the paper suggests in Section 4).
	UseOneFlow bool
	// Workers bounds the per-cluster parallelism. Zero or negative means
	// GOMAXPROCS; 1 forces sequential execution.
	Workers int
	// ClusterBudget caps the worklist tuples each per-cluster engine may
	// process — the analogue of the paper's 15-minute timeout. Zero means
	// unlimited.
	ClusterBudget int64
	// ClusterTimeout bounds the wall-clock time of each per-cluster
	// engine attempt — the paper's 15-minute timeout made literal. On
	// expiry the cluster walks the degradation ladder (see Retries). Zero
	// means no per-cluster deadline.
	ClusterTimeout time.Duration
	// RunTimeout bounds the wall-clock time of the whole per-cluster FSCS
	// stage; when it expires, clusters still running (or not yet started)
	// are demoted to the flow-insensitive fallback — the run completes
	// with degraded precision instead of erroring. Zero means no
	// whole-run deadline.
	RunTimeout time.Duration
	// Retries is the degradation ladder's retry count after a failed
	// attempt (budget, deadline or panic); each retry halves MaxCond and
	// ClusterBudget. Zero selects the default (1); negative disables
	// retries, demoting on the first failure.
	Retries int
	// Faults injects deterministic faults into chosen clusters — the
	// testing/chaos hook for the fault-tolerance layer. Nil injects
	// nothing. Faults apply to the eager scheduler and to query-time
	// solves (EnsureCluster); engines created implicitly by the classic
	// query methods in Lazy mode are not covered. While the plan has any
	// armed fault (Plan.Active), the result cache is bypassed: injected
	// behavior is attempt-local by design.
	Faults *faults.Plan
	// MaxCond bounds constraint conjunctions (default 8).
	MaxCond int
	// Demand restricts the precise analysis to clusters containing at
	// least one pointer satisfying the predicate (the paper's
	// demand-driven mode). Nil analyzes every cluster.
	Demand func(*ir.Var) bool
	// Lazy defers all per-cluster FSCS work: no engines run during
	// AnalyzeProgram; a cluster is analyzed the first time one of its
	// pointers is queried. This is the paper's "ability to pick and
	// choose which clusters to explore ... adapted on-the-fly based on
	// the demands of the application".
	Lazy bool
	// HybridSizeLimit, when positive, enables the paper's hybrid mode:
	// clusters larger than the limit are not given the expensive FSCS
	// treatment — queries on their pointers answer from the
	// flow-insensitive Andersen result instead ("one may choose to engage
	// different pointer analysis methods to analyze different clusters
	// based on their sizes and access densities").
	HybridSizeLimit int
	// SteensPrecise enables the oversharing-resistant Steensgaard
	// variant: write-only sink variables no longer eagerly unify the
	// partitions copied into them; instead the sink joins each source's
	// partition through a post-fixpoint overlay, producing an overlapping
	// alias cover with measurably smaller maximum partitions. Sound per
	// the Theorem 7 overlap semantics the cascade already supports;
	// results may be strictly more precise than the default.
	SteensPrecise bool
	// Cache, when non-nil, warm-starts the per-cluster FSCS stage: before
	// a cluster is dispatched to an engine its slice fingerprint is looked
	// up, hits import the stored summary tables and points-to sets instead
	// of solving (bit-for-bit identical results, per Theorem 6), and
	// first-attempt healthy solves are stored back. The cache may be
	// shared across runs and programs; see package cache. Fault injection
	// (Faults) bypasses it, and lazy query-time engines are not cached.
	Cache *cache.Cache
	// Tracer, when non-nil, records one span per cascade phase (parse,
	// Steensgaard, One-Flow, clustering, fallback, FSCS stage), per
	// scheduled cluster and ladder attempt (with cluster id, size, worker
	// and outcome — solved, cached or demoted), and per cache
	// probe/import/store, in the Chrome trace event format (see package
	// obs). Nil disables tracing; every span call is a nil-check no-op.
	Tracer *obs.Tracer
	// Metrics, when non-nil, accumulates the run's work counters and
	// histograms (worklist tuples, interning hits, cluster outcomes,
	// solve-time distribution, solver passes; see DESIGN.md §10). The
	// registry may be shared across runs — counters only ever add. Nil
	// disables; engines then skip even the end-of-run flush.
	Metrics *obs.Metrics
}

// steensOpts translates the config's partitioning knobs into Steensgaard
// options.
func (cfg Config) steensOpts() []steens.Option {
	if cfg.SteensPrecise {
		return []steens.Option{steens.Precise()}
	}
	return nil
}

// Timing records where the analysis spent its time, mirroring the columns
// of the paper's Table 1.
type Timing struct {
	Lower       time.Duration // frontend (parse + lower + devirtualize)
	Steensgaard time.Duration // partitioning
	OneFlow     time.Duration // optional cascade stage
	Clustering  time.Duration // Andersen clustering (refinement of oversized partitions)
	FSCS        time.Duration // total sequential per-cluster FSCS time
	Wall        time.Duration // wall-clock FSCS time (parallel)
	PerCluster  []time.Duration
}

// Analysis is a completed bootstrapped analysis with query access.
type Analysis struct {
	Prog      *ir.Program
	Steens    *steens.Analysis
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
	mu        *sync.Mutex
	engines   map[int]*fscs.Engine
	selected  map[int]*cluster.Cluster // clusters eligible for engines (lazy mode)
	byPointer map[ir.VarID][]int       // pointer -> cluster ids containing it

	// Query-time solve state (see query.go): in-flight single-flight
	// solves and the health of clusters solved on first touch.
	solving     map[int]*inflight
	queryHealth map[int]ClusterHealth

	// partBases caches, per Steensgaard partition (keyed by member
	// list), the partition's Algorithm-1 base slice. ApplyEdit consults
	// it to decide partition reuse without recomputing the slice and
	// refreshes it for the successor analysis; nil after a from-scratch
	// run (ApplyEdit then computes bases on first use).
	partBases map[string]*cluster.Cluster
}

// AnalyzeSource parses, lowers and analyzes CPL source text.
func AnalyzeSource(src string, cfg Config) (*Analysis, error) {
	return AnalyzeSourceContext(context.Background(), src, cfg)
}

// AnalyzeSourceContext is AnalyzeSource under a cancellation context (see
// AnalyzeProgramContext).
func AnalyzeSourceContext(ctx context.Context, src string, cfg Config) (*Analysis, error) {
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
	a, err := AnalyzeProgramContext(ctx, prog, cfg)
	if err != nil {
		return nil, err
	}
	a.Timing.Lower = lower
	return a, nil
}

// AnalyzeProgram runs the full bootstrap cascade over an IR program. The
// program may still contain indirect-call placeholders; they are
// devirtualized with Steensgaard-resolved targets first.
func AnalyzeProgram(prog *ir.Program, cfg Config) (*Analysis, error) {
	return AnalyzeProgramContext(context.Background(), prog, cfg)
}

// AnalyzeProgramContext is AnalyzeProgram under a cancellation context.
// Cancelling ctx aborts the run with ctx's error. Deadlines configured in
// cfg (RunTimeout, ClusterTimeout) are softer: they degrade clusters to
// the flow-insensitive fallback and the analysis still completes, every
// query remaining sound.
func AnalyzeProgramContext(ctx context.Context, prog *ir.Program, cfg Config) (*Analysis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	planDefaults(&cfg)

	// The eager full-bootstrap cascade runs pipelined: clusters stream
	// from cover construction straight into the FSCS workers instead of
	// waiting for the whole cover, and the fallback runs concurrently.
	// Every other configuration (other modes, One-Flow refinement, lazy
	// mode) takes the serial BuildPlan + AnalyzeFromPlan path below.
	if cfg.Mode == ModeAndersen && !cfg.UseOneFlow && !cfg.Lazy {
		a := newAnalysis(prog, cfg)
		var cacheBefore cache.Stats
		if cfg.Cache != nil {
			cacheBefore = cfg.Cache.Stats()
		}
		tr := cfg.Tracer
		tr.NameThread(obs.TIDMain, "cascade")

		// Stage 0: Steensgaard over the whole program (the scalable base
		// of the cascade), plus function-pointer devirtualization.
		t0 := time.Now()
		sp := tr.Start("phase", "steensgaard", obs.TIDMain)
		sa, err := steensFront(prog, cfg)
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
		if err := a.runPipelined(ctx, sa, cfg); err != nil {
			return nil, err
		}
		if cfg.Cache != nil {
			a.CacheStats = cfg.Cache.Stats().Sub(cacheBefore)
		}
		return a, nil
	}

	pl, err := BuildPlan(ctx, prog, cfg)
	if err != nil {
		return nil, err
	}
	return AnalyzeFromPlan(ctx, pl, cfg)
}

// runPipelined is the overlapped eager ModeAndersen cascade: the Andersen
// cover is built partition-by-partition on a worker pool and each finished
// cluster streams straight into the FSCS stage, while the whole-program
// flow-insensitive fallback and the call graph are computed concurrently
// (FSCS workers block on their readiness before the first engine runs).
//
// Output is identical to the serial path: the stream delivers clusters in
// BuildAndersen order with BuildAndersen IDs, and the shared scheduler
// installs results by cluster ID and reports health sorted by it. The
// cover is built under the caller's ctx, not the RunTimeout context (see
// stageContext).
func (a *Analysis) runPipelined(ctx context.Context, sa *steens.Analysis, cfg Config) error {
	prog, tr := a.Prog, cfg.Tracer
	tr.NameThread(obs.TIDFallback, "fallback")
	fallbackReady := make(chan struct{})
	go func() {
		defer close(fallbackReady)
		sp := tr.Start("phase", "fallback", obs.TIDFallback)
		a.Andersen = andersen.Analyze(prog)
		a.CallGraph = callgraph.Build(prog)
		sp.End()
	}()

	t1 := time.Now()
	fsp := tr.Start("phase", "fscs", obs.TIDMain).Arg("workers", cfg.Workers)
	csp := tr.Start("phase", "clustering", obs.TIDMain).Arg("mode", cfg.Mode.String())
	stream := cluster.StreamAndersen(obs.ContextWithTracer(ctx, tr), prog, sa,
		cfg.AndersenThreshold, cfg.Workers)
	work := make(chan *cluster.Cluster)
	go func() {
		defer close(work)
		for c := range stream {
			a.Clusters = append(a.Clusters, c)
			if a.admit(c) {
				work <- c
			}
		}
		// Under pipelining the clustering span overlaps the FSCS wall
		// clock; it ends when the last partition's refinement has been
		// delivered.
		a.Timing.Clustering = time.Since(t1)
		csp.Arg("clusters", len(a.Clusters)).End()
	}()
	runCtx, cancel := stageContext(ctx, cfg)
	defer cancel()
	hs := a.runEager(runCtx, work, fallbackReady, cfg)
	a.Timing.Wall = time.Since(t1)
	fsp.Arg("clusters", len(hs)).End()
	a.Andersen.SolverStats().Record(cfg.Metrics)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: analysis cancelled: %w", err)
	}
	a.recordEager(hs)
	return nil
}

func maxCondOrDefault(n int) int {
	if n <= 0 {
		return 8
	}
	return n
}

// buildWithOneFlow refines the oversized judgement with One-Flow: an
// oversized Steensgaard partition whose largest One-Flow refinement is
// within the threshold is split along the One-Flow refinement instead of
// paying for an Andersen run.
func buildWithOneFlow(prog *ir.Program, sa *steens.Analysis, of *oneflow.Analysis, threshold int) []*cluster.Cluster {
	var out []*cluster.Cluster
	andersenCover := cluster.BuildAndersen(prog, sa, threshold)
	// BuildAndersen already keeps small partitions; reuse it, but first
	// check the One-Flow split for the oversized ones. For simplicity the
	// One-Flow stage only changes which partitions get the expensive
	// Andersen treatment; correctness is unchanged (both are alias
	// covers). When One-Flow refines an oversized partition into pieces
	// within the threshold, those pieces are used directly.
	// partKey identifies a partition by the base representative of its
	// first non-sink member. Under the precise-Steensgaard overlapping
	// cover, a multi-membership sink's Rep points at its *base* partition,
	// so keying blindly by element 0 could collide two distinct expanded
	// partitions and drop a needed Andersen cluster. Non-sink members are
	// unambiguous; a group with no non-sink member (all overlay sinks)
	// gets no key and is never replaced — keeping it is sound, merely
	// redundant.
	partKey := func(vs []ir.VarID) int {
		for _, v := range vs {
			if sa.SinkClasses(v) == nil {
				return sa.Rep(v)
			}
		}
		return -1
	}
	refined := map[int]bool{}
	for _, part := range sa.Partitions() {
		if len(part) <= threshold {
			continue
		}
		key := partKey(part)
		if key < 0 {
			continue
		}
		pieces := of.Refine(part)
		max := 0
		for _, p := range pieces {
			if len(p) > max {
				max = len(p)
			}
		}
		if max <= threshold && len(pieces) > 1 {
			refined[key] = true
			for _, piece := range pieces {
				out = append(out, cluster.New(prog, sa, len(out), cluster.KindOneFlow, piece))
			}
		}
	}
	for _, c := range andersenCover {
		if len(c.Pointers) > 0 && c.Kind == cluster.KindAndersen {
			if key := partKey(c.Pointers); key >= 0 && refined[key] {
				continue // replaced by One-Flow pieces
			}
		}
		cc := *c
		cc.ID = len(out)
		out = append(out, &cc)
	}
	return out
}

// getEngine returns (creating lazily when Config.Lazy) the engine of a
// selected cluster; nil if the cluster was not selected. Callers must hold
// a.mu.
func (a *Analysis) getEngine(clusterID int) *fscs.Engine {
	if e, ok := a.engines[clusterID]; ok {
		return e
	}
	c, ok := a.selected[clusterID]
	if !ok || !a.cfg.Lazy {
		return nil
	}
	// Lazy mode: create the engine without a Run — the query itself
	// drives exactly the summary and points-to computation it needs.
	e := fscs.NewEngine(a.Prog, a.CallGraph, a.Steens, c,
		fscs.WithFallback(a.Andersen),
		fscs.WithBudget(a.cfg.ClusterBudget),
		fscs.WithMaxCond(maxCondOrDefault(a.cfg.MaxCond)),
		fscs.WithMetrics(a.cfg.Metrics))
	a.engines[clusterID] = e
	return e
}

// Engine returns the FSCS engine of a cluster (nil if the cluster was not
// selected for analysis). In lazy mode the engine is created on first use.
func (a *Analysis) Engine(clusterID int) *fscs.Engine {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.getEngine(clusterID)
}

// ClustersOf returns the IDs of the analyzed clusters containing p.
func (a *Analysis) ClustersOf(p ir.VarID) []int { return a.byPointer[p] }

// MayAlias reports whether p and q may alias at loc: per Theorems 6 and 7
// it suffices to check the clusters containing p. Engines are not
// concurrency-safe, so queries are serialized.
func (a *Analysis) MayAlias(p, q ir.VarID, loc ir.Loc) bool {
	if p == q {
		return true
	}
	if !a.Steens.SamePartition(p, q) {
		return false // disjoint cover: cannot alias
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := a.byPointer[p]
	if len(ids) == 0 {
		// p was not selected (demand-driven or hybrid mode) — fall back
		// soundly to the flow-insensitive result.
		return a.Andersen.MayAlias(p, q)
	}
	for _, id := range ids {
		eng := a.getEngine(id)
		if eng == nil {
			continue
		}
		if !eng.Cluster().HasPointer(q) {
			continue
		}
		if eng.MayAlias(p, q, loc) {
			return true
		}
	}
	// If no analyzed cluster contains both, they share no Andersen
	// object; under the disjunctive cover they cannot alias unless the
	// flow-insensitive fallback says so for unanalyzed pairs.
	for _, id := range ids {
		if eng := a.getEngine(id); eng != nil && eng.Cluster().HasPointer(q) {
			return false
		}
	}
	return a.Andersen.MayAlias(p, q)
}

// Aliases returns the pointers that may alias p at loc: the union of the
// per-cluster alias sets (condition (ii) of Section 2).
func (a *Analysis) Aliases(p ir.VarID, loc ir.Loc) []ir.VarID {
	a.mu.Lock()
	defer a.mu.Unlock()
	set := map[ir.VarID]bool{}
	for _, id := range a.byPointer[p] {
		eng := a.getEngine(id)
		if eng == nil {
			continue
		}
		for _, q := range eng.Aliases(p, loc) {
			set[q] = true
		}
	}
	out := make([]ir.VarID, 0, len(set))
	for q := range set {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MustAlias reports whether p and q must alias at loc, via any analyzed
// cluster containing both.
func (a *Analysis) MustAlias(p, q ir.VarID, loc ir.Loc) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, id := range a.byPointer[p] {
		eng := a.getEngine(id)
		if eng == nil || !eng.Cluster().HasPointer(q) {
			continue
		}
		if eng.MustAlias(p, q, loc) {
			return true
		}
	}
	return false
}

// PointsTo returns the objects p may reference at loc (union over p's
// clusters), and whether every contributing engine was precise.
func (a *Analysis) PointsTo(p ir.VarID, loc ir.Loc) ([]ir.VarID, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	set := map[ir.VarID]bool{}
	precise := true
	found := false
	for _, id := range a.byPointer[p] {
		eng := a.getEngine(id)
		if eng == nil {
			continue
		}
		found = true
		objs, ok := eng.Values(p, loc)
		precise = precise && ok
		for _, o := range objs {
			set[o] = true
		}
	}
	if !found {
		var objs []ir.VarID
		a.Andersen.PointsToSet(p).ForEach(func(o int) bool {
			objs = append(objs, ir.VarID(o))
			return true
		})
		return objs, false
	}
	out := make([]ir.VarID, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, precise
}

// DerefState resolves what a dereference of p at loc may observe: the
// referable objects, whether some path arrives with p null or
// uninitialized, and whether the answer is precise. Pointers outside every
// analyzed cluster fall back to the flow-insensitive set with
// precise=false and unknown flags cleared.
func (a *Analysis) DerefState(p ir.VarID, loc ir.Loc) (objs []ir.VarID, mayNull, mayUninit, precise bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	set := map[ir.VarID]bool{}
	precise = true
	found := false
	for _, id := range a.byPointer[p] {
		eng := a.getEngine(id)
		if eng == nil {
			continue
		}
		found = true
		st := eng.ValueState(p, loc)
		precise = precise && !st.Unknown
		mayNull = mayNull || st.Null
		mayUninit = mayUninit || st.Uninit
		for _, o := range st.Objs {
			set[o] = true
		}
	}
	if !found {
		objs, _ = a.PointsToLockedFallback(p)
		return objs, false, false, false
	}
	objs = make([]ir.VarID, 0, len(set))
	for o := range set {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	return objs, mayNull, mayUninit, precise
}

// ValuesInContext returns the objects p may reference at loc when reached
// via the given call path (fully flow- AND context-sensitive), unioned
// over p's clusters. The boolean reports precision.
func (a *Analysis) ValuesInContext(p ir.VarID, loc ir.Loc, ctx fscs.Context) ([]ir.VarID, bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	set := map[ir.VarID]bool{}
	precise := true
	found := false
	for _, id := range a.byPointer[p] {
		eng := a.getEngine(id)
		if eng == nil {
			continue
		}
		objs, ok, err := eng.ValuesInContext(p, loc, ctx)
		if err != nil {
			return nil, false, err
		}
		found = true
		precise = precise && ok
		for _, o := range objs {
			set[o] = true
		}
	}
	if !found {
		objs, ok := a.PointsToLockedFallback(p)
		return objs, ok, nil
	}
	out := make([]ir.VarID, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, precise, nil
}

// PointsToLockedFallback returns the flow-insensitive points-to set; the
// caller must hold a.mu. The boolean is always false (imprecise).
func (a *Analysis) PointsToLockedFallback(p ir.VarID) ([]ir.VarID, bool) {
	var objs []ir.VarID
	a.Andersen.PointsToSet(p).ForEach(func(o int) bool {
		objs = append(objs, ir.VarID(o))
		return true
	})
	return objs, false
}

// MustAliasInContext reports whether p and q must alias at loc in the
// given call path, via any analyzed cluster containing both.
func (a *Analysis) MustAliasInContext(p, q ir.VarID, loc ir.Loc, ctx fscs.Context) (bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, id := range a.byPointer[p] {
		eng := a.getEngine(id)
		if eng == nil || !eng.Cluster().HasPointer(q) {
			continue
		}
		ok, err := eng.MustAliasInContext(p, q, loc, ctx)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// SimulateParallel reproduces the paper's experiment setup: distribute the
// clusters into k parts with the greedy heuristic (accumulate clusters
// until a part's pointer count reaches total/k), time each part as the sum
// of its per-cluster times, and return the maximum over parts — the
// simulated wall-clock on k machines.
func SimulateParallel(clusters []*cluster.Cluster, times []time.Duration, k int) time.Duration {
	if len(clusters) == 0 || k <= 0 {
		return 0
	}
	total := 0
	for _, c := range clusters {
		total += c.Size()
	}
	perPart := total / k
	if perPart == 0 {
		perPart = 1
	}
	var maxPart, curTime time.Duration
	curSize := 0
	for i, c := range clusters {
		curSize += c.Size()
		if i < len(times) {
			curTime += times[i]
		}
		if curSize >= perPart {
			if curTime > maxPart {
				maxPart = curTime
			}
			curSize, curTime = 0, 0
		}
	}
	if curTime > maxPart {
		maxPart = curTime
	}
	return maxPart
}
