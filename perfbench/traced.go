package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"bootstrap/internal/andersen"
	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
	"bootstrap/internal/serve"
	"bootstrap/internal/steens"
)

// layerMetric is one per-layer metric of the traced run. Time and byte
// metrics are the median over ops; counts are the mean over ops, so a
// count repeats exactly when the op sequence does. Exact counts do not
// depend on the machine and must repeat exactly for a seed.
type layerMetric struct {
	Name, Unit string
	Exact      bool
}

var layerMetrics = []layerMetric{
	{"frontend.ms", "ms", false},
	{"frontend.alloc_mb", "MB", false},
	{"frontend.nodes", "count", true},
	{"steens.ms", "ms", false},
	{"steens.alloc_mb", "MB", false},
	{"steens.partitions", "count", true},
	{"steens.max_partition", "count", false},
	{"cluster.ms", "ms", false},
	{"cluster.alloc_mb", "MB", false},
	{"cluster.clusters", "count", true},
	{"cluster.max_size", "count", false},
	{"cluster.slice_stmts", "count", false},
	{"andersen.ms", "ms", false},
	{"andersen.alloc_mb", "MB", false},
	{"andersen.passes", "count", true},
	{"andersen.waves", "count", true},
	{"andersen.delta_edges_fired", "count", true},
	{"fscs.busy_ms", "ms", false},
	{"fscs.max_cluster_ms", "ms", false},
	{"fscs.alloc_mb", "MB", false},
	{"fscs.tuples", "count", true},
	{"fscs.solved", "count", false},
	{"fscs.demoted", "count", false},
	{"cache.busy_ms", "ms", false},
	{"cache.canon_ms", "ms", false},
	{"cache.import_ms", "ms", false},
	{"cache.hits", "count", true},
	{"cache.misses", "count", true},
	{"cache.hit_rate", "ratio", false},
	{"cache.entry_bytes", "bytes", false},
	{"core.wall_ms", "ms", false},
	{"core.parallelism", "ratio", false},
	{"ir.edit_ms", "ms", false},
	{"core.edit_server_ms", "ms", false},
	{"core.edit_dirty", "count", true},
	{"core.edit_reused", "count", false},
	{"core.edit_fallbacks", "count", false},
	{"core.query_us", "us", false},
	{"core.lazy_solves", "count", false},
	{"core.imprecise", "count", false},
	{"serve.server_us", "us", false},
	{"serve.http_us", "us", false},
	{"serve.non200", "count", false},
	{"serve.shed", "count", false},
	{"trace.total_ms", "ms", false},
	{"trace.untraced_ms", "ms", false},
	{"trace.gap_ms", "ms", false},
}

// tracedRun accumulates per-op layer values.
type tracedRun struct {
	o     *outcome
	rec   *recorder
	perOp []map[string]float64
	// runLevel values are not per op (set-up counts).
	runLevel map[string]float64
}

func newTracedRun() *tracedRun {
	return &tracedRun{o: &outcome{}, rec: newRecorder(), runLevel: map[string]float64{}}
}

// finish aggregates the per-op values into the layer metrics, writes
// the spans out, and checks that exact counts repeated across ops where
// every op is the same work (sameWork).
func (t *tracedRun) finish(workload string, seed int64, sameWork bool, gapLabel string) *outcome {
	o := t.o
	for _, m := range layerMetrics {
		var xs []float64
		for _, op := range t.perOp {
			if v, ok := op[m.Name]; ok {
				xs = append(xs, v)
			}
		}
		v, ok := t.runLevel[m.Name]
		switch {
		case ok:
		case len(xs) == 0:
			v = 0
		case m.Unit == "count":
			for _, x := range xs {
				v += x
			}
			v /= float64(len(t.perOp))
		default:
			v = median(xs)
		}
		if m.Exact && sameWork && len(xs) > 0 && slices.Min(xs) != slices.Max(xs) {
			o.problem(fmt.Errorf("exact count %s varied across identical ops: %v..%v", m.Name, slices.Min(xs), slices.Max(xs)))
		}
		o.add(m.Name, m.Unit, v)
	}
	o.note("trace.gap_ms = trace.total_ms - trace.untraced_ms: %s", gapLabel)
	name := fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed)
	if path, err := t.rec.write(spanDir, name); err != nil {
		o.note("spans not written: %v", err)
	} else {
		o.note("%d spans written to %s", len(t.rec.spans), path)
	}
	return o
}

// spanDir is where traced runs write their spans, relative to the
// checkout root the benchmark runs from.
var spanDir = filepath.Join(".bench_build", "spans")

// andersenOpts are the solver options core derives from the default
// configuration; the traced re-drive passes the same.
func andersenOpts() []andersen.Option {
	return []andersen.Option{
		andersen.WithCycleElimination(),
		andersen.WithDeltaPropagation(),
		andersen.WithParallelSolve(runtime.GOMAXPROCS(0), 0),
	}
}

// maxCond is the default condition-width bound the cache key carries.
const maxCond = 8

// steensFront is Steensgaard plus devirtualization, as core runs it.
func steensFront(prog *ir.Program) (*steens.Analysis, error) {
	sa := steens.Analyze(prog)
	if frontend.HasIndirectCalls(prog) {
		if err := frontend.Devirtualize(prog, func(_ ir.Loc, fp ir.VarID) []ir.FuncID { return sa.Targets(fp) }); err != nil {
			return nil, err
		}
		sa = steens.Analyze(prog)
	}
	return sa, nil
}

func traceCold(seed int64, ops int) (*outcome, error) { return traceEager(seed, ops, false) }
func traceWarm(seed int64, ops int) (*outcome, error) { return traceEager(seed, ops, true) }

// traceEager re-drives each cold or warm op through the layers' public
// calls in the order core's serial path (BuildPlan + AnalyzeFromPlan)
// makes them, one call at a time, then runs the untraced
// core.AnalyzeSource and cross-checks the two.
func traceEager(seed int64, ops int, warm bool) (*outcome, error) {
	src := source()
	cfg := analysisConfig()
	if warm {
		cfg.Cache = cache.New(cache.Options{})
	}
	a, err := core.AnalyzeSource(src, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up analysis: %w", err)
	}
	ref, err := newReference(a, src, seed)
	if err != nil {
		return nil, err
	}
	a = nil

	t := newTracedRun()
	rec := t.rec
	layer := "fscs"
	if warm {
		layer = "cache"
	}
	for i := 0; i < ops && !overtime(t.o, t.rec.t0, i); i++ {
		runtime.GC()
		first := rec.nextOp()
		m := map[string]float64{}
		var (
			prog     *ir.Program
			sa       *steens.Analysis
			clusters []*cluster.Cluster
			fb       *andersen.Analysis
			cg       *callgraph.Graph
			ua       *core.Analysis
			err      error
		)
		var before cache.Stats
		var engines []*fscs.Engine
		maxCluster := 0.0
		rec.time("op", "serial re-drive", func() {
			rec.time("frontend", "frontend.LowerSource", func() { prog, err = frontend.LowerSource(src) })
			if err != nil {
				return
			}
			rec.time("steens", "steens.Analyze", func() { sa, err = steensFront(prog) })
			if err != nil {
				return
			}
			rec.time("cluster", "cluster.BuildAndersen", func() {
				clusters = cluster.BuildAndersen(prog, sa, cluster.DefaultAndersenThreshold, andersenOpts()...)
			})
			rec.time("andersen", "andersen.Analyze", func() { fb = andersen.Analyze(prog, andersenOpts()...) })
			rec.time("callgraph", "callgraph.Build", func() { cg = callgraph.Build(prog) })
			if warm {
				before = cfg.Cache.Stats()
			}
			engines = make([]*fscs.Engine, len(clusters))
			for j, c := range clusters {
				var h core.ClusterHealth
				t0 := time.Now()
				rec.time(layer, "core.RunCluster", func() {
					engines[j], h = core.RunCluster(context.Background(), prog, cg, sa, c, fb, cfg)
				})
				maxCluster = max(maxCluster, ms(time.Since(t0)))
				if h.Demoted {
					m["fscs.demoted"]++
				} else if !warm {
					m["fscs.solved"]++
					m["fscs.tuples"] += float64(engines[j].TuplesProcessed)
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("traced op %d: %w", i, err)
		}
		root := rec.spans[first]
		if warm {
			st := cfg.Cache.Stats().Sub(before)
			m["cache.hits"], m["cache.misses"], m["cache.hit_rate"] = float64(st.Hits), float64(st.Misses), st.HitRate()
			rec.time("cache.probe", "cache decomposition", func() {
				for _, c := range clusters {
					var cn *cache.Canon
					rec.time("cache.canon", "cache.NewCanon", func() {
						cn = cache.NewCanon(prog, sa, cg, c, cache.Params{MaxCond: maxCond})
					})
					data, _ := cfg.Cache.Get(cn.Key())
					m["cache.entry_bytes"] += float64(len(data))
					rec.time("cache.import", "fscs.ImportEngine", func() {
						_, err = fscs.ImportEngine(prog, cg, sa, c, cn, data,
							fscs.WithFallback(fb), fscs.WithMaxCond(maxCond), fscs.WithInterning(true))
					})
					if err != nil {
						return
					}
				}
			})
			if err != nil {
				t.o.opFailed(i, fmt.Errorf("import: %w", err))
			}
		}
		coreIdx := len(rec.spans)
		rec.time("core", "core.AnalyzeSource (untraced)", func() { ua, err = core.AnalyzeSource(src, cfg) })
		if err != nil {
			return nil, fmt.Errorf("untraced analysis: %w", err)
		}
		coreSpan := rec.spans[coreIdx]

		ns, alloc := layerSelf(rec.spans[first:])
		for _, l := range []string{"frontend", "steens", "cluster", "andersen"} {
			m[l+".ms"] = ms(time.Duration(ns[l]))
			m[l+".alloc_mb"] = mb(alloc[l])
		}
		m["frontend.nodes"] = float64(len(prog.Nodes))
		m["steens.partitions"] = float64(sa.NumPartitions())
		m["steens.max_partition"] = float64(sa.MaxPartitionSize())
		m["cluster.clusters"] = float64(len(clusters))
		for _, c := range clusters {
			m["cluster.max_size"] = max(m["cluster.max_size"], float64(c.Size()))
			m["cluster.slice_stmts"] += float64(len(c.Stmts))
		}
		st := fb.SolverStats()
		m["andersen.passes"], m["andersen.waves"], m["andersen.delta_edges_fired"] =
			float64(st.Passes), float64(st.Waves), float64(st.DeltaEdgesFired)
		if warm {
			m["cache.busy_ms"] = ms(time.Duration(ns["cache"]))
			m["cache.canon_ms"] = ms(time.Duration(ns["cache.canon"]))
			m["cache.import_ms"] = ms(time.Duration(ns["cache.import"]))
		} else {
			m["fscs.busy_ms"] = ms(time.Duration(ns["fscs"]))
			m["fscs.max_cluster_ms"] = maxCluster
			m["fscs.alloc_mb"] = mb(alloc["fscs"])
		}
		total := ms(time.Duration(root.End - root.Start))
		wall := ms(time.Duration(coreSpan.End - coreSpan.Start))
		m["core.wall_ms"] = wall
		m["core.parallelism"] = total / wall
		m["trace.total_ms"], m["trace.untraced_ms"], m["trace.gap_ms"] = total, wall, total-wall
		t.perOp = append(t.perOp, m)

		t.o.attempted++
		if err := crossCheck(ref, clusters, engines, prog, ua, warm); err != nil {
			t.o.opFailed(i, err)
		}
	}
	return t.finish(map[bool]string{false: "cold", true: "warm"}[warm], seed, true,
		"tracing overhead plus the pipelining and parallel overlap the serial re-drive gives up"), nil
}

// crossCheck compares a traced re-drive with the untraced analysis ua
// of the same op: the same cover, the same engine answers to the
// sampled queries, and ua's own checks against the reference.
func crossCheck(ref *reference, clusters []*cluster.Cluster, engines []*fscs.Engine, prog *ir.Program, ua *core.Analysis, warm bool) error {
	if err := ref.checkAnalysis(ua); err != nil {
		return fmt.Errorf("untraced: %w", err)
	}
	if warm {
		if st := ua.CacheStats; st.Misses != 0 {
			return fmt.Errorf("untraced: %d cache misses", st.Misses)
		}
	}
	if len(clusters) != len(ua.Clusters) {
		return fmt.Errorf("traced cover has %d clusters, untraced %d", len(clusters), len(ua.Clusters))
	}
	for j, c := range clusters {
		if !slices.Equal(c.Pointers, ua.Clusters[j].Pointers) {
			return fmt.Errorf("cluster %d differs between traced and untraced covers", j)
		}
	}
	for _, q := range ref.queries {
		p := prog.VarByName[q.P]
		loc := prog.Func(prog.FuncByName[q.At]).Exit
		for _, id := range ua.ClustersOf(p) {
			te, ue := engines[id], ua.Engine(id)
			if te == nil || ue == nil {
				return fmt.Errorf("%s: cluster %d has no engine", q, id)
			}
			got, _ := te.Values(p, loc)
			want, _ := ue.Values(p, loc)
			if !slices.Equal(got, want) {
				return fmt.Errorf("%s: cluster %d answers differ between traced and untraced", q, id)
			}
		}
	}
	return nil
}

// traceEdit re-drives each edit op: the IR edit (Program.Clone +
// ir.ApplyEdits) and the whole-program Steensgaard and Andersen re-runs
// on the edited program, then the served edit and query, then the
// direct core query on the served snapshot.
func traceEdit(seed int64, ops int) (*outcome, error) {
	src := source()
	s, err := newServer(src)
	if err != nil {
		return nil, err
	}
	if err := solveAll(s.Snapshot().A); err != nil {
		return nil, err
	}
	solved, _ := s.Snapshot().A.SolveStats()
	d, err := startDaemon(s, editConns)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if err := checkInitial(src, seed); err != nil {
		return nil, err
	}

	t := newTracedRun()
	t.runLevel["core.lazy_solves"] = float64(solved)
	rec := t.rec
	draws := newEditDraws(seed)
	every := max(1, ops/editChecks)
	for i := 0; i < ops && !overtime(t.o, t.rec.t0, i); i++ {
		sn := s.Snapshot()
		e, err := draws.next(sn.A, i)
		if err != nil {
			return nil, err
		}
		runtime.GC() // so that no collection lands in a span half done
		first := rec.nextOp()
		m := map[string]float64{}
		var (
			clone      *ir.Program
			sa         *steens.Analysis
			fb         *andersen.Analysis
			er         serve.EditResponse
			served     answer
			direct     answer
			qr         serve.QueryResponse
			editStatus int
			qStatus    int
			opErr      error
		)
		rec.time("op", "edit→answer", func() {
			rec.time("ir", "Program.Clone+ir.ApplyEdits", func() {
				clone = sn.Prog.Clone()
				_, opErr = ir.ApplyEdits(clone, []ir.Edit{e.ir})
			})
			rec.time("steens", "steens.Analyze", func() { sa = steens.Analyze(clone) })
			rec.time("andersen", "andersen.Analyze", func() { fb = andersen.Analyze(clone, andersenOpts()...) })
			var err error
			rec.time("serve.edit", "POST /edit", func() {
				editStatus, err = d.post("/edit", serve.EditRequest{Edits: []serve.EditSpec{e.spec}}, &er)
			})
			if err != nil {
				opErr = err
				return
			}
			rec.time("serve.query", "POST /v1/pointsto", func() { served, qr, qStatus, err = d.ask(e.q) })
			if err != nil {
				opErr = err
				return
			}
			rec.time("core.query", "Analysis.PointsToContext", func() { direct, err = ask(s.Snapshot().A, e.q) })
			if err != nil {
				opErr = err
			}
		})
		ns, alloc := layerSelf(rec.spans[first:])
		for _, l := range []string{"steens", "andersen"} {
			m[l+".ms"] = ms(time.Duration(ns[l]))
			m[l+".alloc_mb"] = mb(alloc[l])
		}
		m["ir.edit_ms"] = ms(time.Duration(ns["ir"]))
		if sa != nil {
			m["steens.partitions"] = float64(sa.NumPartitions())
			m["steens.max_partition"] = float64(sa.MaxPartitionSize())
		}
		if fb != nil {
			st := fb.SolverStats()
			m["andersen.passes"], m["andersen.waves"], m["andersen.delta_edges_fired"] =
				float64(st.Passes), float64(st.Waves), float64(st.DeltaEdgesFired)
		}
		m["serve.non200"] = countNon200(editStatus) + countNon200(qStatus)
		m["serve.shed"] = countShed(editStatus) + countShed(qStatus)
		t.o.attempted++
		if opErr == nil && er.FellBack {
			opErr = fmt.Errorf("edit fell back to a full reanalysis: %s", er.Reason)
		}
		if opErr == nil {
			m["core.edit_server_ms"] = float64(er.ElapsedUS) / 1e3
			m["core.edit_dirty"] = float64(er.Dirty)
			m["core.edit_reused"] = float64(er.Reused)
			m["core.edit_fallbacks"] = 0
			root, editSpan, qSpan, coreSpan := spanNamed(rec, first, "op"), spanNamed(rec, first, "serve.edit"),
				spanNamed(rec, first, "serve.query"), spanNamed(rec, first, "core.query")
			client := qSpan.End - qSpan.Start
			m["serve.server_us"] = float64(qr.ElapsedUS)
			m["serve.http_us"] = us(time.Duration(client)) - float64(qr.ElapsedUS)
			m["core.query_us"] = us(time.Duration(coreSpan.End - coreSpan.Start))
			m["core.imprecise"] = b2f(!served.Precise)
			total := ms(time.Duration(root.End - root.Start))
			untraced := ms(time.Duration(editSpan.End - editSpan.Start + client))
			m["trace.total_ms"], m["trace.untraced_ms"], m["trace.gap_ms"] = total, untraced, total-untraced
			opErr = crossCheckEdit(s.Snapshot().A, e.q, served, direct, sa, fb, clone)
		}
		if opErr == nil && (i%every == every-1 || i == ops-1) {
			opErr = checkServed(s.Snapshot().A, e.q, served)
		}
		if rerr := d.restore(e); opErr == nil {
			opErr = rerr
		}
		if opErr != nil {
			t.o.opFailed(i, opErr)
		}
		t.perOp = append(t.perOp, m)
	}
	return t.finish("edit", seed, false,
		"the benchmark-side re-drive of ir, steens, andersen and the direct core query, plus tracing overhead"), nil
}

// crossCheckEdit compares the traced re-drive of an edit with the
// served snapshot a: the served answer equals the direct core answer,
// and the re-driven Steensgaard partitions and Andersen points-to set of
// the edited destination equal the snapshot's.
func crossCheckEdit(a *core.Analysis, q query, served, direct answer, sa *steens.Analysis, fb *andersen.Analysis, clone *ir.Program) error {
	if !sameAnswer(served, direct) {
		return fmt.Errorf("%s: served %q, direct core query %q", q, served, direct)
	}
	if sa.NumPartitions() != a.Steens.NumPartitions() {
		return fmt.Errorf("re-driven steensgaard has %d partitions, snapshot %d", sa.NumPartitions(), a.Steens.NumPartitions())
	}
	p := clone.VarByName[q.P]
	if !slices.Equal(fb.PointsTo(p), a.Andersen.PointsTo(a.Prog.VarByName[q.P])) {
		return fmt.Errorf("%s: re-driven andersen points-to differs from the snapshot's", q)
	}
	return nil
}

// traceQuery drives each query op serially over one connection, then
// asks the same question of the served snapshot's core.Analysis
// directly.
func traceQuery(seed int64, ops int) (*outcome, error) {
	src := source()
	s, err := newServer(src)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(s, 1)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	sn := s.Snapshot()
	if err := d.touchAll(sn.A, 1); err != nil {
		return nil, err
	}
	pool, want, err := queryExpectations(src, seed)
	if err != nil {
		return nil, err
	}

	t := newTracedRun()
	solved, _ := sn.A.SolveStats()
	t.runLevel["core.lazy_solves"] = float64(solved)
	rec := t.rec
	for i := 0; i < ops && !overtime(t.o, t.rec.t0, i); i++ {
		q, w := pool[i%len(pool)], want[i%len(pool)]
		first := rec.nextOp()
		var (
			served, direct answer
			qr             serve.QueryResponse
			status         int
			err            error
		)
		rec.time("op", "query", func() {
			rec.time("serve.query", "POST /v1/pointsto|mayalias", func() { served, qr, status, err = d.ask(q) })
			if err != nil {
				return
			}
			rec.time("core.query", "Analysis.PointsToContext|MayAliasContext", func() { direct, err = ask(sn.A, q) })
		})
		m := map[string]float64{
			"serve.non200": countNon200(status),
			"serve.shed":   countShed(status),
		}
		t.o.attempted++
		if err == nil && !sameAnswer(served, w) {
			err = fmt.Errorf("%s: served %q, eager %q", q, served, w)
		}
		if err == nil && !sameAnswer(direct, w) {
			err = fmt.Errorf("%s: direct core query %q, eager %q", q, direct, w)
		}
		if err != nil {
			t.o.opFailed(i, err)
			t.perOp = append(t.perOp, m)
			continue
		}
		root, qSpan, coreSpan := spanNamed(rec, first, "op"), spanNamed(rec, first, "serve.query"), spanNamed(rec, first, "core.query")
		client := us(time.Duration(qSpan.End - qSpan.Start))
		m["serve.server_us"] = float64(qr.ElapsedUS)
		m["serve.http_us"] = client - float64(qr.ElapsedUS)
		m["core.query_us"] = us(time.Duration(coreSpan.End - coreSpan.Start))
		m["core.imprecise"] = b2f(!served.Precise)
		total := ms(time.Duration(root.End - root.Start))
		m["trace.total_ms"], m["trace.untraced_ms"], m["trace.gap_ms"] = total, client/1e3, total-client/1e3
		t.perOp = append(t.perOp, m)
	}
	return t.finish("query", seed, false, "the direct core query on the served snapshot, plus tracing overhead"), nil
}

// spanNamed returns the first span of layer recorded at or after index
// first.
func spanNamed(r *recorder, first int, layer string) span {
	for _, s := range r.spans[first:] {
		if s.Layer == layer {
			return s
		}
	}
	return span{}
}

// countNon200 counts a reply other than 200; status 0 is a request that
// was not sent or got no reply, which fails the op without a status.
func countNon200(status int) float64 { return b2f(status != 0 && status != 200) }
func countShed(status int) float64   { return b2f(status == 429) }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
