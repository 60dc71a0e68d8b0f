package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bootstrap/internal/cache"
	"bootstrap/internal/cluster"
	"bootstrap/internal/core"
	"bootstrap/internal/ir"
	"bootstrap/internal/serve"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// loopCap ends a measured loop early on a machine far slower than the
// nominal rates assume, so that a run still ends within its time limit.
const loopCap = 100 * time.Second

// Connections of the served workloads' closed loops: one editor, and as
// many query callers as the box has CPUs.
const (
	editConns  = 1
	queryConns = 2
)

// loop is the measurement state every untraced workload shares.
type loop struct {
	o      *outcome
	ops    int
	alloc0 uint64     // allocated bytes at begin, the kernel's excluded
	lat    []float64  // ms per op; failedLatency for a failed op
	steal  stealShare // over the ops' timed intervals
	cpu    time.Duration
	start  time.Time
	begun  stealMeter
	speed  *speedMeter // shared with the run's set-up
}

func newLoop(ops int, speed *speedMeter) *loop {
	return &loop{o: &outcome{}, ops: ops, lat: make([]float64, 0, ops), speed: speed}
}

// calibrate times the reference kernel when it is due after op i.
func (l *loop) calibrate(i int) {
	if due(i, l.ops) {
		l.speed.sample()
	}
}

func (l *loop) begin() {
	l.begun = startSteal()
	l.alloc0 = allocatedBytes() - l.speed.allocated
	l.start = time.Now()
}

// overtime reports whether a loop begun at start must stop before op
// i, and records the early stop as a problem of o.
func overtime(o *outcome, start time.Time, i int) bool {
	if time.Since(start) < loopCap {
		return false
	}
	o.problem(fmt.Errorf("stopped after %d ops at the %v loop cap", i, loopCap))
	return true
}

func (l *loop) overtime(i int) bool { return overtime(l.o, l.start, i) }

func (l *loop) record(i int, wall time.Duration, err error) {
	l.o.attempted++
	if err != nil {
		l.o.opFailed(i, err)
		l.lat = append(l.lat, failedLatency)
		return
	}
	l.lat = append(l.lat, ms(wall))
}

// finish computes the end-to-end metrics: times scaled to the reference
// kernel's nominal speed (speed.go), with the measured figures printed
// as context. live is the heap held by objects after a forced GC with
// the result or server still reachable.
func (l *loop) finish(setups []float64, live uint64) *outcome {
	o := l.o
	o.note("loop %.1f s, %.2f MB allocated per op (checks included, kernel excluded)",
		time.Since(l.start).Seconds(), mb(allocatedBytes()-l.speed.allocated-l.alloc0)/float64(max(1, o.attempted)))
	f := l.speed.factor()
	share := l.steal.share()
	p50 := median(l.lat)
	t, pct := tail(l.lat)
	o.note("steal share during the loop %.1f%%, during its ops %.1f%%; unadjusted p50_ms %.4f, tail_ms %.4f",
		100*l.begun.share(), 100*share, p50, t)
	p50, t = p50*(1-share), t*(1-share)
	cpu := ms(l.cpu) / float64(max(1, o.attempted))
	o.note("reference kernel: median %.2f ms CPU, %.2f ms wall over %d samples; times x %.4f",
		median(l.speed.cpu), median(l.speed.wall), len(l.speed.cpu), f)
	o.note("before scaling: setup_s %.4f, p50_ms %.4f, tail_ms %.4f, cpu_ms_per_op %.4f", median(setups), p50, t, cpu)
	o.note("tail_ms is p%.1f of n=%d ops", pct, len(l.lat))
	o.note("set-up samples %.4f s (steal-adjusted)", setups)
	o.note("kernel samples %.1f ms wall, %.1f ms CPU", l.speed.wall, l.speed.cpu)
	o.add("setup_s", "s", median(setups)*f)
	o.add("p50_ms", "ms", p50*f)
	o.add("tail_ms", "ms", t*f)
	o.add("cpu_ms_per_op", "ms", cpu*f)
	o.add("live_heap_mb", "MB", mb(live))
	o.add("ok_frac", "ratio", 1-float64(o.failed)/float64(max(1, o.attempted)))
	return o
}

// runCold times core.AnalyzeSource with no cache: the CLI and Table-1
// path. Set-up is the first analysis in the process, discarded.
func runCold(seed int64, ops int) (*outcome, error) {
	return runEager(seed, ops, false)
}

// runWarm times the same analysis against an in-memory cache filled in
// set-up: a CI re-run, where FSCS never runs.
func runWarm(seed int64, ops int) (*outcome, error) {
	return runEager(seed, ops, true)
}

func runEager(seed int64, ops int, warm bool) (*outcome, error) {
	src := source()
	cfg := analysisConfig()
	var a *core.Analysis
	speed := &speedMeter{}
	setups, err := timeSetups(speed, func() error {
		if warm {
			cfg.Cache = cache.New(cache.Options{})
		}
		var err error
		a, err = core.AnalyzeSource(src, cfg)
		return err
	}, func() { a = nil })
	if err != nil {
		return nil, err
	}
	ref, err := newReference(a, src, seed)
	if err != nil {
		return nil, err
	}
	a = nil

	l := newLoop(ops, speed)
	var prev *core.Analysis
	runtime.GC()
	l.begin()
	for i := 0; i < ops && !l.overtime(i); i++ {
		// Each op starts from a forced GC with the previous result
		// released; that GC is charged to the op that left the garbage.
		if prev != nil {
			c := cpuTime()
			prev = nil
			runtime.GC()
			l.cpu += cpuTime() - c
			l.calibrate(i - 1)
		}
		c0, steal, t0 := cpuTime(), startSteal(), time.Now()
		a, err := core.AnalyzeSource(src, cfg)
		wall := time.Since(t0)
		l.cpu += cpuTime() - c0
		l.steal.add(steal)
		if err == nil {
			err = ref.checkAnalysis(a)
		}
		if err == nil && warm {
			if st := a.CacheStats; st.Misses != 0 || st.HitRate() != 1 {
				err = fmt.Errorf("cache hit rate %.4f (%d misses)", st.HitRate(), st.Misses)
			}
		}
		l.record(i, wall, err)
		prev = a
	}
	c := cpuTime()
	runtime.GC()
	l.cpu += cpuTime() - c
	live := liveHeapBytes()
	l.calibrate(l.o.attempted - 1)
	if prev != nil {
		l.o.note("last op: %d clusters, cache hit rate %.3f", len(prev.Clusters), prev.CacheStats.HitRate())
	}
	if warm {
		l.o.note("cache entries %d, %d bytes", cfg.Cache.Len(), cfg.Cache.Bytes())
	}
	return l.finish(setups, live), nil
}

// timeSetups runs setup setupRepeats times, each after a forced GC,
// and returns the seconds each took, steal-adjusted. release drops the
// previous set-up's state before the next one is timed. The reference
// kernel is timed before each set-up.
func timeSetups(speed *speedMeter, setup func() error, release func()) ([]float64, error) {
	setups := make([]float64, setupRepeats)
	for i := range setups {
		if i > 0 {
			release()
		}
		speed.sample()
		runtime.GC()
		steal, t0 := startSteal(), time.Now()
		err := setup()
		setups[i] = time.Since(t0).Seconds() * (1 - steal.share())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return setups, nil
}

// editOps maps the statement operators an edit may replace to their
// /edit names.
var editOps = map[ir.Op]string{ir.OpCopy: "copy", ir.OpAddr: "addr", ir.OpLoad: "load"}

// edit is one seeded edit op: the /edit spec, the same edit in IR form,
// and the follow-up query, the points-to set of the edited statement's
// destination at its function's exit.
type edit struct {
	spec, undo serve.EditSpec
	ir         ir.Edit
	q          query
}

// heavyEvery fixes the edit mix: every heavyEvery-th edit changes a
// pointer of a Steensgaard partition above the Andersen threshold, whose
// clusters Andersen clustering re-derives (about 100 dirty clusters),
// and the others change pointers of smaller partitions (1 to 5). A
// uniform draw lands there about one edit in seven, but between 44 and
// 69 of 350 from seed to seed, which moved the tail with the seed.
const heavyEvery = 7

// heavySeed draws the heavy edits, the same ones in every run. The
// heavy edits make the tail, and which statements of the large partition
// a seed drew moved it by 15% (65 against 75 ms) from seed to seed; the
// run's seed draws the other edits.
const heavySeed = 7

// editDraws draws a run's edit sequence.
type editDraws struct{ light, heavy *rand.Rand }

func newEditDraws(seed int64) editDraws {
	return editDraws{light: rand.New(rand.NewSource(seed)), heavy: rand.New(rand.NewSource(heavySeed))}
}

// next derives edit op i against the served snapshot a.
func (d editDraws) next(a *core.Analysis, i int) (edit, error) {
	if i%heavyEvery == heavyEvery-1 {
		return nextEdit(a, d.heavy, true)
	}
	return nextEdit(a, d.light, false)
}

// nextEdit derives one seeded single-statement edit against the served
// snapshot a: the source operand of a plain copy, address-of or load
// (outside call bindings) is replaced by the source of another such
// statement in the same function whose source is in the same
// Steensgaard partition. Edits therefore never merge partitions: an
// unconstrained donor can fuse communities into one cluster whose
// re-solve outlasts the server's edit deadline. heavy selects whether
// the edited destination lies in a partition above the Andersen
// threshold.
func nextEdit(a *core.Analysis, rng *rand.Rand, heavy bool) (edit, error) {
	prog := a.Prog
	var eligible []ir.Loc
	for _, n := range prog.Nodes {
		if _, ok := editOps[n.Stmt.Op]; ok && n.CallLoc == ir.NoLoc &&
			(len(a.Steens.PartitionOf(n.Stmt.Dst)) > cluster.DefaultAndersenThreshold) == heavy {
			eligible = append(eligible, n.Loc)
		}
	}
	for try := 0; try < 256 && len(eligible) > 0; try++ {
		n := prog.Node(eligible[rng.Intn(len(eligible))])
		var donors []ir.VarID
		for _, loc := range prog.Func(n.Fn).Nodes {
			d := prog.Node(loc)
			if _, ok := editOps[d.Stmt.Op]; ok && d.CallLoc == ir.NoLoc &&
				d.Stmt.Src != n.Stmt.Src && a.Steens.SamePartition(d.Stmt.Src, n.Stmt.Src) {
				donors = append(donors, d.Stmt.Src)
			}
		}
		if len(donors) == 0 {
			continue
		}
		st := n.Stmt
		st.Src = donors[rng.Intn(len(donors))]
		st.Comment = ""
		st.Args = nil
		spec := serve.EditSpec{
			Action: "replace", Loc: int64(n.Loc), Op: editOps[st.Op],
			Dst: prog.VarName(st.Dst), Src: prog.VarName(st.Src),
		}
		undo := spec
		undo.Src = prog.VarName(n.Stmt.Src)
		return edit{
			spec: spec,
			undo: undo,
			ir:   ir.Edit{Kind: ir.EditReplaceStmt, Loc: n.Loc, Stmt: st},
			q:    query{P: spec.Dst, At: prog.Func(n.Fn).Name},
		}, nil
	}
	return edit{}, fmt.Errorf("no statement with a same-partition donor found (heavy=%v)", heavy)
}

// editChecks is how many edit ops per run are checked against an eager
// analysis and an Andersen analysis of the edited program.
const editChecks = 4

// checkServed compares a served answer on snapshot a with an eager
// analysis of the same program and with the Andersen bound, both
// computed outside timing.
func checkServed(a *core.Analysis, q query, served answer) error {
	eager, err := core.AnalyzeProgram(a.Prog.Clone(), analysisConfig())
	if err != nil {
		return fmt.Errorf("eager reference: %w", err)
	}
	want, err := ask(eager, q)
	if err != nil {
		return err
	}
	if !sameAnswer(served, want) {
		return fmt.Errorf("%s: served %q, eager %q", q, served, want)
	}
	return flowInsensitiveOf(a.Prog.Clone()).within(q, served)
}

// runEdit drives an in-process aliasd with one closed-loop connection:
// POST /edit of one seeded single-statement edit, then POST /v1/pointsto
// on the edited statement's destination. Set-up is Load plus every
// cluster solved.
func runEdit(seed int64, ops int) (*outcome, error) {
	src := source()
	var s *serve.Server
	speed := &speedMeter{}
	setups, err := timeSetups(speed, func() error {
		var err error
		if s, err = newServer(src); err != nil {
			return err
		}
		return solveAll(s.Snapshot().A)
	}, func() { s = nil })
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(s, editConns)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if err := checkInitial(src, seed); err != nil {
		return nil, err
	}

	draws := newEditDraws(seed)
	every := max(1, ops/editChecks)
	l := newLoop(ops, speed)
	var dirty, imprecise int
	runtime.GC()
	l.begin()
	for i := 0; i < ops && !l.overtime(i); i++ {
		e, err := draws.next(s.Snapshot().A, i)
		if err != nil {
			return nil, err
		}
		c0, steal, t0 := cpuTime(), startSteal(), time.Now()
		var er serve.EditResponse
		_, err = d.post("/edit", serve.EditRequest{Edits: []serve.EditSpec{e.spec}}, &er)
		var ans answer
		if err == nil {
			ans, _, _, err = d.ask(e.q)
		}
		wall := time.Since(t0)
		l.cpu += cpuTime() - c0
		l.steal.add(steal)
		if err == nil && er.FellBack {
			err = fmt.Errorf("edit fell back to a full reanalysis: %s", er.Reason)
		}
		if err == nil && (i%every == every-1 || i == ops-1) {
			err = checkServed(s.Snapshot().A, e.q, ans)
		}
		if rerr := d.restore(e); err == nil {
			err = rerr // undone even after a failure, so later ops start clean
		}
		dirty += er.Dirty
		if !ans.Precise {
			imprecise++
		}
		l.record(i, wall, err)
		l.calibrate(i)
	}
	runtime.GC()
	live := liveHeapBytes()
	l.o.note("dirty clusters %d over %d edits; %d imprecise answers", dirty, l.o.attempted, imprecise)
	return l.finish(setups, live), nil
}

// checkInitial checks the unedited program's eager answers: the golden
// digest for the default seed, the cover size and the Andersen bound.
func checkInitial(src string, seed int64) error {
	a, err := core.AnalyzeSource(src, analysisConfig())
	if err != nil {
		return fmt.Errorf("eager reference: %w", err)
	}
	_, err = newReference(a, src, seed)
	return err
}

// runQuery drives the same server with a closed loop of queryConns
// connections: a seeded mix of /v1/pointsto and same-cluster
// /v1/mayalias at seeded function exits. Set-up is Load plus every
// cluster solved through cold queries.
func runQuery(seed int64, ops int) (*outcome, error) {
	src := source()
	speed := &speedMeter{}
	d, setups, err := setupQueryServer(src, speed)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	pool, want, err := queryExpectations(src, seed)
	if err != nil {
		return nil, err
	}
	// The callers run concurrently, so the kernel is timed around the
	// loop rather than inside it.
	for i := 0; i < kernelSamples/2; i++ {
		speed.sample()
	}
	l := newLoop(ops, speed)
	lat := make([][]float64, queryConns)
	errs := make([][]error, queryConns)
	var next, imprecise atomic.Int64
	runtime.GC()
	l.begin()
	c0 := cpuTime()
	var wg sync.WaitGroup
	for w := 0; w < queryConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= ops || time.Since(l.start) > loopCap {
					return
				}
				q, exp := pool[i%len(pool)], want[i%len(pool)]
				t0 := time.Now()
				ans, _, _, err := d.ask(q)
				wall := time.Since(t0)
				if err == nil && !sameAnswer(ans, exp) {
					err = fmt.Errorf("%s: served %q, eager %q", q, ans, exp)
				}
				if err != nil {
					errs[w] = append(errs[w], fmt.Errorf("op %d: %w", i, err))
					lat[w] = append(lat[w], failedLatency)
					continue
				}
				if !ans.Precise {
					imprecise.Add(1)
				}
				lat[w] = append(lat[w], ms(wall))
			}
		}(w)
	}
	wg.Wait()
	l.cpu = cpuTime() - c0
	l.steal.add(l.begun) // the callers overlap: the share over the whole loop
	for w := range lat {
		l.lat = append(l.lat, lat[w]...)
		l.o.attempted += len(lat[w])
		for _, err := range errs[w] {
			l.o.opFailed(-1, err)
		}
	}
	if l.o.attempted < ops {
		l.o.problem(fmt.Errorf("stopped after %d ops at the %v loop cap", l.o.attempted, loopCap))
	}
	runtime.GC()
	live := liveHeapBytes()
	runtime.KeepAlive(d.srv)
	for i := 0; i < kernelSamples/2; i++ {
		speed.sample()
	}
	l.o.note("%d imprecise answers", imprecise.Load())
	return l.finish(setups, live), nil
}

// setupQueryServer sets the query workload up setupRepeats times: Load,
// then every cluster solved through cold queries over a running daemon.
// The last daemon is returned running; the others are stopped outside
// the timed set-up.
func setupQueryServer(src string, speed *speedMeter) (*daemon, []float64, error) {
	var d *daemon
	setups, err := timeSetups(speed, func() error {
		s, err := newServer(src)
		if err != nil {
			return err
		}
		if d, err = startDaemon(s, queryConns); err != nil {
			return err
		}
		return d.touchAll(s.Snapshot().A, queryConns)
	}, func() { d.stop() })
	if err != nil {
		if d != nil {
			d.stop()
		}
		return nil, nil, err
	}
	return d, setups, nil
}

// queryExpectations draws the query pool from an eager analysis of src
// and answers it there, checking every answer against the Andersen
// bound; it also runs the initial-program checks.
func queryExpectations(src string, seed int64) ([]query, []answer, error) {
	a, err := core.AnalyzeSource(src, analysisConfig())
	if err != nil {
		return nil, nil, fmt.Errorf("eager reference: %w", err)
	}
	ref, err := newReference(a, src, seed)
	if err != nil {
		return nil, nil, err
	}
	pool := queryPool(a, seed, queryPoolSize)
	want, err := askAll(a, pool)
	if err != nil {
		return nil, nil, err
	}
	for i, q := range pool {
		if err := ref.fi.within(q, want[i]); err != nil {
			return nil, nil, err
		}
	}
	return pool, want, nil
}
