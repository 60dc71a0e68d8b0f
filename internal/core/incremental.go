package core

// Incremental reanalysis: ApplyEdit maps a batch of ir.Edits onto the
// previous analysis' cluster cover and re-solves only the clusters whose
// Algorithm-1 footprint the batch touches. The paper's Theorem 6 is the
// license: a cluster's flow/context-sensitive result depends only on its
// slice (V_P, St_P) plus the Steensgaard class structure of the slice
// variables. An edit therefore dirties a cluster iff it
//
//   - rewrites a statement inside the cluster's slice (location check),
//   - names a variable of V_P as an operand of a removed or added
//     statement — including, for stores, the pointees the store may
//     overwrite (operand check),
//   - drifts the Steensgaard signature of a V_P variable: a remote edit
//     can merge location classes and change transfer-function outcomes
//     without touching any slice operand (signature check), or
//   - adds/removes/alters an assume in a sliced function: Algorithm 1
//     pulls every sliced function's assumes into the slice wholesale
//     (function check).
//
// Everything else is reused verbatim: the cluster object, its solved
// engine (rebound to the new program via fscs.Engine.Rebind), and its
// health record. Edits ApplyEdit cannot map — added/removed/rebuilt
// functions, call/return rewrites, signature changes, indirect-call
// programs, or a changed cluster-cover partition — fall back to a full
// Reanalyze (warm through the result cache) instead of ever producing a
// stale cover; EditReport.FellBack says so.

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"bootstrap/internal/andersen"
	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
	"bootstrap/internal/steens"
)

// EditReport describes what one ApplyEdit call did.
type EditReport struct {
	// Clusters is the size of the new cover.
	Clusters int
	// Reused counts clusters carried over verbatim (engine and health
	// transplanted when present).
	Reused int
	// Dirty counts invalidated clusters (rebuilt slices, fingerprints
	// recomputed, results discarded).
	Dirty int
	// Resolved counts dirty clusters eagerly re-solved by this call;
	// the rest (lazy mode) solve on first query.
	Resolved int
	// CacheHits counts re-solves served from the result cache.
	CacheHits int
	// SteensDrift counts variables whose Steensgaard class signature
	// changed — the remote-merge signal feeding the dirty set.
	SteensDrift int
	// DirtyIDs lists the new cover's invalidated cluster IDs (nil when
	// FellBack: everything was recomputed).
	DirtyIDs []int
	// FellBack reports that the batch could not be mapped incrementally
	// and a full Reanalyze ran instead; Reason says why.
	FellBack bool
	Reason   string
	Elapsed  time.Duration
}

// ApplyEdit applies an edit batch to the previous analysis' program and
// returns a new Analysis for the edited program, re-solving only the
// clusters the batch dirties. prev is not mutated, but solved engines
// move to the successor: the two analyses share a query lock, so
// queries against prev keep working (and stay sound) while traffic
// migrates. Results are bit-identical — fingerprints and query answers —
// to a from-scratch analysis of the edited program.
func ApplyEdit(prev *Analysis, edits []ir.Edit) (*Analysis, *EditReport, error) {
	return ApplyEditContext(context.Background(), prev, edits)
}

// ApplyEditContext is ApplyEdit under a cancellation context: the
// context bounds the dirty-cluster re-solves exactly as
// AnalyzeProgramContext's does (expiry degrades clusters through the
// retry ladder; explicit cancellation aborts).
func ApplyEditContext(ctx context.Context, prev *Analysis, edits []ir.Edit) (*Analysis, *EditReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	cfg := prev.cfg
	planDefaults(&cfg)
	tr := cfg.Tracer
	sp := tr.Start("phase", "applyedit", obs.TIDMain).Arg("edits", len(edits))
	a, rep, err := applyEdit(ctx, prev, edits, cfg)
	if rep != nil {
		rep.Elapsed = time.Since(start)
		sp.Arg("dirty", rep.Dirty).Arg("reused", rep.Reused).Arg("fellback", rep.FellBack)
		recordEditMetrics(cfg.Metrics, rep)
	}
	sp.End()
	return a, rep, err
}

func recordEditMetrics(m *obs.Metrics, rep *EditReport) {
	if m == nil {
		return
	}
	m.Counter("incr_edits_total", "ApplyEdit batches applied").Add(1)
	m.Counter("incr_clusters_dirty_total", "clusters invalidated by edits").Add(int64(rep.Dirty))
	m.Counter("incr_clusters_reused_total", "clusters reused verbatim across edits").Add(int64(rep.Reused))
	m.Counter("incr_resolves_total", "dirty clusters eagerly re-solved").Add(int64(rep.Resolved))
	m.Counter("incr_steens_drift_total", "variables with drifted Steensgaard signatures").Add(int64(rep.SteensDrift))
	if rep.FellBack {
		m.Counter("incr_fallbacks_total", "ApplyEdit batches that fell back to full Reanalyze").Add(1)
	}
	m.Histogram("incr_edit_seconds", "ApplyEdit latency", obs.SecondsBuckets).Observe(rep.Elapsed.Seconds())
}

func applyEdit(ctx context.Context, prev *Analysis, edits []ir.Edit, cfg Config) (*Analysis, *EditReport, error) {
	newProg := prev.Prog.Clone()
	sum, err := ir.ApplyEdits(newProg, edits)
	if err != nil {
		return nil, nil, fmt.Errorf("core: bad edit batch: %w", err)
	}

	fallback := func(reason string) (*Analysis, *EditReport, error) {
		a, ferr := ReanalyzeContext(ctx, prev, newProg)
		if ferr != nil {
			return nil, nil, ferr
		}
		return a, &EditReport{
			Clusters: len(a.Clusters),
			Dirty:    len(a.Clusters),
			FellBack: true,
			Reason:   reason,
		}, nil
	}

	switch {
	case sum.Structural:
		return fallback(sum.Reason)
	case cfg.Mode != ModeAndersen || cfg.UseOneFlow:
		return fallback("incremental path supports the default Andersen cascade only")
	case cfg.Faults.Active():
		return fallback("fault injection active")
	case frontend.HasIndirectCalls(newProg):
		return fallback("program has unresolved indirect calls")
	}

	// Front-end phases on the edited program. The Andersen fallback and
	// the call graph overlap the cover rebuild below; Steensgaard is
	// needed first (signatures and partition enumeration).
	tSteens := time.Now()
	sa2 := steens.Analyze(newProg, cfg.steensOpts()...)
	steensElapsed := time.Since(tSteens)

	var aa *andersen.Analysis
	var cg *callgraph.Graph
	auxDone := make(chan struct{})
	go func() {
		defer close(auxDone)
		aa = andersen.Analyze(newProg)
		cg = callgraph.Build(newProg)
	}()

	sig := collectSignals(prev, sa2, sum, len(newProg.Vars))

	// Attribute every old cluster to its Steensgaard partition via the
	// provenance the cover builder recorded, keyed by member list
	// (VarIDs are stable across Clone, so keys compare across
	// generations). The pointer set alone could not do this: sink
	// pointers belong to several overlapping partitions.
	oldByID := make(map[int]*cluster.Cluster, len(prev.Clusters))
	for _, c := range prev.Clusters {
		oldByID[c.ID] = c
	}
	groups := make(map[string][]int, len(prev.Clusters))
	for _, c := range prev.Clusters {
		if c.Part == nil {
			return fallback("cluster cover not attributable to partitions")
		}
		key := memberKey(c.Part)
		groups[key] = append(groups[key], c.ID)
	}
	for _, ids := range groups {
		sort.Ints(ids)
	}
	demoted := demotedSet(prev)

	// Rebuild the cover partition by partition, in enumeration order —
	// the same dense-ID assignment BuildAndersen and StreamAndersen use,
	// so IDs match a from-scratch run. Clean partitions transplant their
	// old clusters; everything else recomputes and re-solves.
	tCluster := time.Now()
	ix := cluster.NewIndex(newProg, sa2)
	parts2 := sa2.Partitions()
	threshold := cfg.AndersenThreshold
	newBases := make(map[string]*cluster.Cluster, len(parts2))

	type transplant struct {
		newID int
		oldID int
	}
	var cover []*cluster.Cluster
	var moves []transplant
	var dirtyIDs []int
	prevBases := prev.partBases
	for _, part := range parts2 {
		key := memberKey(part)
		group, hasOld := groups[key]
		clean := hasOld
		var base *cluster.Cluster
		if clean {
			for _, id := range group {
				if demoted[id] {
					clean = false
					break
				}
			}
		}
		if clean {
			base = prevBases[key]
			if base == nil {
				base = cluster.NewWithIndex(ix, 0, cluster.KindSteensgaard, part)
			}
			clean = sig.cleanSlice(base)
		}
		if clean {
			newBases[key] = base
			for _, oldID := range group {
				oc := oldByID[oldID]
				nc := new(cluster.Cluster)
				*nc = *oc
				nc.ID = len(cover)
				nc.Part = part
				moves = append(moves, transplant{newID: nc.ID, oldID: oldID})
				cover = append(cover, nc)
			}
			continue
		}
		b2, cs := cluster.BuildPartitionWithBase(ix, part, threshold)
		if b2 != nil {
			newBases[key] = b2
		}
		for _, c := range cs {
			c.ID = len(cover)
			dirtyIDs = append(dirtyIDs, c.ID)
			cover = append(cover, c)
		}
	}
	clusteringElapsed := time.Since(tCluster)
	<-auxDone

	a2 := newAnalysis(newProg, cfg)
	a2.mu = prev.mu // engines migrate; both generations share the lock
	a2.Steens = sa2
	a2.Andersen = aa
	a2.CallGraph = cg
	a2.Clusters = cover
	a2.partBases = newBases
	a2.Timing.Steensgaard = steensElapsed
	a2.Timing.Clustering = clusteringElapsed

	oldHealth := make(map[int]ClusterHealth, len(prev.Health))
	for _, h := range prev.Health {
		oldHealth[h.ClusterID] = h
	}

	rep := &EditReport{
		Clusters:    len(cover),
		Reused:      len(moves),
		Dirty:       len(dirtyIDs),
		SteensDrift: sig.drift,
		DirtyIDs:    dirtyIDs,
	}

	// Selection and the pointer index follow the cascade's rule, in cover
	// order. Reused clusters get the previous decision back (the predicate
	// inputs are unchanged, and a demoted cluster is never reused: it
	// dirties its partition).
	for _, c := range cover {
		a2.admit(c)
	}

	// Transplants: engine moves and rebinds under the shared query lock
	// so in-flight queries on prev never observe a half-rebound engine.
	a2.mu.Lock()
	warm := len(prev.engines) > 0
	for _, mv := range moves {
		nc := cover[mv.newID]
		if eng := prev.engines[mv.oldID]; eng != nil {
			eng.Rebind(newProg, cg, sa2, nc, aa)
			a2.engines[mv.newID] = eng
		}
		if h, ok := oldHealth[mv.oldID]; ok {
			h.ClusterID = mv.newID
			a2.Health = append(a2.Health, h)
		} else if h, ok := prev.queryHealth[mv.oldID]; ok {
			h.ClusterID = mv.newID
			a2.queryHealth[mv.newID] = h
		}
	}
	a2.mu.Unlock()

	// Eager analyses re-solve every selected dirty cluster now. Lazy ones
	// (the daemon) re-solve only when some engine was already warm — a
	// cold lazy cover stays lazy.
	var solve []*cluster.Cluster
	if !cfg.Lazy || warm {
		for _, id := range dirtyIDs {
			if c, ok := a2.selected[id]; ok {
				solve = append(solve, c)
			}
		}
	}

	healths := a2.runEager(ctx, feed(solve), nil, cfg)
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: applyedit cancelled: %w", err)
	}
	for i, c := range solve {
		h := healths[i]
		rep.Resolved++
		if h.Cached {
			rep.CacheHits++
		}
		if cfg.Lazy {
			a2.mu.Lock()
			a2.queryHealth[c.ID] = h
			a2.mu.Unlock()
		} else {
			a2.Health = append(a2.Health, h)
		}
		a2.Timing.FSCS += h.Elapsed
	}
	sort.Slice(a2.Health, func(i, j int) bool { return a2.Health[i].ClusterID < a2.Health[j].ClusterID })
	if cfg.Cache != nil {
		a2.CacheStats = cfg.Cache.Stats()
	}
	return a2, rep, nil
}

// editSignals is the dirty set an edit batch induces, in slice terms.
type editSignals struct {
	vars  map[ir.VarID]bool
	locs  map[ir.Loc]bool
	fns   map[ir.FuncID]bool
	drift int
}

// cleanSlice reports whether a cluster's slice is untouched by the
// signals: no dirtied function, edited location, or dirty variable.
func (sg *editSignals) cleanSlice(c *cluster.Cluster) bool {
	for _, f := range c.Funcs {
		if sg.fns[f] {
			return false
		}
	}
	if len(sg.locs) <= len(c.Stmts) {
		for l := range sg.locs {
			if c.HasStmt(l) {
				return false
			}
		}
	} else {
		for _, l := range c.Stmts {
			if sg.locs[l] {
				return false
			}
		}
	}
	if len(sg.vars) <= len(c.Vars) {
		for v := range sg.vars {
			if c.HasVar(v) {
				return false
			}
		}
	} else {
		for _, v := range c.Vars {
			if sg.vars[v] {
				return false
			}
		}
	}
	return true
}

func collectSignals(prev *Analysis, sa2 *steens.Analysis, sum *ir.EditSummary, newN int) *editSignals {
	sg := &editSignals{
		vars: make(map[ir.VarID]bool, len(sum.Vars)*2),
		locs: make(map[ir.Loc]bool, len(sum.Locs)),
		fns:  make(map[ir.FuncID]bool, len(sum.AssumeFns)),
	}
	for _, v := range sum.Vars {
		sg.vars[v] = true
	}
	for _, l := range sum.Locs {
		sg.locs[l] = true
	}
	for _, f := range sum.AssumeFns {
		sg.fns[f] = true
	}
	// Store expansion: *q = r is relevant to any cluster holding a
	// variable q may overwrite, whether or not that variable is an
	// operand. Pull the pointee classes under both generations.
	for _, ch := range sum.Changes {
		if ch.Old.Op == ir.OpStore {
			for _, o := range prev.Steens.PointsToVars(ch.Old.Dst) {
				sg.vars[o] = true
			}
		}
		if ch.New.Op == ir.OpStore {
			for _, o := range sa2.PointsToVars(ch.New.Dst) {
				sg.vars[o] = true
			}
		}
	}
	// Signature drift: variables whose Steensgaard class structure
	// changed anywhere in the program, not just at the edit site. Both
	// tables span their full variable universe — a new variable joining
	// an old class must change that class's member hash so the class's
	// old members drift — but only old variables have a counterpart to
	// compare against.
	oldSig := steensSigs(prev.Steens, len(prev.Prog.Vars))
	newSig := steensSigs(sa2, newN)
	for v := 0; v < len(oldSig) && v < len(newSig); v++ {
		if oldSig[v] != newSig[v] {
			sg.vars[ir.VarID(v)] = true
			sg.drift++
		}
	}
	return sg
}

// steensSigs computes one order-independent hash per variable over its
// Steensgaard class structure: the member lists of its location class,
// content class and sink classes, plus its chain depth. Two variables
// with equal signatures across two analyses of id-stable programs get
// identical answers from every class query the transfer functions make
// (PointsToVars, SamePartition, class comparisons) — modulo 64-bit hash
// collisions, which the differential gate would surface.
func steensSigs(sa *steens.Analysis, n int) []uint64 {
	classMembers := map[int][]ir.VarID{}
	for v := 0; v < n; v++ {
		lc := sa.LocClass(ir.VarID(v))
		classMembers[lc] = append(classMembers[lc], ir.VarID(v))
	}
	classHash := make(map[int]uint64, len(classMembers))
	for cls, ms := range classMembers {
		h := fnvOffset
		for _, m := range ms { // ms is in increasing VarID order
			h = fnvMix(h, uint64(m))
		}
		classHash[cls] = h
	}
	sigs := make([]uint64, n)
	var sinks []int
	for v := 0; v < n; v++ {
		id := ir.VarID(v)
		h := fnvOffset
		h = fnvMix(h, classHash[sa.LocClass(id)])
		h = fnvMix(h, classHash[sa.ContentClass(id)])
		h = fnvMix(h, uint64(sa.Depth(id)))
		if sc := sa.SinkClasses(id); len(sc) > 0 {
			sinks = append(sinks[:0], sc...)
			sort.Ints(sinks)
			h = fnvMix(h, uint64(len(sinks)))
			for _, c := range sinks {
				h = fnvMix(h, classHash[c])
			}
		}
		sigs[v] = h
	}
	return sigs
}

const fnvOffset uint64 = 14695981039346656037

func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

func demotedSet(prev *Analysis) map[int]bool {
	out := map[int]bool{}
	for _, h := range prev.Health {
		if h.Demoted {
			out[h.ClusterID] = true
		}
	}
	prev.mu.Lock()
	for id, h := range prev.queryHealth {
		if h.Demoted {
			out[id] = true
		}
	}
	prev.mu.Unlock()
	return out
}

// memberKey is a partition's identity across program generations: its
// member VarIDs, little-endian packed. Ids are stable under Clone and
// ApplyEdits, so equal keys mean the identical variable set.
func memberKey(members []ir.VarID) string {
	b := make([]byte, 4*len(members))
	for i, v := range members {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return string(b)
}

// Fingerprints returns the canonical content-addressed fingerprint of
// every selected cluster, keyed by cluster ID — the same keys the
// result cache stores first-attempt solves under. They are computed on
// demand from the analysis' current program, Steensgaard partitioning
// and call graph, so an analysis produced by ApplyEdit reports exactly
// the fingerprints a from-scratch run on the same program would: the
// differential identity the incremental gate asserts.
func (a *Analysis) Fingerprints() map[int]string {
	params := cache.Params{MaxCond: maxCondOrDefault(a.cfg.MaxCond), Budget: a.cfg.ClusterBudget}
	a.mu.Lock()
	sel := make(map[int]*cluster.Cluster, len(a.selected))
	for id, c := range a.selected {
		sel[id] = c
	}
	a.mu.Unlock()
	out := make(map[int]string, len(sel))
	for id, c := range sel {
		cn := cache.NewCanon(a.Prog, a.Steens, a.CallGraph, c, params)
		k := cn.Key()
		out[id] = hex.EncodeToString(k[:])
	}
	return out
}
