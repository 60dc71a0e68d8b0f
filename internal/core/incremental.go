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
//     without touching any slice operand — or drifts a store pointer so
//     that the store writes a V_P variable in one generation only
//     (signature check), or
//   - adds/removes/alters an assume in a sliced function: Algorithm 1
//     pulls every sliced function's assumes into the slice wholesale
//     (function check).
//
// Everything else is reused verbatim: the cluster object, its solved
// engine (rebound to the new program via fscs.Engine.Rebind), and its
// health record. Partitions are found across generations through
// partition records (partRecord), which also let an alias-free
// partition be checked without slicing it again. Edits ApplyEdit cannot map — added/removed/rebuilt
// functions, call/return rewrites, signature changes, indirect-call
// programs, or a changed cluster-cover partition — fall back to a full
// reanalysis (warm through the result cache, see reanalyze) instead of
// ever producing a stale cover; EditReport.FellBack says so.

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"bootstrap/internal/andersen"
	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/frontend"
	"bootstrap/internal/fscs"
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
	// and a full reanalysis ran instead; Reason says why.
	FellBack bool
	Reason   string
	Elapsed  time.Duration

	// sliced counts the partitions whose Algorithm-1 slice the call
	// computed (zero when FellBack: the full reanalysis is counted as a
	// fallback instead).
	sliced int
}

// ApplyEdit applies an edit batch to the previous analysis' program and
// returns a new Analysis for the edited program, re-solving only the
// clusters the batch dirties. prev is not mutated, but solved engines
// move to the successor: the two analyses share a query lock, so
// queries against prev keep working (and stay sound) while traffic
// migrates. Results are bit-identical — fingerprints and query answers —
// to a from-scratch analysis of the edited program. ctx bounds the
// dirty-cluster re-solves exactly as AnalyzeProgramContext's does
// (expiry degrades clusters through the retry ladder; explicit
// cancellation aborts).
func ApplyEdit(ctx context.Context, prev *Analysis, edits []ir.Edit) (*Analysis, *EditReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	cfg := prev.cfg
	setDefaults(&cfg)
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
	m.Counter("incr_partitions_sliced_total", "partitions whose Algorithm-1 slice edits recomputed").Add(int64(rep.sliced))
	if rep.FellBack {
		m.Counter("incr_fallbacks_total", "ApplyEdit batches that fell back to a full reanalysis").Add(1)
	}
	m.Histogram("incr_edit_seconds", "ApplyEdit latency", obs.SecondsBuckets).Observe(rep.Elapsed.Seconds())
}

func applyEdit(ctx context.Context, prev *Analysis, edits []ir.Edit, cfg Config) (*Analysis, *EditReport, error) {
	var cacheBefore cache.Stats
	if cfg.Cache != nil {
		cacheBefore = cfg.Cache.Stats()
	}
	// The edited program shares every node, function and name map the
	// batch does not write with prev.Prog, which queries on prev may
	// still be reading; ir copies what it writes first.
	newProg := prev.Prog.Clone()
	sum, err := ir.ApplyEdits(newProg, edits)
	if err != nil {
		return nil, nil, fmt.Errorf("core: bad edit batch: %w", err)
	}

	fallback := func(reason string) (*Analysis, *EditReport, error) {
		a, ferr := reanalyze(ctx, prev, newProg)
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
	case cfg.Mode != ModeAndersen:
		return fallback("incremental path supports the default Andersen cascade only")
	case cfg.Faults.Active():
		return fallback("fault injection active")
	case frontend.HasIndirectCalls(newProg):
		return fallback("program has unresolved indirect calls")
	}

	// Every old cluster belongs to a partition record: prev's own, or
	// records derived from prev's cover when prev was analyzed from
	// scratch.
	oldParts := prev.parts
	if oldParts == nil {
		var ok bool
		if oldParts, ok = deriveParts(prev); !ok {
			return fallback("cluster cover not attributable to partitions")
		}
	}

	// Front-end phases on the edited program. The call graph, and the
	// Andersen fallback when prev's was solved (prev's patched over the
	// batch's cone), overlap the cover rebuild below; Steensgaard is
	// needed first (the cone, signatures and partition enumeration). A
	// fallback nobody read stays unread: the successor gets a deferred
	// solve of the edited program.
	tSteens := time.Now()
	sa2 := steens.Analyze(newProg)
	steensElapsed := time.Since(tSteens)

	var aa *andersen.Analysis
	var patchErr error
	var cg *callgraph.Graph
	patch := prev.Andersen.Solved()
	if !patch {
		aa = deferredFallback(newProg, cfg)
	}
	auxDone := make(chan struct{})
	go func() {
		defer close(auxDone)
		cg = callgraph.Build(newProg)
		if !patch {
			return
		}
		cfg.Tracer.NameThread(obs.TIDFallback, "fallback")
		sp := cfg.Tracer.Start("phase", "fallback", obs.TIDFallback)
		cone := andersenCone(prev, sa2, sum, len(newProg.Vars))
		aa, patchErr = andersen.Patch(prev.Andersen, newProg, cone)
		sp.Arg("cone", len(cone))
		if aa != nil {
			sp.Arg("passes", aa.SolverStats().Passes)
			aa.SolverStats().Record(cfg.Metrics)
		}
		sp.End()
	}()

	sig := collectSignals(prev, newProg, sa2, sum)

	// Old cluster ID -> 1 + its index in prev.Health (0: none), and
	// whether it was demoted, eagerly or at query time.
	healthOf := make([]int32, len(prev.Clusters))
	demoted := make([]bool, len(prev.Clusters))
	for i, h := range prev.Health {
		healthOf[h.ClusterID] = int32(i + 1)
		demoted[h.ClusterID] = h.Demoted
	}
	prev.mu.Lock()
	for id, h := range prev.queryHealth {
		demoted[id] = demoted[id] || h != nil && h.Demoted
	}
	prev.mu.Unlock()

	// Rebuild the cover partition by partition, in enumeration order —
	// the same dense-ID assignment BuildAndersen and StreamAndersen use,
	// so IDs match a from-scratch run. A partition whose record the
	// signals leave clean transplants its old clusters; everything else
	// recomputes and re-solves. The statement index is built on the
	// first partition that needs Algorithm 1.
	tCluster := time.Now()
	var ix *cluster.Index
	slicer := func() *cluster.Index {
		if ix == nil {
			ix = cluster.NewIndex(newProg, sa2)
		}
		return ix
	}
	parts2 := sa2.Partitions()
	threshold := cfg.AndersenThreshold
	lookup := recordLookup{recs: oldParts, taken: make([]bool, len(oldParts))}

	type transplant struct {
		newID int
		oldID int
	}
	var (
		cover    = make([]*cluster.Cluster, 0, len(prev.Clusters))
		moves    = make([]transplant, 0, len(prev.Clusters))
		dirtyIDs []int
		sliced   int
		slab     []cluster.Cluster // copies of transplanted clusters whose ID moved
	)
	parts := make([]partRecord, len(parts2))
	for k, part := range parts2 {
		rec := partRecord{members: part, hash: memberHash(part), first: int32(len(cover))}
		old := lookup.find(part, rec.hash)
		clean, fresh := false, false
		if old != nil && !slices.Contains(demoted[old.first:old.end], true) {
			if old.first == old.end {
				// Alias-free: V_P is the member list and St_P is empty.
				clean = sig.clean(part, nil, nil)
			} else {
				rec.base = old.base
				if rec.base == nil {
					rec.base = cluster.NewWithIndex(slicer(), 0, cluster.KindSteensgaard, part)
					fresh = true
				}
				clean = sig.clean(rec.base.Vars, rec.base.Stmts, rec.base.Funcs)
			}
		}
		if fresh || !clean {
			sliced++
		}
		if clean {
			for oldID := int(old.first); oldID < int(old.end); oldID++ {
				// A cluster whose ID stays is the same cluster: both
				// generations share it. One whose ID moves is copied
				// into the slab, sized for every old cluster left.
				nc := prev.Clusters[oldID]
				if nc.ID != len(cover) {
					if slab == nil {
						slab = make([]cluster.Cluster, 0, len(prev.Clusters)-oldID)
					}
					slab = append(slab, *nc)
					nc = &slab[len(slab)-1]
					nc.ID = len(cover)
				}
				moves = append(moves, transplant{newID: nc.ID, oldID: oldID})
				cover = append(cover, nc)
			}
		} else {
			var cs []*cluster.Cluster
			rec.base, cs = cluster.BuildPartitionWithBase(slicer(), part, threshold)
			for _, c := range cs {
				c.ID = len(cover)
				dirtyIDs = append(dirtyIDs, c.ID)
				cover = append(cover, c)
			}
		}
		rec.end = int32(len(cover))
		parts[k] = rec
	}
	clusteringElapsed := time.Since(tCluster)
	<-auxDone
	if patchErr != nil {
		return fallback(patchErr.Error())
	}

	a2 := newAnalysis(newProg, cfg)
	a2.mu = prev.mu // engines migrate; both generations share the lock
	a2.Steens = sa2
	a2.Andersen = aa
	a2.CallGraph = cg
	if cfg.Cache != nil {
		a2.canons = cache.NewTable(newProg, sa2, cg)
	}
	a2.Clusters = cover
	a2.parts = parts
	a2.steensSigs = sig.newSigs
	a2.Timing.Steensgaard = steensElapsed
	a2.Timing.Clustering = clusteringElapsed

	rep := &EditReport{
		Clusters:    len(cover),
		Reused:      len(moves),
		Dirty:       len(dirtyIDs),
		SteensDrift: sig.drift,
		DirtyIDs:    dirtyIDs,
		sliced:      sliced,
	}

	// Selection and the pointer index follow the cascade's rule, in cover
	// order. Reused clusters get the previous decision back (the predicate
	// inputs are unchanged, and a demoted cluster is never reused: it
	// dirties its partition).
	a2.selected = make([]*cluster.Cluster, 0, len(cover))
	for _, c := range cover {
		a2.admit(c)
	}
	a2.indexCover()

	// Transplants: engine moves and rebinds under the shared query lock
	// so in-flight queries on prev never observe a half-rebound engine.
	a2.mu.Lock()
	warm := slices.ContainsFunc(prev.engines, func(e *fscs.Engine) bool { return e != nil })
	for _, mv := range moves {
		nc := cover[mv.newID]
		if eng := prev.engines[mv.oldID]; eng != nil {
			eng.Rebind(newProg, cg, sa2, nc, aa)
			a2.engines[mv.newID] = eng
		}
		if i := healthOf[mv.oldID]; i > 0 {
			h := prev.Health[i-1]
			h.ClusterID = mv.newID
			a2.Health = append(a2.Health, h)
		} else if h := prev.queryHealth[mv.oldID]; h != nil {
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
			if c := a2.selected[id]; c != nil {
				solve = append(solve, c)
			}
		}
	}

	healths := a2.runEager(ctx, feed(solve), cfg)
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
			a2.queryHealth[c.ID] = &h
			a2.mu.Unlock()
		} else {
			a2.Health = append(a2.Health, h)
		}
		a2.Timing.FSCS += h.Elapsed
	}
	sort.Slice(a2.Health, func(i, j int) bool { return a2.Health[i].ClusterID < a2.Health[j].ClusterID })
	if cfg.Cache != nil {
		a2.CacheStats = cfg.Cache.Stats().Sub(cacheBefore)
	}
	return a2, rep, nil
}

// partRecord is one Steensgaard partition's bookkeeping, carried from
// an analysis to the successor ApplyEdit builds. A partition's clusters
// are consecutive in cover order, in every cover StreamAndersen and
// ApplyEdit build, so one ID range names them.
type partRecord struct {
	members []ir.VarID // Steensgaard's own member list, not a copy
	hash    uint64     // memberHash(members), the lookup key of the next generation
	// base is the Algorithm-1 slice over the whole partition. It is nil
	// for an alias-free partition (first == end), whose slice has no
	// statement, and for a refined partition whose record was derived
	// from a from-scratch cover, which did not keep it.
	base       *cluster.Cluster
	first, end int32 // the partition's clusters: cover IDs [first, end)
}

// recordLookup matches the partitions of an edited program to the
// previous generation's records. Partitions keep their enumeration
// order across an edit, so the record after the last match is tried
// first, and the hash table is built only for a partition that is not
// there. Each record matches at most one partition.
type recordLookup struct {
	recs   []partRecord
	taken  []bool
	next   int              // the record after the last match
	byHash map[uint64]int32 // record index by hash; on a collision the first record wins
}

// find returns the unmatched record whose member list is part (of hash
// h), or nil.
func (l *recordLookup) find(part []ir.VarID, h uint64) *partRecord {
	i := l.next
	if !l.matches(i, part, h) {
		if l.byHash == nil {
			l.byHash = make(map[uint64]int32, len(l.recs))
			for j := len(l.recs) - 1; j >= 0; j-- {
				l.byHash[l.recs[j].hash] = int32(j)
			}
		}
		j, ok := l.byHash[h]
		if !ok || !l.matches(int(j), part, h) {
			return nil
		}
		i = int(j)
	}
	l.taken[i] = true
	l.next = i + 1
	return &l.recs[i]
}

func (l *recordLookup) matches(i int, part []ir.VarID, h uint64) bool {
	return i < len(l.recs) && !l.taken[i] && l.recs[i].hash == h && slices.Equal(l.recs[i].members, part)
}

// memberHash names a partition across program generations by its
// member list: VarIDs are stable under Clone and ApplyEdits, so equal
// lists mean the same variable set. Callers confirm a match with
// slices.Equal, so a collision costs a rebuild, never a wrong reuse.
func memberHash(members []ir.VarID) uint64 {
	h := fnvOffset
	for _, v := range members { // FNV-1a over whole VarIDs
		h = (h ^ uint64(v)) * fnvPrime
	}
	return h
}

// deriveParts builds the partition records of an analysis that has none
// (a from-scratch run or a structural fallback) from its cover: a
// partition's clusters are the run of consecutive clusters whose
// pointers lie in it (the cover is disjoint, so the first pointer's Rep
// names it), and a partition with no run is alias-free. A
// KindSteensgaard cluster is its partition's base slice; a refined
// partition's base was not kept. ok is false when the cover does not
// follow the partitions.
func deriveParts(a *Analysis) (recs []partRecord, ok bool) {
	parts := a.Steens.Partitions()
	recs = make([]partRecord, len(parts))
	next := 0
	for k, part := range parts {
		r := partRecord{members: part, hash: memberHash(part), first: int32(next)}
		for ; next < len(a.Clusters) && a.Steens.Rep(a.Clusters[next].Pointers[0]) == int(part[0]); next++ {
			if c := a.Clusters[next]; c.Kind == cluster.KindSteensgaard {
				r.base = c
			}
		}
		r.end = int32(next)
		recs[k] = r
	}
	return recs, next == len(a.Clusters)
}

// reanalyze is ApplyEdit's structural fallback: it re-runs the whole
// cascade on newProg with prev's configuration, against a cache warmed
// with prev's per-cluster results. It covers every batch the
// cluster-dirtiness mapping cannot express — a function added, removed
// or rebuilt, a call or return statement rewritten (any of which
// changes a function signature or the shape of the call graph), or any
// change that can alter the cluster cover itself. The fallback is still
// warm: per Theorem 6 a cluster's result depends only on its slice, so
// clusters of newProg whose slices fingerprint-match a cluster of prev
// (stable under VarID/Loc renumbering) import the stored result instead
// of solving; "full" means full cover construction, not full solving.
//
// When prev already ran with a Config.Cache, that cache is reused as-is
// (prev's solves populated it). Otherwise a fresh in-memory cache is
// created and warmed from prev's live engines.
func reanalyze(ctx context.Context, prev *Analysis, newProg *ir.Program) (*Analysis, error) {
	cfg := prev.cfg
	if cfg.Cache == nil {
		cfg.Cache = cache.New(cache.Options{})
		prev.exportToCache(cfg.Cache)
	}
	return AnalyzeProgramContext(ctx, newProg, cfg)
}

// exportToCache stores the results of every healthy (HealthOK) cluster
// engine into dst, keyed by the cluster's fingerprint. Engines that were
// retried, recovered or demoted are skipped: their state reflects
// degraded knobs, not the fingerprinted configuration. The receiver is
// usable afterwards; queries are unaffected.
func (a *Analysis) exportToCache(dst *cache.Cache) {
	a.mu.Lock()
	defer a.mu.Unlock()
	healthy := map[int]bool{}
	for _, h := range a.Health {
		if h.Status == HealthOK {
			healthy[h.ClusterID] = true
		}
	}
	params := cache.Params{
		MaxCond: maxCondOrDefault(a.cfg.MaxCond),
		Budget:  a.cfg.ClusterBudget,
	}
	tab := a.canonTable()
	for id, eng := range a.engines {
		c := a.selected[id]
		if eng == nil || !healthy[id] || c == nil {
			continue
		}
		cn := tab.Canon(c, params)
		if payload, ok := eng.ExportState(cn); ok {
			dst.Put(cn.Key(), payload)
		}
	}
}

// andersenCone returns the variables whose Andersen points-to sets an
// edit batch can change: the variables every changed statement writes
// in its own generation (a copy's, address-of's or load's destination;
// everything a store's pointer may reach, under prev.Steens for the old
// statement and sa2 for the new one), closed under both generations'
// Steensgaard partitions and downward along both points-to hierarchies.
//
// In either generation an Andersen fact is derived from facts in its
// own partition (a copy) and in the partitions above it (the pointer of
// a load or store with a non-empty points-to set), so outside the cone
// both programs derive the same sets (DESIGN §15). One hierarchy is not
// enough: a load x = *y whose pointer lost its last pointee fed x in
// the old program, yet sa2 has no edge below y's partition.
func andersenCone(prev *Analysis, sa2 *steens.Analysis, sum *ir.EditSummary, newN int) []ir.VarID {
	oldN := len(prev.Prog.Vars)
	gens := []struct {
		sa     *steens.Analysis
		n      int
		marked map[int]bool
	}{{prev.Steens, oldN, map[int]bool{}}, {sa2, newN, map[int]bool{}}}
	in := make([]bool, newN)
	var work []ir.VarID
	add := func(v ir.VarID) {
		if !in[v] {
			in[v] = true
			work = append(work, v)
		}
	}
	writes := func(sa *steens.Analysis, st ir.Stmt) {
		switch st.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad:
			add(st.Dst)
		case ir.OpStore:
			for _, o := range sa.PointsToVars(st.Dst) {
				add(o)
			}
		}
	}
	for _, ch := range sum.Changes {
		// An old statement naming an added variable was itself put
		// there by an earlier edit of the batch: it never ran in prev.
		if int(ch.Old.Dst) < oldN {
			writes(prev.Steens, ch.Old)
		}
		writes(sa2, ch.New)
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, g := range gens {
			if int(v) >= g.n {
				continue
			}
			for c := g.sa.Rep(v); !g.marked[c]; {
				g.marked[c] = true
				for _, m := range g.sa.PartitionOf(ir.VarID(c)) {
					add(m)
				}
				next, ok := g.sa.PointsToPart(c)
				if !ok {
					break
				}
				c = next
			}
		}
	}
	var cone []ir.VarID
	for v, ok := range in {
		if ok {
			cone = append(cone, ir.VarID(v))
		}
	}
	return cone
}

// editSignals is the dirty set an edit batch induces, in slice terms.
type editSignals struct {
	// vars, locs and fns are the dirty variables, the edited locations
	// and the functions whose assumes changed, each sorted and without
	// duplicates.
	vars  []ir.VarID
	locs  []ir.Loc
	fns   []ir.FuncID
	drift int
	// newSigs is sa2's signature table, kept on the successor so the
	// next edit hashes only its own generation.
	newSigs []uint64
}

// clean reports whether a slice — V_P, St_P and the functions holding
// St_P, each sorted — is untouched by the signals: no dirtied function,
// edited location, or dirty variable.
func (sg *editSignals) clean(vars []ir.VarID, stmts []ir.Loc, funcs []ir.FuncID) bool {
	return misses(sg.fns, funcs) && misses(sg.locs, stmts) && misses(sg.vars, vars)
}

// misses reports whether the sorted lists xs and ys share no element,
// searching the longer for each element of the shorter.
func misses[T cmp.Ordered](xs, ys []T) bool {
	if len(xs) > len(ys) {
		xs, ys = ys, xs
	}
	for _, x := range xs {
		if _, ok := slices.BinarySearch(ys, x); ok {
			return false
		}
	}
	return true
}

func collectSignals(prev *Analysis, newProg *ir.Program, sa2 *steens.Analysis, sum *ir.EditSummary) *editSignals {
	sg := &editSignals{
		vars: append([]ir.VarID(nil), sum.Vars...),
		locs: slices.Compact(append([]ir.Loc(nil), sum.Locs...)),
		fns:  sum.AssumeFns,
	}
	// Store expansion: *q = r is relevant to any cluster holding a
	// variable q may overwrite, whether or not that variable is an
	// operand. Pull the pointee classes under both generations.
	for _, ch := range sum.Changes {
		if ch.Old.Op == ir.OpStore && int(ch.Old.Dst) < len(prev.Prog.Vars) {
			sg.vars = append(sg.vars, prev.Steens.PointsToVars(ch.Old.Dst)...)
		}
		if ch.New.Op == ir.OpStore {
			sg.vars = append(sg.vars, sa2.PointsToVars(ch.New.Dst)...)
		}
	}
	// Signature drift: variables whose Steensgaard class structure
	// changed anywhere in the program, not just at the edit site. Both
	// tables span their full variable universe — a new variable joining
	// an old class must change that class's member hash so the class's
	// old members drift — but only old variables have a counterpart to
	// compare against. The old table is the one the edit that produced
	// prev computed, when there was one.
	oldSig := prev.steensSigs
	if oldSig == nil {
		oldSig = steensSigs(prev.Steens, len(prev.Prog.Vars))
	}
	newSig := steensSigs(sa2, len(newProg.Vars))
	sg.newSigs = newSig
	for v := 0; v < len(oldSig) && v < len(newSig); v++ {
		if oldSig[v] != newSig[v] {
			sg.vars = append(sg.vars, ir.VarID(v))
			sg.drift++
		}
	}
	// Drift reaches past the drifted variable when it is a store's
	// pointer. A store no edit touched starts or stops writing a variable
	// when its pointer's pointee class changes: a remote copy can merge
	// that class into the location class of variables the store never
	// wrote. The pointer drifts, yet it is in no slice the store now
	// enters, and the written variables need not drift. Store expansion
	// again: dirty every variable the store writes in one generation
	// only.
	if sg.drift > 0 {
		for _, n := range newProg.Nodes {
			q := n.Stmt.Dst
			if n.Stmt.Op == ir.OpStore && int(q) < len(oldSig) && oldSig[q] != newSig[q] {
				sg.addEither(prev.Steens.PointsToVars(q), sa2.PointsToVars(q))
			}
		}
	}
	slices.Sort(sg.vars)
	sg.vars = slices.Compact(sg.vars)
	return sg
}

// addEither marks dirty every variable in exactly one of the sorted
// lists xs and ys.
func (sg *editSignals) addEither(xs, ys []ir.VarID) {
	for len(xs) > 0 || len(ys) > 0 {
		switch {
		case len(ys) == 0 || len(xs) > 0 && xs[0] < ys[0]:
			sg.vars = append(sg.vars, xs[0])
			xs = xs[1:]
		case len(xs) == 0 || ys[0] < xs[0]:
			sg.vars = append(sg.vars, ys[0])
			ys = ys[1:]
		default:
			xs, ys = xs[1:], ys[1:]
		}
	}
}

// steensSigs computes one order-independent hash per variable over its
// Steensgaard class structure: the member lists of its location class
// and content class, plus its chain depth. Two variables with equal
// signatures across two analyses of id-stable programs get identical
// answers from every class query the transfer functions make
// (PointsToVars, SamePartition, class comparisons) — modulo 64-bit hash
// collisions, which the differential gate would surface.
func steensSigs(sa *steens.Analysis, n int) []uint64 {
	// Class ids are dense ECR ids: hash each location class into a
	// table indexed by id, sized to the largest class a variable names.
	// A class with no program variable among its locations hashes to 0.
	m := 0
	for v := 0; v < n; v++ {
		m = max(m, sa.LocClass(ir.VarID(v))+1, sa.ContentClass(ir.VarID(v))+1)
	}
	classHash := make([]uint64, m)
	seen := make([]bool, m)
	for v := 0; v < n; v++ { // members in increasing VarID order
		lc := sa.LocClass(ir.VarID(v))
		if !seen[lc] {
			seen[lc] = true
			classHash[lc] = fnvOffset
		}
		classHash[lc] = fnvMix(classHash[lc], uint64(v))
	}
	sigs := make([]uint64, n)
	for v := 0; v < n; v++ {
		id := ir.VarID(v)
		h := fnvOffset
		h = fnvMix(h, classHash[sa.LocClass(id)])
		h = fnvMix(h, classHash[sa.ContentClass(id)])
		h = fnvMix(h, uint64(sa.Depth(id)))
		sigs[v] = h
	}
	return sigs
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
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
	sel := slices.Clone(a.selected)
	a.mu.Unlock()
	tab := a.canonTable()
	out := make(map[int]string, len(sel))
	for id, c := range sel {
		if c != nil {
			out[id] = tab.Canon(c, params).Key().String()
		}
	}
	return out
}

// canonTable returns the analysis' key table, or a fresh one over its
// program when the run had no cache to key for.
func (a *Analysis) canonTable() *cache.Table {
	if a.canons != nil {
		return a.canons
	}
	return cache.NewTable(a.Prog, a.Steens, a.CallGraph)
}
