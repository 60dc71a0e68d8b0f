package core

import (
	"context"
	"sort"

	"bootstrap/internal/cluster"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
)

// This file is the query surface. Every alias query takes a context and
// answers through one per-cluster fold (fold): the clusters containing
// the queried pointer are solved at most once, on first touch, through
// EnsureCluster and the fault-tolerant RunCluster ladder — concurrent
// first touches coalesce into one solve (single flight) — and a cluster
// that was demoted, or is still solving when the caller's context
// expires, degrades the answer to the flow-insensitive fallback instead
// of blocking or erroring.

// inflight is one single-flight cluster solve. done is closed when the
// solve finished (successfully or demoted); eng/health are valid after.
type inflight struct {
	done   chan struct{}
	eng    *fscs.Engine
	health ClusterHealth
}

// EnsureCluster solves (or imports from Config.Cache) the engine of
// cluster id at most once, through the same fault-tolerant degradation
// ladder the eager scheduler uses. Safe for concurrent use: concurrent
// calls on a cold cluster coalesce into a single solve, and every caller
// blocks until the solve finishes or ctx is done.
//
// The returned bool reports whether the cluster's final state was
// reached: false means ctx expired while the solve was still running —
// the solve continues in the background for future callers, and the
// caller should degrade to the flow-insensitive fallback for this query.
// When it is true, a nil engine means the cluster was demoted (or never
// selected); queries answer from the fallback, permanently.
//
// The solve itself runs detached from ctx so one impatient caller cannot
// kill work other callers are waiting on; Config.ClusterTimeout bounds
// each ladder attempt as usual.
func (a *Analysis) EnsureCluster(ctx context.Context, id int) (*fscs.Engine, ClusterHealth, bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	a.mu.Lock()
	if eng := at(a.engines, id); eng != nil {
		h := a.queryHealthOf(id)
		a.mu.Unlock()
		return eng, h, true
	}
	c := at(a.selected, id)
	if c == nil {
		// Demoted earlier, or never part of the analyzed cover: the
		// fallback answer is the cluster's final state.
		h := a.queryHealthOf(id)
		h.Demoted = true
		a.mu.Unlock()
		return nil, h, true
	}
	s, solving := a.solving[id]
	if !solving {
		s = &inflight{done: make(chan struct{})}
		a.solving[id] = s
		go a.solveCluster(id, c, s)
	}
	a.mu.Unlock()

	select {
	case <-s.done:
		return s.eng, s.health, true
	case <-ctx.Done():
		h := ClusterHealth{ClusterID: id, Err: ctx.Err()}
		return nil, h, false
	}
}

// solveCluster runs one detached single-flight solve and installs the
// result.
func (a *Analysis) solveCluster(id int, c *cluster.Cluster, s *inflight) {
	eng, h := runCluster(context.Background(), a.Prog, a.CallGraph, a.Steens, c, a.Andersen, a.cfg, a.canons)
	a.mu.Lock()
	if eng != nil {
		a.engines[id] = eng
	} else {
		// Permanently demoted: deselect so no later query re-solves it.
		a.selected[id] = nil
	}
	a.queryHealth[id] = &h
	delete(a.solving, id)
	a.mu.Unlock()
	s.eng, s.health = eng, h
	close(s.done)
}

// ClusterSolved reports whether a query touching cluster id would be
// answered without triggering a solve: the engine already exists (solved
// or imported), or the cluster was demoted or never selected (fallback
// answers are free). A server uses this to route warm queries around its
// admission queue.
func (a *Analysis) ClusterSolved(id int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return at(a.engines, id) != nil || at(a.selected, id) == nil
}

// queryHealthOf returns the health of cluster id's query-time solve,
// zero when it had none. The caller holds a.mu.
func (a *Analysis) queryHealthOf(id int) ClusterHealth {
	var h ClusterHealth
	if p := at(a.queryHealth, id); p != nil {
		h = *p
	}
	h.ClusterID = id
	return h
}

// MayAliasNeedsSolve reports whether MayAliasContext(p, q) could
// trigger a cluster solve. Pairs answered structurally — identical,
// partition-disjoint, or outside every analyzed cluster — never touch
// an engine, so a server must route them around cold admission even
// when p's clusters are still unsolved.
func (a *Analysis) MayAliasNeedsSolve(p, q ir.VarID) bool {
	if p == q || !a.Steens.SamePartition(p, q) {
		return false
	}
	for _, id := range a.ClustersOf(p) {
		if !a.ClusterSolved(id) {
			return true
		}
	}
	return false
}

// PointsToNeedsSolve reports whether PointsToContext(p) could trigger
// a cluster solve — the admission-routing counterpart of
// MayAliasNeedsSolve.
func (a *Analysis) PointsToNeedsSolve(p ir.VarID) bool {
	for _, id := range a.ClustersOf(p) {
		if !a.ClusterSolved(id) {
			return true
		}
	}
	return false
}

// QueryHealth returns the health records of the clusters solved at query
// time (EnsureCluster), sorted by cluster ID — the lazy-mode counterpart
// of Analysis.Health.
func (a *Analysis) QueryHealth() []ClusterHealth {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := []ClusterHealth{}
	for id, h := range a.queryHealth {
		if h != nil {
			out = append(out, a.queryHealthOf(id))
		}
	}
	return out
}

// SolveStats summarizes engine state for dashboards: how many clusters
// currently hold a solved (or cache-imported) engine, and how many were
// demoted to the fallback — by the eager scheduler or at query time.
func (a *Analysis) SolveStats() (solved, demoted int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, eng := range a.engines {
		if eng != nil {
			solved++
		}
	}
	for _, h := range a.queryHealth {
		if h != nil && h.Demoted {
			demoted++
		}
	}
	for _, h := range a.Health {
		if h.Demoted {
			demoted++
		}
	}
	return solved, demoted
}

// CoveredPointers returns, sorted, every pointer that belongs to at
// least one analyzed cluster — the population for which flow-sensitive
// answers exist (or can be solved on demand). Queries on other variables
// answer from the flow-insensitive fallback.
func (a *Analysis) CoveredPointers() []ir.VarID {
	out := []ir.VarID{}
	for p := 0; p+1 < len(a.ptrStart); p++ {
		if a.ptrStart[p] < a.ptrStart[p+1] {
			out = append(out, ir.VarID(p))
		}
	}
	return out
}

// fold is the one per-cluster walk every alias query runs: per Theorems
// 6 and 7 the clusters containing p suffice. It visits p's clusters in
// cover order, solving cold ones on first touch through EnsureCluster,
// and hands each solved engine to visit under a.mu (engines are
// single-threaded); visit returns true to stop the walk. complete
// reports whether every cluster walked answered at full precision: it
// is false when one was demoted, or still solving when ctx expired, and
// the caller must then widen through the flow-insensitive fallback.
func (a *Analysis) fold(ctx context.Context, p ir.VarID, visit func(*fscs.Engine) (stop bool)) (complete bool) {
	complete = true
	for _, id := range a.ClustersOf(p) {
		eng, _, final := a.EnsureCluster(ctx, id)
		if !final || eng == nil {
			complete = false
			continue
		}
		a.mu.Lock()
		stop := visit(eng)
		a.mu.Unlock()
		if stop {
			break
		}
	}
	return complete
}

// sortedVars returns the members of set in increasing order.
func sortedVars(set map[ir.VarID]bool) []ir.VarID {
	out := make([]ir.VarID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// addFallbackPointsTo widens set by p's flow-insensitive points-to set.
func (a *Analysis) addFallbackPointsTo(set map[ir.VarID]bool, p ir.VarID) {
	a.Andersen.PointsToSet(p).ForEach(func(o int) bool {
		set[ir.VarID(o)] = true
		return true
	})
}

// MayAliasContext reports whether p and q may alias at loc. Pairs in
// disjoint Steensgaard partitions never alias; otherwise p's clusters are
// folded, and the first one holding both pointers that proves an alias
// decides.
//
// precise is false when the fallback had to stand in for a cluster that
// was demoted or still solving when ctx expired: the answer is then
// Andersen-precision (sound for may-alias, possibly wider than the FSCS
// answer). It is true when every cluster of p was consulted at full
// precision.
func (a *Analysis) MayAliasContext(ctx context.Context, p, q ir.VarID, loc ir.Loc) (aliased, precise bool) {
	if p == q {
		return true, true
	}
	if !a.Steens.SamePartition(p, q) {
		return false, true // disjoint cover: cannot alias
	}
	covered := false // some consulted cluster contains both p and q
	complete := a.fold(ctx, p, func(eng *fscs.Engine) bool {
		if !eng.Cluster().HasPointer(q) {
			return false
		}
		covered = true
		aliased = eng.MayAlias(p, q, loc)
		return aliased
	})
	if aliased || (complete && covered) {
		return aliased, true
	}
	// No analyzed cluster contains both — under the disjunctive cover
	// they share no Andersen object unless the fallback says so, and
	// when p is in no analyzed cluster the fallback is this
	// configuration's full-precision answer — or some cluster degraded
	// or ran past the deadline, and the fallback widens soundly.
	return a.Andersen.MayAlias(p, q), complete
}

// MustAliasContext reports whether p and q must alias at loc: some
// analyzed cluster containing both proves it. precise is false when a
// cluster of p was demoted or still solving at the deadline — must-alias
// facts cannot be recovered from the flow-insensitive fallback, so the
// answer is then a sound "false" (never a spurious must).
func (a *Analysis) MustAliasContext(ctx context.Context, p, q ir.VarID, loc ir.Loc) (must, precise bool) {
	if p == q {
		return true, true
	}
	precise = a.fold(ctx, p, func(eng *fscs.Engine) bool {
		must = eng.Cluster().HasPointer(q) && eng.MustAlias(p, q, loc)
		return must
	})
	return must, precise
}

// Aliases returns the pointers other than p that may alias p at loc: the
// union of the per-cluster alias sets (condition (ii) of Section 2). When
// a cluster of p was demoted or still solving at the deadline, or p is
// in no analyzed cluster, the fallback stands in as it does for
// MayAliasContext: every member of p's Steensgaard partition that the
// flow-insensitive analysis aliases with p is added, and precise is
// false — the rule PointsToContext uses. Either way q is listed exactly
// when MayAliasContext(ctx, p, q, loc) holds.
func (a *Analysis) Aliases(ctx context.Context, p ir.VarID, loc ir.Loc) ([]ir.VarID, bool) {
	set := map[ir.VarID]bool{}
	complete := a.fold(ctx, p, func(eng *fscs.Engine) bool {
		for _, q := range eng.Aliases(p, loc) {
			set[q] = true
		}
		return false
	})
	precise := complete && len(a.ClustersOf(p)) > 0
	if !precise {
		for _, q := range a.Steens.PartitionOf(p) {
			if q != p && a.Andersen.MayAlias(p, q) {
				set[q] = true
			}
		}
	}
	return sortedVars(set), precise
}

// PointsToContext returns the objects p may reference at loc: the union
// of p's per-cluster value sets. precise is false when any contributing
// engine lost precision, when a cluster was demoted or out-deadlined
// (the flow-insensitive set is then merged in, keeping the answer
// sound), or when p is outside every analyzed cluster.
func (a *Analysis) PointsToContext(ctx context.Context, p ir.VarID, loc ir.Loc) ([]ir.VarID, bool) {
	set := map[ir.VarID]bool{}
	found, exact := false, true
	complete := a.fold(ctx, p, func(eng *fscs.Engine) bool {
		objs, ok := eng.Values(p, loc)
		found, exact = true, exact && ok
		for _, o := range objs {
			set[o] = true
		}
		return false
	})
	precise := found && complete && exact
	if !precise {
		a.addFallbackPointsTo(set, p)
	}
	return sortedVars(set), precise
}

// DerefStateContext resolves what a dereference of p at loc may observe:
// the referable objects, whether some path arrives with p null or
// uninitialized, and whether the answer is precise. A cluster demoted or
// still solving at the deadline clears precise (the flags stay sound for
// the clusters that did answer). Pointers outside every analyzed cluster
// fall back to the flow-insensitive set with precise=false and unknown
// flags cleared.
func (a *Analysis) DerefStateContext(ctx context.Context, p ir.VarID, loc ir.Loc) (objs []ir.VarID, mayNull, mayUninit, precise bool) {
	set := map[ir.VarID]bool{}
	found, exact := false, true
	complete := a.fold(ctx, p, func(eng *fscs.Engine) bool {
		st := eng.ValueState(p, loc)
		found, exact = true, exact && !st.Unknown
		mayNull = mayNull || st.Null
		mayUninit = mayUninit || st.Uninit
		for _, o := range st.Objs {
			set[o] = true
		}
		return false
	})
	if !found {
		return a.Andersen.PointsTo(p), false, false, false
	}
	return sortedVars(set), mayNull, mayUninit, complete && exact
}

// ValuesInContext returns the objects p may reference at loc when reached
// via the given call path (fully flow- AND context-sensitive), unioned
// over p's clusters. The boolean reports precision; when a cluster of p
// was demoted or still solving at the deadline, or p is in no analyzed
// cluster, the flow-insensitive set is merged in and it is false. An
// invalid call path is an error.
func (a *Analysis) ValuesInContext(ctx context.Context, p ir.VarID, loc ir.Loc, path fscs.Context) ([]ir.VarID, bool, error) {
	set := map[ir.VarID]bool{}
	found, exact := false, true
	var err error
	complete := a.fold(ctx, p, func(eng *fscs.Engine) bool {
		var objs []ir.VarID
		var ok bool
		if objs, ok, err = eng.ValuesInContext(p, loc, path); err != nil {
			return true
		}
		found, exact = true, exact && ok
		for _, o := range objs {
			set[o] = true
		}
		return false
	})
	if err != nil {
		return nil, false, err
	}
	if !found || !complete {
		a.addFallbackPointsTo(set, p)
		return sortedVars(set), false, nil
	}
	return sortedVars(set), exact, nil
}

// MustAliasInContext reports whether p and q must alias at loc in the
// given call path, via any analyzed cluster containing both. precise
// follows MustAliasContext: false when a cluster of p was demoted or
// still solving at the deadline. An invalid call path is an error.
func (a *Analysis) MustAliasInContext(ctx context.Context, p, q ir.VarID, loc ir.Loc, path fscs.Context) (must, precise bool, err error) {
	precise = a.fold(ctx, p, func(eng *fscs.Engine) bool {
		if !eng.Cluster().HasPointer(q) {
			return false
		}
		must, err = eng.MustAliasInContext(p, q, loc, path)
		return must || err != nil
	})
	if err != nil {
		return false, false, err
	}
	return must, precise, nil
}
