// Difference propagation in wave order, with an optional parallel wave
// front solve — the delta Andersen solver behind WithDeltaPropagation
// and WithParallelSolve.
//
// Each round: (1) condense the copy graph's strongly connected
// components so the remainder is a DAG and assign every node a level
// (its longest-path depth from the sources); (2) run one wave — process
// levels ("fronts") in order, each node pulling its predecessors' wave
// deltas into its own set, so a bit crosses every edge at most once per
// appearance; (3) feed the wave deltas to the complex constraints
// (loads, stores, indirect calls), whose new copy edges transfer the
// source's current set once in full and seed the target's pending delta
// for the next round. The fixpoint is reached when a round adds no
// pending bits.
//
// The wave is what parallelizes: no copy edge connects two nodes of the
// same front (an edge always increases the level), so a front's nodes
// can be fanned across a worker pool with per-node mutation ownership —
// each worker writes only the pts/out sets of its own nodes and reads
// only deltas frozen by the previous front's barrier. No locks or
// atomics are needed on the propagation path.
package andersen

import (
	"slices"
	"sync"

	"bootstrap/internal/bitset"
	"bootstrap/internal/ir"
)

// parFrontMin is the smallest front worth fanning out: below this the
// per-front barrier costs more than the propagation it parallelizes.
const parFrontMin = 64

// activateDelta registers a canonical node with the wave machinery.
func (s *solver) activateDelta(v int32) {
	if s.out[v] == nil {
		s.out[v] = &bitset.Set{}
		s.active = append(s.active, v)
	}
}

func (s *solver) solveDelta() {
	nv := len(s.pts)
	s.out = make([]*bitset.Set, nv)
	s.copyIn = make([][]int32, nv)
	for v := 0; v < nv; v++ {
		if !s.pts[v].Empty() || len(s.copyTo[v]) > 0 || len(s.loads[v]) > 0 || len(s.stores[v]) > 0 {
			s.activateDelta(int32(v))
		}
	}
	for v := range s.calls {
		s.activateDelta(int32(v))
	}
	// Copy targets receive bits even if they carry no constraint of
	// their own; the index loop sees nodes activated as it goes.
	for i := 0; i < len(s.active); i++ {
		for _, w := range s.copyTo[s.active[i]] {
			s.activateDelta(w)
		}
	}
	parallel := s.parWorkers > 1 && len(s.active) >= s.parThreshold

	index := make([]int32, nv)
	low := make([]int32, nv)
	level := make([]int32, nv)
	onStack := make([]bool, nv)
	mark := make([]bool, nv)

	for {
		s.stats.Waves++
		fronts := s.condenseDelta(index, low, level, onStack, mark)
		s.runWave(fronts, parallel)
		s.dirty = false
		s.complexDelta()
		if !s.dirty {
			return
		}
	}
}

// condenseDelta collapses copy-graph SCCs, rebuilds the canonical
// deduplicated adjacency (successors and predecessors) and returns the
// wave fronts: active nodes bucketed by longest-path level in the
// condensed DAG. The scratch slices are owned by solveDelta and reused
// across rounds.
func (s *solver) condenseDelta(index, low, level []int32, onStack, mark []bool) [][]int32 {
	// Canonicalize and dedupe the active list.
	act := s.active[:0]
	for _, v := range s.active {
		if r := s.find(v); !mark[r] {
			mark[r] = true
			act = append(act, r)
		}
	}
	s.active = act
	for _, v := range act {
		mark[v] = false
		index[v] = -1
	}

	// Iterative Tarjan; SCCs are emitted sinks-first, so the reverse of
	// the emission order is a topological order of the condensation.
	var sccRoots []int32
	var tstack []int32
	type frame struct {
		v  int32
		ci int
	}
	var frames []frame
	next := int32(0)
	for _, sv := range act {
		if index[sv] != -1 {
			continue
		}
		frames = append(frames[:0], frame{v: sv})
		index[sv], low[sv] = next, next
		next++
		tstack = append(tstack, sv)
		onStack[sv] = true
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			edges := s.copyTo[fr.v]
			if fr.ci < len(edges) {
				w := s.find(edges[fr.ci])
				fr.ci++
				if w == fr.v {
					continue
				}
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					tstack = append(tstack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[fr.v] {
					low[fr.v] = index[w]
				}
				continue
			}
			if low[fr.v] == index[fr.v] {
				var scc []int32
				for {
					w := tstack[len(tstack)-1]
					tstack = tstack[:len(tstack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == fr.v {
						break
					}
				}
				if len(scc) > 1 {
					// Keep fr.v the representative: later cross edges to
					// merged members must resolve to an emitted node.
					scc[0], scc[len(scc)-1] = scc[len(scc)-1], scc[0]
					s.stats.Collapses++
					s.mergeSCC(scc)
				}
				sccRoots = append(sccRoots, fr.v)
			}
			done := fr.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[done] < low[parent.v] {
					low[parent.v] = low[done]
				}
			}
		}
	}

	// Re-canonicalize after the merges, then rebuild deduplicated
	// successor and predecessor lists over representatives only.
	act = s.active[:0]
	for _, v := range s.active {
		if r := s.find(v); !mark[r] {
			mark[r] = true
			act = append(act, r)
		}
	}
	s.active = act
	for _, v := range act {
		mark[v] = false
		level[v] = 0
		s.copyIn[v] = s.copyIn[v][:0]
	}
	for _, v := range act {
		edges := s.copyTo[v][:0]
		for _, w := range s.copyTo[v] {
			if w = s.find(w); w != v {
				edges = append(edges, w)
			}
		}
		slices.Sort(edges)
		edges = slices.Compact(edges)
		s.copyTo[v] = edges
		for _, w := range edges {
			s.copyIn[w] = append(s.copyIn[w], v)
		}
	}
	// Levels: walk representatives in topological order and push
	// longest-path depths along the (acyclic) remaining edges.
	maxLevel := int32(0)
	for i := len(sccRoots) - 1; i >= 0; i-- {
		v := sccRoots[i]
		if s.find(v) != v {
			continue
		}
		lv := level[v] + 1
		for _, w := range s.copyTo[v] {
			if level[w] < lv {
				level[w] = lv
				if lv > maxLevel {
					maxLevel = lv
				}
			}
		}
	}
	fronts := make([][]int32, maxLevel+1)
	for _, v := range act {
		fronts[level[v]] = append(fronts[level[v]], v)
	}
	return fronts
}

// waveCounts accumulates per-worker statistics so the propagation path
// stays free of shared writes.
type waveCounts struct{ passes, fired, merged int64 }

// waveNode folds v's pending bits and its predecessors' wave deltas
// into pts[v], exposing the newly arrived bits as out[v]. Only v's own
// sets are written; predecessor deltas were frozen by earlier fronts.
func (s *solver) waveNode(v int32, c *waveCounts) {
	ov := s.out[v]
	ov.Reset()
	ov.UnionWith(s.pending[v])
	for _, u := range s.copyIn[v] {
		ou := s.out[u]
		if ou.Empty() {
			continue
		}
		c.fired++
		if s.pts[v].UnionInto(ou, ov) {
			c.merged++
		}
	}
	if !ov.Empty() {
		c.passes++
	}
}

func (s *solver) runWave(fronts [][]int32, parallel bool) {
	var c waveCounts
	for _, front := range fronts {
		if parallel && len(front) >= parFrontMin {
			s.stats.ParFronts++
			s.stats.ParNodes += int64(len(front))
			s.runFrontParallel(front)
			continue
		}
		for _, v := range front {
			s.waveNode(v, &c)
		}
	}
	s.stats.Passes += c.passes
	s.stats.DeltaEdgesFired += c.fired
	s.stats.DeltaMerges += c.merged
}

// runFrontParallel fans one front across the worker pool in contiguous
// chunks. The WaitGroup barrier between fronts is the only
// synchronization: within a front, workers touch disjoint nodes.
func (s *solver) runFrontParallel(front []int32) {
	nw := s.parWorkers
	if maxW := (len(front) + parFrontMin - 1) / parFrontMin; nw > maxW {
		nw = maxW
	}
	chunk := (len(front) + nw - 1) / nw
	counts := make([]waveCounts, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(front))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(c *waveCounts, nodes []int32) {
			defer wg.Done()
			for _, v := range nodes {
				s.waveNode(v, c)
			}
		}(&counts[w], front[lo:hi])
	}
	wg.Wait()
	for _, c := range counts {
		s.stats.Passes += c.passes
		s.stats.DeltaEdgesFired += c.fired
		s.stats.DeltaMerges += c.merged
	}
}

// complexDelta feeds each node's wave delta to its complex constraints.
// New edges added here (and the bits their one-time full transfer
// contributes) mark the solver dirty, scheduling another round. Every
// consumed pending set is cleared up front, before any constraint runs:
// addCopy seeds the *target's* pending, so an interleaved reset would
// wipe bits seeded moments earlier by another node's constraints (and a
// node's own re-added bits must survive into the next wave either way).
func (s *solver) complexDelta() {
	for _, v := range s.active {
		if !s.out[v].Empty() {
			s.pending[v].Reset()
		}
	}
	for _, v := range s.active {
		ov := s.out[v]
		if ov.Empty() {
			continue
		}
		ld, st := s.loads[v], s.stores[v]
		cs := s.calls[int(v)]
		if len(ld) == 0 && len(st) == 0 && cs == nil {
			continue
		}
		ov.ForEach(func(o int) bool {
			for _, x := range ld {
				s.addCopy(int32(o), x) // x = *v, v -> o: x ⊇ pts(o)
			}
			for _, y := range st {
				s.addCopy(y, int32(o)) // *v = y: o ⊇ pts(y)
			}
			if cs != nil {
				if fn := s.prog.Var(ir.VarID(o)); fn.Kind == ir.KindFunc {
					s.bindCalls(cs, fn.Fn)
				}
			}
			return true
		})
	}
}
