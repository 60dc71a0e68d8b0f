package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"bootstrap/internal/cluster"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
)

// admit applies the run's cluster selection to c, the next cluster in
// cover order: demand-driven mode keeps clusters holding at least one
// demanded pointer. The demand predicate is local to a cluster, so
// streamed clusters are admitted as they arrive. c's entry in a.selected
// is c when selected and nil otherwise.
func (a *Analysis) admit(c *cluster.Cluster) bool {
	demand := a.cfg.Demand
	ok := demand == nil || slices.ContainsFunc(c.Pointers, func(v ir.VarID) bool { return demand(a.Prog.Var(v)) })
	if !ok {
		c = nil
	}
	a.selected = append(a.selected, c)
	return ok
}

// indexCover builds the per-cluster tables once the whole cover is
// admitted: the engine and query-health tables, empty, and the pointer
// index, which lists every selected cluster under its pointers; a cover
// admitted in order keeps each pointer's list in cover order. A cluster
// stays listed: demotion only deselects it, so queries on its pointers
// still find it and report the fallback answer as imprecise.
func (a *Analysis) indexCover() {
	a.engines = make([]*fscs.Engine, len(a.selected))
	a.queryHealth = make([]*ClusterHealth, len(a.selected))
	// Count each pointer's clusters into start[p+1], turn the counts
	// into offsets shifted one slot right, and advance start[p+1] while
	// filling: it ends as the offset of p+1's list.
	start := make([]int32, a.Prog.NumVars()+1)
	for _, c := range a.selected {
		if c != nil {
			for _, p := range c.Pointers {
				start[p+1]++
			}
		}
	}
	for p := 1; p < len(start); p++ {
		start[p] += start[p-1]
	}
	ids := make([]int, start[len(start)-1])
	copy(start[1:], start[:len(start)-1])
	for id, c := range a.selected {
		if c != nil {
			for _, p := range c.Pointers {
				ids[start[p+1]] = id
				start[p+1]++
			}
		}
	}
	a.ptrStart, a.ptrClusters = start, ids
}

// at returns entry id of a table by cluster ID, or the zero value when
// id is no cluster of the cover.
func at[T any](table []T, id int) T {
	if id < 0 || id >= len(table) {
		var zero T
		return zero
	}
	return table[id]
}

// feed returns a closed channel carrying cs in order: the slice form of
// a cover stream and of runEager's input.
func feed(cs []*cluster.Cluster) <-chan *cluster.Cluster {
	ch := make(chan *cluster.Cluster, len(cs))
	for _, c := range cs {
		ch <- c
	}
	close(ch)
	return ch
}

// stageContext bounds the eager FSCS stage by cfg.RunTimeout. Only the
// solves run under it: the cover is built under the caller's ctx, since a
// cover truncated by the deadline would leave queries on the missing
// clusters unsound.
func stageContext(ctx context.Context, cfg Config) (context.Context, context.CancelFunc) {
	if cfg.RunTimeout > 0 {
		return context.WithTimeout(ctx, cfg.RunTimeout)
	}
	return ctx, func() {}
}

// runEager is the eager FSCS scheduler every analysis path shares.
// cfg.Workers goroutines take the clusters arriving on in off a job
// channel and run each cluster through RunCluster's degradation ladder
// under ctx, each on its own trace track. Once in is closed and every
// solve has ended, each result is installed by one rule: a surviving
// engine is kept, and a demoted cluster is deselected so queries on its
// pointers answer from the fallback. The returned health follows
// arrival order.
func (a *Analysis) runEager(ctx context.Context, in <-chan *cluster.Cluster, cfg Config) []ClusterHealth {
	type job struct {
		c   *cluster.Cluster
		eng *fscs.Engine
		h   ClusterHealth
	}
	// One queued job per worker lets a worker that finishes a cluster start
	// the next without waiting for the sender's hand-off.
	jobs := make(chan *job, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		cfg.Tracer.NameThread(obs.WorkerTID(w), fmt.Sprintf("fscs-worker-%d", w))
		go func(w int) {
			defer wg.Done()
			wctx := obs.ContextWithWorker(ctx, w)
			for j := range jobs {
				j.eng, j.h = runCluster(wctx, a.Prog, a.CallGraph, a.Steens, j.c, a.Andersen, cfg, a.canons)
			}
		}(w)
	}
	var all []*job
	for c := range in {
		j := &job{c: c}
		all = append(all, j)
		jobs <- j
	}
	close(jobs)
	wg.Wait()

	hs := make([]ClusterHealth, len(all))
	a.mu.Lock()
	for i, j := range all {
		if j.eng != nil {
			a.engines[j.c.ID] = j.eng
		} else {
			a.selected[j.c.ID] = nil
		}
		hs[i] = j.h
	}
	a.mu.Unlock()
	return hs
}

// recordEager books a cascade's eager FSCS stage: the sum of its
// per-cluster times, and Health sorted by cluster ID.
func (a *Analysis) recordEager(hs []ClusterHealth) {
	for _, h := range hs {
		a.Timing.FSCS += h.Elapsed
	}
	a.Health = append(a.Health, hs...)
	sort.Slice(a.Health, func(i, j int) bool { return a.Health[i].ClusterID < a.Health[j].ClusterID })
}
