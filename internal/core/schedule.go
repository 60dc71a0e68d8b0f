package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"bootstrap/internal/cluster"
	"bootstrap/internal/fscs"
	"bootstrap/internal/obs"
)

// admit applies the run's cluster selection to c: demand-driven mode
// keeps clusters holding at least one demanded pointer, and the hybrid
// size cut-off leaves oversized ones to the flow-insensitive answer.
// Both are local predicates, so streamed clusters are admitted as they
// arrive. A selected cluster is indexed under its pointers and stays
// indexed: demotion only deselects it, so queries on its pointers still
// find it and report the fallback answer as imprecise. Callers admit in
// cover order, which keeps every pointer's cluster list sorted.
func (a *Analysis) admit(c *cluster.Cluster) bool {
	cfg := a.cfg
	if cfg.HybridSizeLimit > 0 && c.Size() > cfg.HybridSizeLimit {
		return false
	}
	if cfg.Demand != nil {
		demanded := false
		for _, v := range c.Pointers {
			if cfg.Demand(a.Prog.Var(v)) {
				demanded = true
				break
			}
		}
		if !demanded {
			return false
		}
	}
	a.selected[c.ID] = c
	for _, p := range c.Pointers {
		a.byPointer[p] = append(a.byPointer[p], c.ID)
	}
	return true
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
			delete(a.selected, j.c.ID)
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
