package fscs

import (
	"crypto/sha256"
	"sync"
	"testing"

	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
)

// TestEnginePoolConcurrent builds and runs an engine for every cluster
// of two programs of different sizes (driver.cpl devirtualized and
// autofs@0.3), interleaved, from four goroutines at once, and compares
// each engine's exported state with a serial run's. The goroutines
// share the pooled mod-set scratch and call states, and a scratch grown
// for the larger program serves the smaller.
func TestEnginePoolConcurrent(t *testing.T) {
	const workers = 4
	params := cache.Params{MaxCond: 8}
	type job struct {
		prog *ir.Program
		cg   *callgraph.Graph
		sa   *steens.Analysis
		tab  *cache.Table
		c    *cluster.Cluster
		want [sha256.Size]byte
	}
	digest := func(jb job) [sha256.Size]byte {
		eng := NewEngine(jb.prog, jb.cg, jb.sa, jb.c)
		if err := eng.Run(); err != nil {
			t.Errorf("cluster %d: %v", jb.c.ID, err)
		}
		payload, ok := eng.ExportState(jb.tab.Canon(jb.c, params))
		if !ok {
			t.Errorf("cluster %d: state does not export", jb.c.ID)
		}
		return sha256.Sum256(payload)
	}
	var covers [][]job
	for _, src := range []string{driverSource(t), synthSource("autofs", 0.3)(t)} {
		prog, err := frontend.LowerSource(src)
		if err != nil {
			t.Fatal(err)
		}
		sa := steens.Analyze(prog)
		if frontend.HasIndirectCalls(prog) {
			if err := frontend.Devirtualize(prog, func(_ ir.Loc, fp ir.VarID) []ir.FuncID { return sa.Targets(fp) }); err != nil {
				t.Fatal(err)
			}
			sa = steens.Analyze(prog)
		}
		cg := callgraph.Build(prog)
		tab := cache.NewTable(prog, sa, cg)
		var js []job
		for _, c := range cluster.BuildAndersen(prog, sa, cluster.DefaultAndersenThreshold) {
			jb := job{prog: prog, cg: cg, sa: sa, tab: tab, c: c}
			jb.want = digest(jb)
			js = append(js, jb)
		}
		covers = append(covers, js)
	}
	var jobs []job // the two covers' clusters, alternately
	for i := 0; i < max(len(covers[0]), len(covers[1])); i++ {
		for _, js := range covers {
			if i < len(js) {
				jobs = append(jobs, js[i])
			}
		}
	}
	errs := make([][]int, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w; j < len(jobs); j += workers {
				if digest(jobs[j]) != jobs[j].want {
					errs[w] = append(errs[w], j)
				}
			}
		}()
	}
	wg.Wait()
	for w, js := range errs {
		for _, j := range js {
			t.Errorf("goroutine %d: cluster job %d exported a state unlike the serial run's", w, j)
		}
	}
}
