package cache

import (
	"slices"
	"sync"
	"testing"

	"bootstrap/internal/cluster"
	"bootstrap/internal/ir"
)

// TestCanonPoolConcurrent keys every cluster of two programs of
// different sizes (driver.cpl and autofs@0.3), interleaved, from four
// goroutines at once, and compares each Canon with a serial run's: key,
// canonical function and variable lists, and the Map lookups built from
// them. The goroutines share the pooled numbering scratch, and a
// scratch grown for the larger program serves the smaller.
func TestCanonPoolConcurrent(t *testing.T) {
	const workers = 4
	params := Params{MaxCond: 8}
	type job struct {
		tab  *Table
		c    *cluster.Cluster
		want *Canon
	}
	var covers [][]job
	for _, p := range []*ir.Program{keyPrograms[0].lower(t), lowerSynth(t, "autofs", 0.3)} {
		sa, cg, cover := keyFront(t, p)
		serial, shared := NewTable(p, sa, cg), NewTable(p, sa, cg)
		var js []job
		for _, c := range cover {
			js = append(js, job{tab: shared, c: c, want: serial.Canon(c, params)})
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
			start := w * len(jobs) / workers
			for i := range jobs {
				j := (start + i) % len(jobs)
				jb := jobs[j]
				cn := jb.tab.Canon(jb.c, params)
				same := cn.Key() == jb.want.Key() && slices.Equal(cn.fns, jb.want.fns) && slices.Equal(cn.vars, jb.want.vars)
				for l, v := range cn.vars {
					if got, ok := cn.MapVar(v); !ok || got != int32(l) {
						same = false
					}
				}
				for l, f := range cn.fns {
					if got, ok := cn.MapFunc(f); !ok || got != int32(l) {
						same = false
					}
				}
				if !same {
					errs[w] = append(errs[w], j)
				}
			}
		}()
	}
	wg.Wait()
	for w, js := range errs {
		for _, j := range js {
			t.Errorf("goroutine %d: cluster job %d keyed differently from the serial run", w, j)
		}
	}
}
