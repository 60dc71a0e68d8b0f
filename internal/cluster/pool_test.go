package cluster

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

// poolProgram is one program of the pooled-scratch test with its
// Steensgaard analysis and statement index.
type poolProgram struct {
	ix    *Index
	parts [][]ir.VarID
}

// poolPrograms returns driver.cpl and autofs@0.3: two programs of
// different sizes, so a scratch one slice grew for the larger serves a
// slice of the smaller.
func poolPrograms(t *testing.T) []poolProgram {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "driver.cpl"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := synth.FindBenchmark("autofs")
	var out []poolProgram
	for _, s := range []string{string(src), synth.Generate(b, 0.3)} {
		p, err := frontend.LowerSource(s)
		if err != nil {
			t.Fatalf("lower: %v", err)
		}
		sa := steens.Analyze(p)
		out = append(out, poolProgram{ix: NewIndex(p, sa), parts: sa.Partitions()})
	}
	return out
}

// TestSlicePoolConcurrent runs Algorithm 1 over every partition of two
// programs, interleaved, from four goroutines at once, and compares
// every slice with a serial run's: the goroutines share the pooled
// scratch, so a mark left set or a scratch shared by two slices would
// show as a wrong slice (or, under -race, a race).
func TestSlicePoolConcurrent(t *testing.T) {
	const workers = 4
	type job struct {
		ix   *Index
		part []ir.VarID
		want *Cluster
	}
	progs := poolPrograms(t)
	var jobs []job // the programs' partitions, alternately
	for i := 0; ; i++ {
		added := false
		for _, pp := range progs {
			if i < len(pp.parts) {
				jobs = append(jobs, job{ix: pp.ix, part: pp.parts[i], want: NewWithIndex(pp.ix, 0, KindSteensgaard, pp.parts[i])})
				added = true
			}
		}
		if !added {
			break
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
				vars, stmts := jb.ix.RelevantStatements(jb.part)
				c := NewWithIndex(jb.ix, 0, KindSteensgaard, jb.part)
				if !slices.Equal(vars, jb.want.Vars) || !slices.Equal(stmts, jb.want.Stmts) ||
					!slices.Equal(c.Vars, jb.want.Vars) || !slices.Equal(c.Stmts, jb.want.Stmts) ||
					!slices.Equal(c.Funcs, jb.want.Funcs) {
					errs[w] = append(errs[w], j)
				}
			}
		}()
	}
	wg.Wait()
	for w, js := range errs {
		for _, j := range js {
			t.Errorf("goroutine %d: partition job %d sliced differently from the serial run", w, j)
		}
	}
}
