// Parallel: demonstrates that clusters are independent units of work —
// the property that lets the paper parallelize the precise analysis. The
// example generates a driver-sized synthetic workload and runs the
// analysis with one worker and with GOMAXPROCS workers, alternating the
// two settings over several runs so neither profits from going first,
// and reports each setting's median wall clock.
//
//	go run ./examples/parallel
package main

import (
	"fmt"
	"log"
	"runtime"
	"sort"
	"time"

	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/synth"
)

// runs is the number of analyses per worker setting.
const runs = 5

func main() {
	b, _ := synth.FindBenchmark("autofs") // 8.3 KLOC, ~3.3k pointers
	src := synth.Generate(b, 1.0)
	fmt.Printf("workload: %s-shaped synthetic program\n", b.Name)

	prog, err := frontend.LowerSource(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d abstract objects, %d functions, %d statements\n\n",
		prog.NumVars(), len(prog.Funcs), len(prog.Nodes))

	run := func(workers int) *core.Analysis {
		a, err := core.AnalyzeSource(src, core.Config{
			Mode:    core.ModeAndersen,
			Workers: workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		return a
	}
	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}

	nw := runtime.GOMAXPROCS(0)
	if nw == 1 {
		fmt.Println("single CPU available: nothing to compare the sequential run with")
		return
	}
	walls := map[int][]time.Duration{}
	for i := 0; i < runs; i++ {
		order := []int{1, nw}
		if i%2 == 1 {
			order = []int{nw, 1}
		}
		for _, w := range order {
			walls[w] = append(walls[w], run(w).Timing.Wall)
		}
	}
	seq, par := median(walls[1]), median(walls[nw])
	fmt.Printf("median wall time of %d alternating runs each:\n", runs)
	fmt.Printf("  sequential:  %v\n", seq.Round(1000))
	fmt.Printf("  parallel(%d): %v  (speedup %.1fx)\n", nw, par.Round(1000), float64(seq)/float64(par))
}
