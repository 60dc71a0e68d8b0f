package main

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// The box's speed for the same work swings by a third and more over
// minutes, with no hypervisor steal to show for it (README.md,
// "Steadiness"). A run therefore also times a fixed reference kernel,
// interleaved with its ops, and reports its times scaled to a machine on
// which the kernel takes kernelCPUMs of CPU time. The kernel's CPU time,
// not its wall time, sets the scale: it measures how fast the machine
// runs a fixed amount of work without the steal and scheduling delays
// that wall time adds (the ops' wall times are steal-adjusted on their
// own). The kernel is the benchmark's own frozen code: a change to the
// analysis moves the ops and not the kernel.
//
// The kernel allocates and walks small pointer-linked objects and small
// maps from kernelWorkers goroutines, the kind of work whose speed moves
// with the op's; it runs with the collector off, so that its time does
// not depend on the heap the workload keeps live, and its garbage is
// collected outside any timing.
const (
	kernelWorkers = 2  // the analysis's default Workers on the 2-CPU box
	kernelTrees   = 3  // per worker
	kernelDepth   = 15 // of each binary tree; inner nodes hold a map
	kernelMapLen  = 4

	// kernelCPUMs is the kernel's nominal CPU time, about its median on
	// the 2-CPU box the bounds were set on. It only sets the scale of the
	// reported times.
	kernelCPUMs = 115.0

	// kernelSamples is how many times a measured loop times the kernel,
	// spread evenly over its ops; set-up times it once per repeat more.
	kernelSamples = 24
)

type knode struct {
	l, r *knode
	m    map[int]int
	v    int
}

func buildTree(depth int, rng *rand.Rand) *knode {
	if depth == 0 {
		return &knode{v: rng.Int()}
	}
	n := &knode{l: buildTree(depth-1, rng), r: buildTree(depth-1, rng), m: make(map[int]int)}
	for i := 0; i < kernelMapLen; i++ {
		n.m[rng.Int()] = i
	}
	return n
}

func walkTree(n *knode) int {
	if n == nil {
		return 0
	}
	s := n.v & 1
	for k, v := range n.m {
		s += (k ^ v) & 1
	}
	return s + walkTree(n.l) + walkTree(n.r)
}

// kernelSink keeps the kernel's result live so that it is not optimised
// away.
var kernelSink int

// runKernel runs the reference kernel once and returns its wall and
// process CPU time.
func runKernel() (wall, cpu time.Duration) {
	runtime.GC() // no sweeping of the workload's garbage is left for the kernel
	gcPercent := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(math.MaxInt64)
	sums := make([]int, kernelWorkers)
	c0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for w := range sums {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			trees := make([]*knode, kernelTrees)
			for i := range trees {
				trees[i] = buildTree(kernelDepth, rng)
			}
			for _, t := range trees {
				sums[w] += walkTree(t)
			}
		}(w)
	}
	wg.Wait()
	wall, cpu = time.Since(t0), cpuTime()-c0
	debug.SetMemoryLimit(limit)
	debug.SetGCPercent(gcPercent)
	runtime.GC() // the trees are garbage now
	for _, s := range sums {
		kernelSink += s
	}
	return wall, cpu
}

// speedMeter collects a run's kernel times.
type speedMeter struct {
	wall, cpu []float64 // ms; wall is context only
	allocated uint64    // bytes the kernel allocated
}

func (s *speedMeter) sample() {
	a0 := allocatedBytes()
	w, c := runKernel()
	s.allocated += allocatedBytes() - a0
	s.wall = append(s.wall, ms(w))
	s.cpu = append(s.cpu, ms(c))
}

// due reports whether the kernel is timed after op i of n: kernelSamples
// times, spread evenly over the loop.
func due(i, n int) bool {
	return (i+1)*kernelSamples/n != i*kernelSamples/n
}

// factor returns what the run's times (steal-adjusted wall times and
// CPU times alike) are multiplied by to scale them to the kernel's
// nominal speed. A run that has not timed the kernel yet times it once.
func (s *speedMeter) factor() float64 {
	if len(s.cpu) == 0 {
		s.sample()
	}
	return kernelCPUMs / median(s.cpu)
}
