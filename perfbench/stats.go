package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// failedLatency stands for a failed op in latency samples: a failed op
// misses every latency limit.
var failedLatency = math.Inf(1)

// median returns the middle of xs (mean of the two middles for even
// length), or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tail returns the sample at the highest percentile that still has at
// least tailBeyond samples beyond it, and that percentile. With n
// samples it is the (n-tailBeyond)-th smallest, at percentile
// 100*(n-tailBeyond)/n; with tailBeyond or fewer samples no percentile
// qualifies, and the smallest sample is returned at percentile 0.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	n := len(s)
	k := n - tailBeyond
	if k < 1 {
		return s[0], 0
	}
	return s[k-1], 100 * float64(k) / float64(n)
}

// cpuTime is the process's user plus system CPU time. Hypervisor steal
// is not charged to it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

// liveHeapBytes is the heap held by objects, read after a forced GC so
// that only live objects remain.
func liveHeapBytes() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocatedBytes is the cumulative count of bytes allocated on the heap.
func allocatedBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// cpuTicks reads the aggregate line of /proc/stat: the steal ticks and
// the sum of all ticks.
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the share of CPU time the hypervisor took from
// this machine between start and share. Wall times are adjusted by it:
// while a vCPU is stolen nothing on it runs, so with steal share s spread
// over the vCPUs every thread's progress slows by 1-s, whatever the
// parallelism, and wall*(1-s) estimates the wall time without steal.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{steal: s, total: t, ok: ok}
}

// ticks returns the steal and total ticks since start, none where
// /proc/stat is unreadable.
func (m stealMeter) ticks() (steal, total uint64) {
	s, t, ok := cpuTicks()
	if !ok || !m.ok || t <= m.total {
		return 0, 0
	}
	return s - m.steal, t - m.total
}

// share returns the steal share since start: 0 where /proc/stat is
// unreadable, so that adjusting by it leaves a time unchanged.
func (m stealMeter) share() float64 {
	var a stealShare
	a.add(m)
	return a.share()
}

// stealShare is the steal share over a set of intervals, such as a
// run's ops. The counters tick every 10 ms, coarser than many ops, so
// the share is taken over all of them together, not op by op.
type stealShare struct{ steal, total uint64 }

// add adds the interval since m started.
func (a *stealShare) add(m stealMeter) {
	s, t := m.ticks()
	a.steal += s
	a.total += t
}

func (a stealShare) share() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.steal) / float64(a.total)
}

// peakRSSBytes is the process's peak resident set (VmHWM), or 0 where
// /proc/self/status is unreadable.
func peakRSSBytes() uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func mb(b uint64) float64        { return float64(b) / (1 << 20) }
