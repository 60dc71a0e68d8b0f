// Command perfbench is the repository's benchmark. It runs one of four
// workloads on the Table-1 autofs row at paper scale (see README.md) and
// prints every end-to-end metric, or with -trace 1 every per-layer
// metric, by name and unit; the last line of its output is one JSON
// object with the verdict and the metrics. From the repository root:
//
//	sh perfbench/run.sh --workload cold --seed 0 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// commit is stamped at build time by run.sh (-ldflags -X).
var commit = "unknown"

// workloads maps each workload to its untraced and traced runs.
var workloads = map[string]struct {
	untraced func(seed int64, ops int) (*outcome, error)
	traced   func(seed int64, ops int) (*outcome, error)
	// opsPerSecond is the workload's nominal rate on a 2-CPU box: a run
	// issues seconds*opsPerSecond ops, a fixed sequence for a seed, so
	// the mix inside a run does not shift with machine speed.
	opsPerSecond float64
}{
	"cold":  {runCold, traceCold, 1.8},
	"warm":  {runWarm, traceWarm, 4.5},
	"edit":  {runEdit, traceEdit, 10},
	"query": {runQuery, traceQuery, 7000},
}

// minOps keeps enough samples for a tail with tailBeyond samples beyond
// it.
const minOps = 2*tailBeyond + 1

func opsFor(workload string, seconds int) int {
	return max(minOps, int(math.Round(float64(seconds)*workloads[workload].opsPerSecond)))
}

// metric is one reported number.
type metric struct {
	Name, Unit string
	Value      float64
}

// outcome is a run's result: op accounting, run-level problems (any
// makes the run incorrect), metrics in print order, and context lines
// that are printed but not gated.
type outcome struct {
	attempted, failed int
	opErrors          []string
	problems          []string
	metrics           []metric
	context           []string
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{Name: name, Unit: unit, Value: v})
}

func (o *outcome) note(format string, args ...any) {
	o.context = append(o.context, fmt.Sprintf(format, args...))
}

// opFailed records a failed op; the first few reasons are kept.
func (o *outcome) opFailed(i int, err error) {
	o.failed++
	if len(o.opErrors) < 5 {
		o.opErrors = append(o.opErrors, fmt.Sprintf("op %d: %v", i, err))
	}
}

func (o *outcome) problem(err error) {
	o.problems = append(o.problems, err.Error())
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) result() result {
	r := result{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range o.metrics {
		v := m.Value
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // JSON has no infinity; a failed op's latency
		}
		r.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	return r
}

func main() {
	workload := flag.String("workload", "", "workload to run: cold, warm, edit or query")
	seed := flag.Int64("seed", defaultSeed, "seed of the program and op sequence (0: the unsalted Table-1 row)")
	seconds := flag.Int("seconds", 25, "measured seconds at the nominal op rate")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload {%s} [-seed n] [-seconds n] [-trace 0|1]\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	ops := opsFor(*workload, *seconds)
	fmt.Printf("perfbench: workload=%s seed=%d ops=%d trace=%d program=%s@%.1f\n",
		*workload, *seed, ops, *trace, row, scale)
	fmt.Printf("machine: NumCPU=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)

	run := w.untraced
	if *trace == 1 {
		run = w.traced
	}
	o, err := run(*seed, ops)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	o.note("peak RSS (VmHWM) %.1f MB", mb(peakRSSBytes()))
	report(os.Stdout, o)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the context, failures and metrics, and last the JSON
// result line.
func report(out io.Writer, o *outcome) {
	for _, c := range o.context {
		fmt.Fprintf(out, "context: %s\n", c)
	}
	for _, e := range o.opErrors {
		fmt.Fprintf(out, "failed %s\n", e)
	}
	for _, p := range o.problems {
		fmt.Fprintf(out, "problem: %s\n", p)
	}
	for _, m := range o.metrics {
		fmt.Fprintf(out, "%-24s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	line, err := json.Marshal(o.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(line))
}
