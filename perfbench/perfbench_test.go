package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"bootstrap/internal/core"
)

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		value     float64
		pct       float64
		beyondMin int
	}{
		{n: 100, value: 90, pct: 90, beyondMin: 10},
		{n: 1000, value: 990, pct: 99, beyondMin: 10},
		{n: 21, value: 11, pct: 100 * 11.0 / 21, beyondMin: 10},
		{n: 11, value: 1, pct: 100 * 1.0 / 11, beyondMin: 10},
		{n: 5, value: 1, pct: 0},
	} {
		xs := seq(tc.n)
		v, pct := tail(xs)
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", tc.n, v, pct, tc.value, tc.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if tc.beyondMin > 0 && beyond != tc.beyondMin {
			t.Errorf("n=%d: %d samples beyond the tail, want exactly %d", tc.n, beyond, tc.beyondMin)
		}
	}

	// Failed ops miss every limit: eleven failures out of a hundred put
	// the tail itself among them.
	xs := seq(100)
	for i := 0; i < 11; i++ {
		xs[i] = failedLatency
	}
	if v, _ := tail(xs); !math.IsInf(v, 1) {
		t.Errorf("tail with 11 failed ops of 100 = %v, want +Inf", v)
	}
	xs[10] = 90 // back to ten failures
	if v, _ := tail(xs); v != 90 {
		t.Errorf("tail with 10 failed ops of 100 = %v, want 90, the largest success", v)
	}
}

// TestSpeedScaling checks that a loop times the reference kernel
// kernelSamples times, spread evenly over its ops, and that times are
// scaled by the kernel's nominal CPU time over its median measured one.
func TestSpeedScaling(t *testing.T) {
	for _, n := range []int{kernelSamples, 45, 113, 250} {
		var at []int
		for i := 0; i < n; i++ {
			if due(i, n) {
				at = append(at, i)
			}
		}
		if len(at) != kernelSamples || at[len(at)-1] != n-1 {
			t.Errorf("%d ops: kernel timed after ops %v, want %d times ending with the last op", n, at, kernelSamples)
			continue
		}
		lo, hi := n, 0
		for k := 1; k < len(at); k++ {
			lo, hi = min(lo, at[k]-at[k-1]), max(hi, at[k]-at[k-1])
		}
		if hi-lo > 1 {
			t.Errorf("%d ops: gaps between kernel samples range from %d to %d", n, lo, hi)
		}
	}

	s := &speedMeter{wall: []float64{30, 120, 40}, cpu: []float64{230, 50, 60}}
	if f := s.factor(); f != kernelCPUMs/60 {
		t.Errorf("factor %v, want %v", f, kernelCPUMs/60)
	}
}

// TestWrongReferenceFailsOp injects a wrong reference answer and checks
// that the op checked against it is counted failed and the run
// incorrect.
func TestWrongReferenceFailsOp(t *testing.T) {
	src := source()
	a, err := core.AnalyzeSource(src, analysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(a, src, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.checkAnalysis(a); err != nil {
		t.Fatalf("untouched reference: %v", err)
	}
	for i := range ref.answers {
		if len(ref.answers[i].Objs) > 0 {
			ref.answers[i].Objs = ref.answers[i].Objs[1:]
			break
		}
	}
	l := newLoop(2, &speedMeter{})
	l.begin()
	l.record(0, time.Millisecond, nil)
	l.record(1, time.Millisecond, ref.checkAnalysis(a))
	o := l.finish([]float64{1}, 1)
	r := o.result()
	if r.Correct || r.Failed != 1 || r.Attempted != 2 {
		t.Fatalf("result %+v: want incorrect with 1 of 2 ops failed", r)
	}
	if got := r.Metrics["ok_frac"].Value; got != 0.5 {
		t.Errorf("ok_frac %v, want 0.5", got)
	}
}

// TestExactCountsRepeat runs each traced workload twice on one seed and
// requires every exact count to repeat exactly.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced workloads")
	}
	spanDir = t.TempDir()
	for _, tc := range []struct {
		name string
		run  func(int64, int) (*outcome, error)
		ops  int
	}{
		{"cold", traceCold, 2},
		{"warm", traceWarm, 2},
		{"edit", traceEdit, heavyEvery},
	} {
		var runs [2]map[string]float64
		for i := range runs {
			o, err := tc.run(1, tc.ops)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if r := o.result(); !r.Correct {
				t.Fatalf("%s: incorrect run: %v %v", tc.name, o.opErrors, o.problems)
			}
			runs[i] = map[string]float64{}
			for _, m := range o.metrics {
				runs[i][m.Name] = m.Value
			}
		}
		nonzero := 0
		for _, m := range layerMetrics {
			if !m.Exact {
				continue
			}
			if runs[0][m.Name] != runs[1][m.Name] {
				t.Errorf("%s: exact count %s read %v then %v", tc.name, m.Name, runs[0][m.Name], runs[1][m.Name])
			}
			if runs[0][m.Name] != 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			t.Errorf("%s: no exact count was measured", tc.name)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json naming the metrics.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestPrintedNames checks that the result line of an untraced run
// carries exactly BENCHMARK.json's end-to-end metrics, and of a traced
// run exactly its per-layer metrics, with their units.
func TestPrintedNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}

	l := newLoop(1, &speedMeter{})
	l.begin()
	l.record(0, time.Millisecond, nil)
	untraced := l.finish([]float64{1}, 1)

	spanDir = t.TempDir()
	traced := newTracedRun().finish("names", 0, true, "none")

	for _, tc := range []struct {
		name string
		o    *outcome
		want []struct{ Name, Unit string }
	}{
		{"end_to_end", untraced, spec.EndToEnd},
		{"per_layer", traced, spec.PerLayer},
	} {
		var buf bytes.Buffer
		report(&buf, tc.o)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatalf("%s: last line is not the result: %v", tc.name, err)
		}
		if len(r.Metrics) != len(tc.want) {
			t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", tc.name, len(r.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := r.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: %s not printed", tc.name, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: %s printed in %s, BENCHMARK.json says %s", tc.name, m.Name, got.Unit, m.Unit)
			}
		}
	}
}

// TestQuerySmoke runs the query workload, which BENCHMARK.json does not
// gate, untraced and traced on a few ops.
func TestQuerySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the query workload")
	}
	spanDir = t.TempDir()
	for name, run := range map[string]func(int64, int) (*outcome, error){"untraced": runQuery, "traced": traceQuery} {
		o, err := run(2, 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r := o.result(); !r.Correct || r.Attempted != 64 {
			t.Errorf("%s: %+v %v %v", name, r, o.opErrors, o.problems)
		}
	}
}
