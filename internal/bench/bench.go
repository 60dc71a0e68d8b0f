// Package bench regenerates the paper's evaluation artifacts: Table 1
// (flow- and context-sensitive alias analysis without clustering, with
// Steensgaard clustering, and with Andersen clustering, including the
// simulated 5-machine parallelization) and Figure 1 (cluster-size
// frequencies, Steensgaard vs Andersen), over the synthetic workloads of
// package synth. It also provides the Andersen-threshold sweep ablation
// discussed in Section 2.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

// Options tune a harness run.
type Options struct {
	// Scale shrinks the paper-sized workloads (1.0 = full size).
	Scale float64
	// Parts is the simulated machine count (paper: 5).
	Parts int
	// Budget caps worklist tuples for the *unclustered* run — the
	// analogue of the paper's 15-minute timeout. Zero means 3e6. Tuples
	// are counted at relevant Prog_P nodes only (fscs.WithBudget).
	Budget int64
	// SkipNoClustering skips the expensive monolithic baseline.
	SkipNoClustering bool
	// Threshold overrides the Andersen threshold (0 = paper default 60,
	// scaled).
	Threshold int
	// ClusterTimeout bounds each engine attempt's wall clock (0 = no
	// deadline) — rows then record the demoted clusters in their health
	// counts instead of running forever.
	ClusterTimeout time.Duration
	// Retries is the degradation-ladder retry count handed to the
	// scheduler (see core.Config.Retries). Zero keeps the historical
	// bench behavior of a single attempt per cluster, so retry time
	// never pollutes the Table 1 columns unless asked for.
	Retries int
	// CacheDir, when non-empty, gives the per-cluster result cache a disk
	// tier under it, so the warm-rerun measurements survive across
	// benchtab invocations (a second run against the same directory
	// starts fully warm).
	CacheDir string
	// Tracer and Metrics, when non-nil, observe the per-cluster scheduler
	// runs (cluster/attempt/cache spans, outcome counters).
	Tracer  *obs.Tracer
	Metrics *obs.Metrics
}

func (o *Options) fill() {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Parts <= 0 {
		o.Parts = 5
	}
	if o.Budget <= 0 {
		o.Budget = 3_000_000
	}
	if o.Retries == 0 {
		o.Retries = -1
	}
}

func (o *Options) threshold() int {
	if o.Threshold > 0 {
		return o.Threshold
	}
	t := int(float64(cluster.DefaultAndersenThreshold) * o.Scale)
	if t < 4 {
		t = 4
	}
	return t
}

// HealthCounts aggregates the scheduler's per-cluster health over one
// cover run.
type HealthCounts struct {
	OK, Retried, Recovered, Exhausted, TimedOut, Degraded int
}

func (h *HealthCounts) add(s core.HealthStatus) {
	switch s {
	case core.HealthOK:
		h.OK++
	case core.HealthRetried:
		h.Retried++
	case core.HealthRecovered:
		h.Recovered++
	case core.HealthExhausted:
		h.Exhausted++
	case core.HealthTimedOut:
		h.TimedOut++
	case core.HealthDegraded:
		h.Degraded++
	}
}

// Demoted counts the clusters that lost their engine and fell back to
// the flow-insensitive answer.
func (h HealthCounts) Demoted() int { return h.Exhausted + h.TimedOut + h.Degraded }

// String renders the non-zero failure counts, e.g. "2 exhausted"; empty
// when every cluster completed on the first attempt.
func (h HealthCounts) String() string {
	var parts []string
	for _, p := range []struct {
		n    int
		name string
	}{
		{h.Retried, "retried"}, {h.Recovered, "recovered"},
		{h.Exhausted, "exhausted"}, {h.TimedOut, "timed-out"}, {h.Degraded, "degraded"},
	} {
		if p.n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", p.n, p.name))
		}
	}
	return strings.Join(parts, ", ")
}

// Row is one measured Table 1 row.
type Row struct {
	Bench    synth.Benchmark
	Pointers int // measured abstract-object count

	SteensTime  time.Duration // partitioning (column 4)
	ClusterTime time.Duration // Andersen clustering (column 5)

	NoClusterTime     time.Duration // column 6
	NoClusterTimedOut bool

	SteensNum  int           // column 7 (#cluster)
	SteensMax  int           // column 8 (Max)
	SteensFSCS time.Duration // column 9 (simulated 5-part time)

	AndersenNum  int           // column 10
	AndersenMax  int           // column 11
	AndersenFSCS time.Duration // column 12

	// AndersenWarm re-measures the Andersen cover against a warm result
	// cache: every cluster's fingerprint hits, so this is the incremental
	// reanalysis cost of an unchanged program.
	AndersenWarm time.Duration
	// WarmCache is the warm rerun's cache traffic (hits, misses, bytes).
	WarmCache cache.Stats

	// Scheduler health per cover (budget exhaustion, deadlines, panics).
	NoClusterHealth HealthCounts
	SteensHealth    HealthCounts
	AndersenHealth  HealthCounts
}

// runCover runs the per-cluster FSCS engines sequentially through the
// fault-tolerant scheduler, returning the per-cluster times (for the
// machine simulation) and the aggregated health report.
func runCover(prog *ir.Program, cg *callgraph.Graph, sa *steens.Analysis,
	cs []*cluster.Cluster, budget int64, opt Options, cc *cache.Cache) ([]time.Duration, HealthCounts) {
	times := make([]time.Duration, len(cs))
	var hc HealthCounts
	cfg := core.Config{
		ClusterBudget:  budget,
		ClusterTimeout: opt.ClusterTimeout,
		Retries:        opt.Retries,
		Cache:          cc,
		Tracer:         opt.Tracer,
		Metrics:        opt.Metrics,
	}
	for i, c := range cs {
		t := time.Now()
		_, h := core.RunCluster(context.Background(), prog, cg, sa, c, nil, cfg)
		times[i] = time.Since(t)
		hc.add(h.Status)
	}
	return times, hc
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// RunRow generates b's synthetic workload and measures one Table 1 row.
func RunRow(b synth.Benchmark, opt Options) (Row, error) {
	opt.fill()
	src := synth.Generate(b, opt.Scale)
	prog, err := frontend.LowerSource(src)
	if err != nil {
		return Row{}, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	row := Row{Bench: b, Pointers: prog.NumVars()}

	t0 := time.Now()
	sa := steens.Analyze(prog)
	row.SteensTime = time.Since(t0)
	cg := callgraph.Build(prog)

	// Column 6: FSCS without clustering (budgeted, like the 15-min cap).
	if !opt.SkipNoClustering {
		whole := []*cluster.Cluster{cluster.BuildWhole(prog, sa)}
		times, hc := runCover(prog, cg, sa, whole, opt.Budget, opt, nil)
		row.NoClusterTime = sum(times)
		row.NoClusterHealth = hc
		row.NoClusterTimedOut = hc.Demoted() > 0
	}

	// Columns 7-9: Steensgaard clustering.
	steensCover := cluster.BuildSteensgaard(prog, sa)
	ss := cluster.CoverStats(steensCover)
	row.SteensNum, row.SteensMax = ss.NumClusters, ss.MaxSize
	stimes, shc := runCover(prog, cg, sa, steensCover, 0, opt, nil)
	row.SteensHealth = shc
	row.SteensFSCS = core.SimulateParallel(steensCover, stimes, opt.Parts)

	// Columns 5, 10-12: Andersen clustering.
	t1 := time.Now()
	andersenCover := cluster.BuildAndersen(prog, sa, opt.threshold())
	row.ClusterTime = time.Since(t1)
	as := cluster.CoverStats(andersenCover)
	row.AndersenNum, row.AndersenMax = as.NumClusters, as.MaxSize
	atimes, ahc := runCover(prog, cg, sa, andersenCover, 0, opt, nil)
	row.AndersenHealth = ahc
	row.AndersenFSCS = core.SimulateParallel(andersenCover, atimes, opt.Parts)

	// Warm rerun: populate the result cache with one pass over the
	// Andersen cover, then measure the rerun that serves from it.
	cc := cache.New(cache.Options{Dir: opt.CacheDir})
	runCover(prog, cg, sa, andersenCover, 0, opt, cc)
	before := cc.Stats()
	wtimes, _ := runCover(prog, cg, sa, andersenCover, 0, opt, cc)
	row.AndersenWarm = sum(wtimes)
	row.WarmCache = cc.Stats().Sub(before)

	return row, nil
}

// RunTable measures every given row, streaming progress to w (nil for
// silent).
func RunTable(benches []synth.Benchmark, opt Options, w io.Writer) ([]Row, error) {
	var rows []Row
	for _, b := range benches {
		if w != nil {
			fmt.Fprintf(w, "running %-16s ...", b.Name)
		}
		row, err := RunRow(b, opt)
		if err != nil {
			return nil, err
		}
		if w != nil {
			fmt.Fprintf(w, " done (%d pointers, %d+%d clusters)\n",
				row.Pointers, row.SteensNum, row.AndersenNum)
			for _, cover := range []struct {
				name string
				hc   HealthCounts
			}{
				{"no-clustering", row.NoClusterHealth},
				{"steensgaard", row.SteensHealth},
				{"andersen", row.AndersenHealth},
			} {
				if s := cover.hc.String(); s != "" {
					fmt.Fprintf(w, "  %s health: %s\n", cover.name, s)
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func fmtDur(d time.Duration, timedOut bool) string {
	if timedOut {
		return "> budget"
	}
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fmin", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	}
	return fmt.Sprintf("%dµs", d.Microseconds())
}

// FormatTable renders measured rows in the layout of the paper's Table 1.
func FormatTable(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %6s %9s | %9s %9s | %10s | %8s %5s %9s | %8s %5s %9s\n",
		"Example", "KLOC", "#pointers", "Steens", "AndClust", "NoCluster",
		"#cluster", "Max", "Time", "#cluster", "Max", "Time")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 132))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %6.1f %9d | %9s %9s | %10s | %8d %5d %9s | %8d %5d %9s\n",
			r.Bench.Name, r.Bench.KLOC, r.Pointers,
			fmtDur(r.SteensTime, false), fmtDur(r.ClusterTime, false),
			fmtDur(r.NoClusterTime, r.NoClusterTimedOut),
			r.SteensNum, r.SteensMax, fmtDur(r.SteensFSCS, false),
			r.AndersenNum, r.AndersenMax, fmtDur(r.AndersenFSCS, false))
	}
	return b.String()
}

// coverOrder fixes the order of the per-cover timing columns. Columns
// are emitted from this slice, never by ranging over a map, so repeated
// benchtab runs diff cleanly.
var coverOrder = []string{"steens-partition", "andersen-cluster", "no-clustering", "steens-fscs", "andersen-fscs", "andersen-warm", "warm-cache"}

// FormatTimings renders one timing column per cover stage, per row, in
// the fixed coverOrder, with the warm rerun's cache traffic last.
func FormatTimings(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s", "Example")
	for _, c := range coverOrder {
		fmt.Fprintf(&b, " %16s", c)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 16+17*len(coverOrder)))
	for _, r := range rows {
		cols := map[string]string{
			"steens-partition": fmtDur(r.SteensTime, false),
			"andersen-cluster": fmtDur(r.ClusterTime, false),
			"no-clustering":    fmtDur(r.NoClusterTime, r.NoClusterTimedOut),
			"steens-fscs":      fmtDur(r.SteensFSCS, false),
			"andersen-fscs":    fmtDur(r.AndersenFSCS, false),
			"andersen-warm":    fmtDur(r.AndersenWarm, false),
			"warm-cache":       fmt.Sprintf("%dh/%dm", r.WarmCache.Hits, r.WarmCache.Misses),
		}
		fmt.Fprintf(&b, "%-16s", r.Bench.Name)
		for _, c := range coverOrder {
			fmt.Fprintf(&b, " %16s", cols[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatComparison renders paper-reported vs measured shape metrics, the
// content of EXPERIMENTS.md.
func FormatComparison(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s | %22s | %22s | %26s\n",
		"Example", "max part (paper/ours)", "max clus (paper/ours)", "no-clustering (paper/ours)")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 96))
	for _, r := range rows {
		ours := fmtDur(r.NoClusterTime, r.NoClusterTimedOut)
		fmt.Fprintf(&b, "%-16s | %10d / %-9d | %10d / %-9d | %12s / %-11s\n",
			r.Bench.Name,
			r.Bench.SteensMax, r.SteensMax,
			r.Bench.AndersenMax, r.AndersenMax,
			r.Bench.PaperNoClusterTime, ours)
	}
	return b.String()
}

// HistPoint is one cluster-size frequency.
type HistPoint struct {
	Size  int
	Count int
}

// Figure1 computes the cluster-size frequency series (Steensgaard vs
// Andersen) for one benchmark — the data behind the paper's Figure 1.
func Figure1(b synth.Benchmark, opt Options) (steensHist, andersenHist []HistPoint, err error) {
	opt.fill()
	src := synth.Generate(b, opt.Scale)
	prog, err := frontend.LowerSource(src)
	if err != nil {
		return nil, nil, err
	}
	sa := steens.Analyze(prog)
	toPoints := func(h map[int]int) []HistPoint {
		var out []HistPoint
		for size, count := range h {
			out = append(out, HistPoint{Size: size, Count: count})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Size < out[j].Size })
		return out
	}
	steensHist = toPoints(cluster.SizeHistogram(cluster.BuildSteensgaard(prog, sa)))
	andersenHist = toPoints(cluster.SizeHistogram(cluster.BuildAndersen(prog, sa, opt.threshold())))
	return steensHist, andersenHist, nil
}

// FormatHistogram renders the two series side by side, with a crude
// log-scale bar per count — a terminal rendition of Figure 1.
func FormatHistogram(steensHist, andersenHist []HistPoint) string {
	counts := map[int][2]int{}
	maxSize := 0
	for _, p := range steensHist {
		c := counts[p.Size]
		c[0] = p.Count
		counts[p.Size] = c
		if p.Size > maxSize {
			maxSize = p.Size
		}
	}
	for _, p := range andersenHist {
		c := counts[p.Size]
		c[1] = p.Count
		counts[p.Size] = c
		if p.Size > maxSize {
			maxSize = p.Size
		}
	}
	sizes := make([]int, 0, len(counts))
	for s := range counts {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %10s %10s   (s = Steensgaard, a = Andersen)\n", "size", "#steens", "#andersen")
	for _, s := range sizes {
		c := counts[s]
		fmt.Fprintf(&b, "%6d %10d %10d   %s%s\n", s, c[0], c[1],
			strings.Repeat("s", intLog(c[0])), strings.Repeat("a", intLog(c[1])))
	}
	return b.String()
}

func intLog(n int) int {
	l := 0
	for n > 0 {
		l++
		n /= 4
	}
	return l
}

// ThresholdPoint is one ablation measurement.
type ThresholdPoint struct {
	Threshold   int
	NumClusters int
	MaxSize     int
	ClusterTime time.Duration
	FSCSSimTime time.Duration
}

// ThresholdSweep measures the Andersen-threshold ablation: clustering cost
// and simulated FSCS time as the threshold varies (the paper fixes 60
// empirically; this sweep regenerates the evidence).
func ThresholdSweep(b synth.Benchmark, thresholds []int, opt Options) ([]ThresholdPoint, error) {
	opt.fill()
	src := synth.Generate(b, opt.Scale)
	prog, err := frontend.LowerSource(src)
	if err != nil {
		return nil, err
	}
	sa := steens.Analyze(prog)
	cg := callgraph.Build(prog)
	var out []ThresholdPoint
	for _, th := range thresholds {
		t0 := time.Now()
		cover := cluster.BuildAndersen(prog, sa, th)
		ct := time.Since(t0)
		stats := cluster.CoverStats(cover)
		times, _ := runCover(prog, cg, sa, cover, 0, opt, nil)
		out = append(out, ThresholdPoint{
			Threshold:   th,
			NumClusters: stats.NumClusters,
			MaxSize:     stats.MaxSize,
			ClusterTime: ct,
			FSCSSimTime: core.SimulateParallel(cover, times, opt.Parts),
		})
	}
	return out, nil
}

// FormatSweep renders a threshold sweep.
func FormatSweep(points []ThresholdPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%9s %9s %6s %12s %12s\n", "threshold", "#clusters", "max", "clusterTime", "fscsSimTime")
	for _, p := range points {
		fmt.Fprintf(&b, "%9d %9d %6d %12s %12s\n",
			p.Threshold, p.NumClusters, p.MaxSize,
			fmtDur(p.ClusterTime, false), fmtDur(p.FSCSSimTime, false))
	}
	return b.String()
}
