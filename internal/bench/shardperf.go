package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"bootstrap/internal/core"
	"bootstrap/internal/dist"
	"bootstrap/internal/ir"
	"bootstrap/internal/synth"
)

// ShardRun is one (shards, binning) cell of the distributed-execution
// benchmark: the coordinator's accounting plus the bit-identity verdict
// against the single-process solve of the same workload.
//
// EagerSpeedup is the machine-independent column: per-cluster busy is
// process CPU time (rusage), so total-busy / busiest-shard-busy states
// how much faster the eager phase completes on k real machines — the
// paper's simulated-multiple-machines estimate (Section 5), not an
// artifact of the benchmark host's core count. WallNS is the observed
// local wall clock, which on a small host mostly measures time-slicing.
type ShardRun struct {
	Shards  int    `json:"shards"`
	Binning string `json:"binning"`

	Items       int   `json:"items"`
	Completed   int   `json:"completed"`
	Abandoned   int   `json:"abandoned"`
	Steals      int64 `json:"steals"`
	Expirations int64 `json:"lease_expirations"`

	WallNS         int64   `json:"wall_ns"`
	BusyTotalNS    int64   `json:"busy_total_ns"`
	CriticalPathNS int64   `json:"critical_path_ns"`
	EagerSpeedup   float64 `json:"eager_speedup"`

	ShardBusyNS []int64   `json:"per_shard_busy_ns"`
	ShardSteals []int64   `json:"per_shard_steals"`
	Utilization []float64 `json:"per_shard_utilization"`

	// Identical is the correctness verdict: the merged distributed
	// analysis answered every query bit-identically to a single-process
	// solve.
	Identical bool `json:"identical"`
}

// ShardPoint is one workload's sweep over the shard axis.
type ShardPoint struct {
	Bench    string     `json:"bench"`
	Pointers int        `json:"pointers"`
	Clusters int        `json:"clusters"`
	Runs     []ShardRun `json:"runs"`
}

// ShardPerfReport is the BENCH_shard.json payload.
type ShardPerfReport struct {
	Date        string       `json:"date"`
	Scale       float64      `json:"scale"`
	ShardCounts []int        `json:"shard_counts"`
	Points      []ShardPoint `json:"points"`
}

// distDump serializes an analysis's observable query surface (cover,
// health, per-pointer answers at program exit) for the bit-identity
// check. Identical dumps = observably identical analyses.
func distDump(a *core.Analysis) string {
	var sb strings.Builder
	for _, c := range a.Clusters {
		fmt.Fprintf(&sb, "cluster %d %s %v\n", c.ID, c.Kind, c.Pointers)
	}
	for _, h := range a.Health {
		fmt.Fprintf(&sb, "health %d demoted=%v\n", h.ClusterID, h.Demoted)
	}
	exit := a.Prog.Func(a.Prog.Entry).Exit
	seen := map[ir.VarID]bool{}
	var ptrs []ir.VarID
	for _, c := range a.Clusters {
		for _, p := range c.Pointers {
			if !seen[p] {
				seen[p] = true
				ptrs = append(ptrs, p)
			}
		}
	}
	sort.Slice(ptrs, func(i, j int) bool { return ptrs[i] < ptrs[j] })
	ctx := context.Background()
	for _, p := range ptrs {
		objs, precise := a.PointsToContext(ctx, p, exit)
		fmt.Fprintf(&sb, "pts %d %v %v\n", p, objs, precise)
	}
	return sb.String()
}

// shardConfig is the analysis configuration every shard measurement
// runs under: one engine at a time per process (the parallelism IS the
// shard fanout), bench-standard threshold scaling.
func shardConfig(opt Options) core.Config {
	return core.Config{
		Mode:              core.ModeAndersen,
		AndersenThreshold: opt.Threshold,
		Workers:           1,
		ClusterTimeout:    opt.ClusterTimeout,
		Retries:           opt.Retries,
	}
}

// ShardPerf sweeps the distributed eager solve over shardCounts × both
// binning policies for each workload, with real re-exec'd worker
// processes and a fresh (cold) result cache per cell. The suite's
// single-process solve is the identity reference for every cell.
func ShardPerf(suite []synth.Benchmark, shardCounts []int, opt Options, log io.Writer) (*ShardPerfReport, error) {
	if log == nil {
		log = io.Discard
	}
	report := &ShardPerfReport{
		Date:        time.Now().UTC().Format("2006-01-02"),
		Scale:       opt.Scale,
		ShardCounts: shardCounts,
	}
	cfg := shardConfig(opt)
	for _, b := range suite {
		src := synth.Generate(b, opt.Scale)
		single, err := core.AnalyzeSource(src, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: single-process reference: %w", b.Name, err)
		}
		want := distDump(single)
		pt := ShardPoint{
			Bench:    b.Name,
			Pointers: single.Prog.NumVars(),
			Clusters: len(single.Clusters),
		}
		for _, shards := range shardCounts {
			for _, binning := range []dist.Binning{dist.BinningSteal, dist.BinningGreedy} {
				if shards == 1 && binning == dist.BinningGreedy {
					continue // one bin: the policies are the same run
				}
				fmt.Fprintf(log, "shard-bench %s: shards=%d binning=%s...\n", b.Name, shards, binning)
				res, err := dist.Run(context.Background(), src, cfg, dist.RunOptions{
					Shards:  shards,
					Binning: binning,
				})
				if err != nil {
					return nil, fmt.Errorf("%s shards=%d %s: %w", b.Name, shards, binning, err)
				}
				pt.Runs = append(pt.Runs, shardRun(res, want))
			}
		}
		report.Points = append(report.Points, pt)
	}
	return report, nil
}

// shardRun flattens one dist run into its report cell.
func shardRun(res *dist.RunResult, wantDump string) ShardRun {
	r := res.Report
	run := ShardRun{
		Shards:         r.Shards,
		Binning:        string(r.Binning),
		Items:          r.Items,
		Completed:      r.Completed,
		Abandoned:      r.Abandoned,
		Steals:         r.Steals,
		Expirations:    r.Expirations,
		WallNS:         r.WallNS,
		BusyTotalNS:    r.BusyTotalNS,
		CriticalPathNS: r.CriticalPathNS,
		EagerSpeedup:   r.EagerSpeedup,
		Identical:      distDump(res.Analysis) == wantDump,
	}
	for _, s := range r.PerShard {
		run.ShardBusyNS = append(run.ShardBusyNS, s.BusyNS)
		run.ShardSteals = append(run.ShardSteals, s.Steals)
		run.Utilization = append(run.Utilization, s.Utilization)
	}
	return run
}

// find returns the run cell for (shards, binning), or nil.
func (p *ShardPoint) find(shards int, binning dist.Binning) *ShardRun {
	for i := range p.Runs {
		if p.Runs[i].Shards == shards && p.Runs[i].Binning == string(binning) {
			return &p.Runs[i]
		}
	}
	return nil
}

// stealVsGreedyTolerance is the slack AssertShard allows before calling
// a work-stealing run slower than its static-binning twin: busy times
// are rusage measurements, so exact ties jitter.
const stealVsGreedyTolerance = 0.90

// minSpeedupPerShard is the per-shard speedup floor AssertShard scales
// by the report's largest shard count: 0.625 × 4 shards = the 2.5×
// acceptance threshold.
const minSpeedupPerShard = 0.625

// AssertShard checks a shard report's invariants and returns one error
// per violation:
//
//   - every cell completed (or abandoned-and-merged) all items and was
//     bit-identical to the single-process solve;
//   - at the largest shard count, the work-stealing eager speedup
//     reaches minSpeedupPerShard × shards on at least two workloads
//     (or all of them, when the report has fewer);
//   - work stealing is never meaningfully slower than static greedy
//     binning on any workload.
func AssertShard(report *ShardPerfReport) []error {
	var errs []error
	if len(report.Points) == 0 {
		return []error{fmt.Errorf("shard report has no workloads")}
	}
	maxShards := 0
	for _, s := range report.ShardCounts {
		if s > maxShards {
			maxShards = s
		}
	}
	for _, pt := range report.Points {
		for _, run := range pt.Runs {
			if run.Completed+run.Abandoned != run.Items {
				errs = append(errs, fmt.Errorf("%s shards=%d %s: %d+%d of %d items accounted for",
					pt.Bench, run.Shards, run.Binning, run.Completed, run.Abandoned, run.Items))
			}
			if !run.Identical {
				errs = append(errs, fmt.Errorf("%s shards=%d %s: merged analysis diverged from the single-process solve",
					pt.Bench, run.Shards, run.Binning))
			}
		}
		steal, greedy := pt.find(maxShards, dist.BinningSteal), pt.find(maxShards, dist.BinningGreedy)
		if steal != nil && greedy != nil && steal.EagerSpeedup < greedy.EagerSpeedup*stealVsGreedyTolerance {
			errs = append(errs, fmt.Errorf("%s shards=%d: work stealing (%.2fx) fell behind greedy binning (%.2fx)",
				pt.Bench, maxShards, steal.EagerSpeedup, greedy.EagerSpeedup))
		}
	}
	if maxShards > 1 {
		want := minSpeedupPerShard * float64(maxShards)
		need := 2
		if len(report.Points) < need {
			need = len(report.Points)
		}
		got := 0
		for _, pt := range report.Points {
			if run := pt.find(maxShards, dist.BinningSteal); run != nil && run.EagerSpeedup >= want {
				got++
			}
		}
		if got < need {
			errs = append(errs, fmt.Errorf("eager speedup >= %.2fx at %d shards on only %d workload(s), want >= %d",
				want, maxShards, got, need))
		}
	}
	return errs
}

// WriteShardJSON writes the report as indented JSON.
func WriteShardJSON(w io.Writer, report *ShardPerfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// ReadShardJSONFile loads a BENCH_shard.json.
func ReadShardJSONFile(path string) (*ShardPerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var report ShardPerfReport
	if err := json.Unmarshal(data, &report); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &report, nil
}

// FormatShard renders the report as a fixed-width table.
func FormatShard(report *ShardPerfReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %6s %7s %6s %6s %7s %7s %9s %5s\n",
		"bench", "shards", "binning", "items", "steals", "expire", "speedup", "util", "ident")
	for _, pt := range report.Points {
		for _, run := range pt.Runs {
			minU := 1.0
			for _, u := range run.Utilization {
				if u < minU {
					minU = u
				}
			}
			fmt.Fprintf(&sb, "%-10s %6d %7s %6d %6d %7d %6.2fx %9.2f %5v\n",
				pt.Bench, run.Shards, run.Binning, run.Items, run.Steals,
				run.Expirations, run.EagerSpeedup, minU, run.Identical)
		}
	}
	return sb.String()
}
