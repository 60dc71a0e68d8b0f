// Command benchtab regenerates the paper's Table 1 over the synthetic
// workload suite: flow- and context-sensitive alias analysis without
// clustering, with Steensgaard clustering, and with bootstrapped Andersen
// clustering, including the greedy 5-machine parallel simulation.
//
// Usage:
//
//	benchtab [-scale 0.2] [-rows sock,autofs,sendmail] [-compare] [-timings]
//	benchtab -sweep autofs
//
// Absolute times differ from the paper's 2008 hardware; the shape — who
// wins, by what rough factor, and where Andersen clustering stops paying
// off — is the reproduction target (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bootstrap/internal/bench"
	"bootstrap/internal/cliutil"
	"bootstrap/internal/synth"
)

var (
	scale   = flag.Float64("scale", 0.2, "workload scale (1.0 = paper-sized)")
	parts   = flag.Int("parts", 5, "simulated machines for the parallel columns")
	budget  = flag.Int64("budget", 3_000_000, "work budget in FSCS worklist tuples for the unclustered baseline (the 15-min analogue)")
	rows    = flag.String("rows", "", "comma-separated benchmark names (default: all 20)")
	skipNC  = flag.Bool("skip-monolithic", false, "skip the unclustered baseline column")
	compare = flag.Bool("compare", false, "also print the paper-vs-measured comparison")
	sweep   = flag.String("sweep", "", "run the Andersen-threshold ablation on this benchmark instead")

	clusterTimeout = flag.Duration("cluster-timeout", 0, "per-cluster wall-clock deadline per engine attempt (0 = none)")
	retries        = flag.Int("retries", 0, "degradation-ladder retries per failed cluster (0 = single attempt, the historical bench behavior)")

	timings  = flag.Bool("timings", false, "also print per-stage timing columns (fixed cover order, diff-friendly)")
	cacheDir = flag.String("cache-dir", "", "persistent directory for the warm-rerun column's per-cluster result cache; a second run against the same directory starts fully warm")

	obsFlags cliutil.ObsFlags
)

func init() {
	obsFlags.Register(flag.CommandLine)
}

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(out io.Writer) (err error) {
	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()
	opt := bench.Options{
		Scale:            *scale,
		Parts:            *parts,
		Budget:           *budget,
		SkipNoClustering: *skipNC,
		ClusterTimeout:   *clusterTimeout,
		Retries:          *retries,
		CacheDir:         *cacheDir,
		Tracer:           sess.Tracer,
		Metrics:          sess.Metrics,
	}
	if *sweep != "" {
		b, ok := synth.FindBenchmark(*sweep)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", *sweep)
		}
		points, err := bench.ThresholdSweep(b, []int{4, 8, 16, 32, 60, 120, 1 << 30}, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Andersen-threshold ablation on %s (scale %.2f):\n", b.Name, *scale)
		fmt.Fprint(out, bench.FormatSweep(points))
		return nil
	}

	suite := synth.Table1
	if *rows != "" {
		suite = nil
		for _, name := range strings.Split(*rows, ",") {
			b, ok := synth.FindBenchmark(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown benchmark %q", name)
			}
			suite = append(suite, b)
		}
	}
	measured, err := bench.RunTable(suite, opt, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nTable 1 (scale %.2f, %d simulated machines):\n\n", *scale, *parts)
	fmt.Fprint(out, bench.FormatTable(measured))
	if *timings {
		fmt.Fprintln(out, "\nPer-stage timings (fixed cover order):")
		fmt.Fprint(out, bench.FormatTimings(measured))
	}
	if *compare {
		fmt.Fprintln(out, "\nPaper vs measured (shape comparison):")
		fmt.Fprint(out, bench.FormatComparison(measured))
	}
	return nil
}
