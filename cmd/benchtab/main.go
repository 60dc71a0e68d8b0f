// Command benchtab regenerates the paper's evaluation artifacts over the
// synthetic workload suite: Table 1 (flow- and context-sensitive alias
// analysis without clustering, with Steensgaard clustering, and with
// bootstrapped Andersen clustering), Figure 1 (cluster-size frequencies)
// and the Andersen-threshold ablation. Every column is a run of the
// library's one cascade on GOMAXPROCS workers.
//
// Usage:
//
//	benchtab [-scale 0.2] [-rows sock,autofs,sendmail] [-compare] [-timings]
//	benchtab -figure1 autofs -scale 1
//	benchtab -sweep autofs
//
// Absolute times differ from the paper's 2008 hardware; the shape — who
// wins, by what rough factor, and where Andersen clustering stops paying
// off — is the reproduction target (see EXPERIMENTS.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"bootstrap/internal/bench"
	"bootstrap/internal/cliutil"
	"bootstrap/internal/synth"
)

var (
	scale   = flag.Float64("scale", 0.2, "workload scale (1.0 = paper-sized)")
	budget  = flag.Int64("budget", 3_000_000, "work budget in FSCS worklist tuples for the unclustered baseline (the 15-min analogue)")
	rows    = flag.String("rows", "", "comma-separated benchmark names (default: all 20)")
	skipNC  = flag.Bool("skip-monolithic", false, "skip the unclustered baseline column")
	compare = flag.Bool("compare", false, "also print the paper-vs-measured comparison")
	sweep   = flag.String("sweep", "", "run the Andersen-threshold ablation on this benchmark instead")
	figure1 = flag.String("figure1", "", "print this benchmark's Figure 1 cluster-size histogram instead")

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

// findBench looks a Table 1 row up by name; the error lists the rows.
func findBench(name string) (synth.Benchmark, error) {
	if b, ok := synth.FindBenchmark(strings.TrimSpace(name)); ok {
		return b, nil
	}
	msg := fmt.Sprintf("unknown benchmark %q; rows:", name)
	for _, row := range synth.Table1 {
		msg += "\n  " + row.Name
	}
	return synth.Benchmark{}, errors.New(msg)
}

func run(out io.Writer) (err error) {
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return fmt.Errorf("-scale must be a positive number, got %v", *scale)
	}
	if *sweep != "" && *figure1 != "" {
		return errors.New("-sweep and -figure1 are exclusive")
	}
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
		Budget:           *budget,
		SkipNoClustering: *skipNC,
		ClusterTimeout:   *clusterTimeout,
		Retries:          *retries,
		CacheDir:         *cacheDir,
		Tracer:           sess.Tracer,
		Metrics:          sess.Metrics,
	}
	switch {
	case *sweep != "":
		b, err := findBench(*sweep)
		if err != nil {
			return err
		}
		points, err := bench.ThresholdSweep(b, []int{4, 8, 16, 32, 60, 120, bench.NoRefinement}, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Andersen-threshold ablation on %s (scale %.2f):\n", b.Name, *scale)
		fmt.Fprint(out, bench.FormatSweep(points))
		return nil
	case *figure1 != "":
		b, err := findBench(*figure1)
		if err != nil {
			return err
		}
		sh, ah, err := bench.Figure1(b, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Figure 1 — cluster size frequencies for %s (scale %.2f):\n\n", b.Name, *scale)
		fmt.Fprint(out, bench.FormatHistogram(sh, ah))
		fmt.Fprintf(out, "\nmax Steensgaard partition: %d, max Andersen cluster: %d\n",
			sh[len(sh)-1].Size, ah[len(ah)-1].Size)
		return nil
	}

	suite := synth.Table1
	if *rows != "" {
		suite = nil
		for _, name := range strings.Split(*rows, ",") {
			b, err := findBench(name)
			if err != nil {
				return err
			}
			suite = append(suite, b)
		}
	}
	measured, err := bench.RunTable(suite, opt, os.Stderr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nTable 1 (scale %.2f, %d workers on %d CPUs):\n\n",
		*scale, runtime.GOMAXPROCS(0), runtime.NumCPU())
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
