// Command bootstrap analyzes a CPL program with the paper's bootstrapped
// flow- and context-sensitive pointer alias analysis and answers queries.
//
// Usage:
//
//	bootstrap [flags] program.cpl
//
// Examples:
//
//	bootstrap -partitions prog.cpl            # Steensgaard partitions
//	bootstrap -clusters prog.cpl              # the alias cover
//	bootstrap -aliases p,q -at main prog.cpl  # FSCS alias sets
//	bootstrap -pts x -at main prog.cpl        # FSCS points-to set
//	bootstrap -races prog.cpl                 # lockset race detection
//	bootstrap -mode none -stats prog.cpl      # unclustered baseline
//	bootstrap -cache-dir .btscache prog.cpl   # persistent result cache;
//	                                          # re-runs import unchanged clusters
//	bootstrap -trace out.json prog.cpl        # Chrome trace of the cascade
//	bootstrap -metrics-addr :9090 prog.cpl    # /metrics + /debug/pprof server
//
// Fault tolerance: -cluster-timeout bounds each per-cluster engine (the
// paper's 15-minute analogue), -timeout bounds the whole run, and
// -retries sets the degradation ladder's retry count. A cluster that
// exhausts its budget, misses its deadline or panics is retried with
// halved precision knobs and finally demoted to the flow-insensitive
// fallback — queries stay sound and the run never errors out. -stats
// prints the per-cluster health summary.
//
// Observability: -trace writes a Chrome trace (load it in Perfetto or
// chrome://tracing) with one span per cascade phase and per cluster
// attempt, -metrics-addr serves the live metrics registry and pprof, and
// -profile captures a cpu/mem/mutex profile of the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"bootstrap/internal/cliutil"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/lockset"
	"bootstrap/internal/nullcheck"
)

var (
	analysisFlags cliutil.AnalysisFlags
	obsFlags      cliutil.ObsFlags

	dumpIR     = flag.Bool("dump", false, "dump the lowered IR")
	dotCFG     = flag.Bool("dot", false, "emit the CFGs in GraphViz DOT format")
	dotSteens  = flag.Bool("dot-hierarchy", false, "emit the Steensgaard points-to hierarchy in DOT format")
	partitions = flag.Bool("partitions", false, "print Steensgaard partitions")
	clusters   = flag.Bool("clusters", false, "print the alias cover")
	stats      = flag.Bool("stats", false, "print timing and cover statistics")

	aliasesOf = flag.String("aliases", "", "comma-separated pointers: print their alias sets")
	ptsOf     = flag.String("pts", "", "comma-separated pointers: print their points-to sets")
	atFunc    = flag.String("at", "", "query location: the exit of this function (default: entry function)")

	races     = flag.Bool("races", false, "run lockset-based race detection")
	nullDeref = flag.Bool("nullderef", false, "run the null/dangling-dereference checker")
)

func init() {
	analysisFlags.Register(flag.CommandLine)
	obsFlags.Register(flag.CommandLine)
}

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bootstrap [flags] program.cpl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "bootstrap:", err)
		os.Exit(1)
	}
}

func run(path string) (err error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	cfg, err := analysisFlags.Config()
	if err != nil {
		return err
	}
	if *dumpIR {
		prog, err := frontend.LowerSource(string(src))
		if err != nil {
			return err
		}
		fmt.Print(prog.Dump())
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
	cfg.Tracer = sess.Tracer
	cfg.Metrics = sess.Metrics
	if cfg.Cache != nil {
		cfg.Cache.Register(sess.Metrics)
	}
	if *races {
		cfg.Demand = lockset.LockDemand
	}
	a, err := core.AnalyzeSource(string(src), cfg)
	if err != nil {
		return err
	}

	if *dotCFG {
		fmt.Print(a.Prog.DotCFG())
	}
	if *dotSteens {
		fmt.Print(a.Steens.Dot(6))
	}
	if *partitions {
		fmt.Println("Steensgaard partitions:")
		for _, part := range a.Steens.Partitions() {
			if len(part) < 2 {
				continue
			}
			names := make([]string, len(part))
			for i, v := range part {
				names[i] = a.Prog.VarName(v)
			}
			fmt.Printf("  depth %d: {%s}\n", a.Steens.Depth(part[0]), strings.Join(names, ", "))
		}
	}
	if *clusters {
		fmt.Printf("alias cover (%s): %d clusters\n", cfg.Mode, len(a.Clusters))
		for _, c := range a.Clusters {
			names := make([]string, len(c.Pointers))
			for i, v := range c.Pointers {
				names[i] = a.Prog.VarName(v)
			}
			fmt.Printf("  %s: {%s}\n", c, strings.Join(names, ", "))
		}
	}
	if *stats {
		fmt.Printf("pointers: %d  clusters: %d  %s\n",
			a.Prog.NumVars(), len(a.Clusters), healthSummary(a.Health))
		fmt.Printf("timing: lower=%v steensgaard=%v clustering=%v fscs(seq)=%v fscs(wall)=%v\n",
			a.Timing.Lower, a.Timing.Steensgaard, a.Timing.Clustering, a.Timing.FSCS, a.Timing.Wall)
		var partSizes, clusterSizes []int
		for _, part := range a.Steens.Partitions() {
			partSizes = append(partSizes, len(part))
		}
		for _, c := range a.Clusters {
			clusterSizes = append(clusterSizes, len(c.Pointers))
		}
		pp50, pp90, pmax := sizeHist(partSizes)
		cp50, cp90, cmax := sizeHist(clusterSizes)
		fmt.Printf("partitions: n=%d p50=%d p90=%d max=%d\n",
			len(partSizes), pp50, pp90, pmax)
		fmt.Printf("clusters: n=%d p50=%d p90=%d max=%d\n",
			len(clusterSizes), cp50, cp90, cmax)
		if cfg.Cache != nil {
			cs := a.CacheStats
			fmt.Printf("result cache: hits=%d misses=%d hit-rate=%.2f read=%dB written=%dB\n",
				cs.Hits, cs.Misses, cs.HitRate(), cs.BytesRead, cs.BytesWritten)
		}
	}
	printUnhealthy(a)

	loc, err := queryLoc(a)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, name := range splitList(*aliasesOf) {
		v, ok := a.Prog.VarByName[name]
		if !ok {
			return fmt.Errorf("unknown variable %q", name)
		}
		al, precise := a.Aliases(ctx, v, loc)
		fmt.Printf("aliases(%s) at L%d = {%s}%s\n", name, loc, varNames(a.Prog, al), imprecision(precise))
	}
	for _, name := range splitList(*ptsOf) {
		v, ok := a.Prog.VarByName[name]
		if !ok {
			return fmt.Errorf("unknown variable %q", name)
		}
		objs, precise := a.PointsToContext(ctx, v, loc)
		fmt.Printf("pts(%s) at L%d = {%s}%s\n", name, loc, varNames(a.Prog, objs), imprecision(precise))
	}

	if *races {
		det := lockset.NewDetector(a, lockset.Config{})
		found, accesses := det.Detect()
		fmt.Printf("threads: %d, shared accesses: %d, races: %d\n",
			len(det.Threads()), len(accesses), len(found))
		for _, r := range found {
			fmt.Println("  " + r.Format(a.Prog))
		}
	}
	if *nullDeref {
		warnings := nullcheck.Check(a)
		fmt.Printf("suspicious dereferences: %d\n", len(warnings))
		fmt.Print(nullcheck.FormatAll(a.Prog, warnings))
	}
	if *stats {
		// The fallback solves on its first read, which the queries and
		// checkers above may make; printing its passes must not be one.
		if a.Andersen.Solved() {
			fmt.Printf("andersen solver: passes=%d\n", a.Andersen.SolverStats().Passes)
		} else {
			fmt.Println("andersen solver: not run")
		}
	}
	return nil
}

// sizeHist summarizes a size distribution for -stats: the median, the
// 90th percentile and the maximum. Percentiles use the nearest-rank
// method on the sorted sizes; an empty input yields zeros.
func sizeHist(sizes []int) (p50, p90, max int) {
	if len(sizes) == 0 {
		return 0, 0, 0
	}
	s := append([]int(nil), sizes...)
	sort.Ints(s)
	rank := func(q float64) int {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return rank(0.50), rank(0.90), s[len(s)-1]
}

// healthSummary condenses the per-cluster health report into one field
// of the stats line, e.g. "healthy: 12" or "healthy: 10 recovered: 1
// degraded: 1".
func healthSummary(hs []core.ClusterHealth) string {
	counts := map[core.HealthStatus]int{}
	for _, h := range hs {
		counts[h.Status]++
	}
	parts := []string{fmt.Sprintf("healthy: %d", counts[core.HealthOK])}
	for _, s := range []core.HealthStatus{
		core.HealthRetried, core.HealthRecovered,
		core.HealthExhausted, core.HealthTimedOut, core.HealthDegraded,
	} {
		if counts[s] > 0 {
			parts = append(parts, fmt.Sprintf("%s: %d", s, counts[s]))
		}
	}
	return strings.Join(parts, "  ")
}

// printUnhealthy reports every cluster the scheduler had to retry or
// demote, so degraded precision never goes unnoticed.
func printUnhealthy(a *core.Analysis) {
	for _, h := range a.Health {
		if h.Status == core.HealthOK {
			continue
		}
		note := ""
		if h.Err != nil {
			note = fmt.Sprintf(" (%v)", h.Err)
		}
		if h.Demoted {
			note += " — demoted to the flow-insensitive fallback"
		}
		fmt.Fprintf(os.Stderr, "bootstrap: cluster %d %s after %d attempt(s) in %v%s\n",
			h.ClusterID, h.Status, h.Attempts, h.Elapsed.Round(time.Microsecond), note)
	}
}

func queryLoc(a *core.Analysis) (ir.Loc, error) {
	fn := a.Prog.Entry
	if *atFunc != "" {
		id, ok := a.Prog.FuncByName[*atFunc]
		if !ok {
			return ir.NoLoc, fmt.Errorf("unknown function %q", *atFunc)
		}
		fn = id
	}
	return a.Prog.Func(fn).Exit, nil
}

// varNames joins the names of vs for printing.
func varNames(prog *ir.Program, vs []ir.VarID) string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = prog.VarName(v)
	}
	return strings.Join(names, ", ")
}

// imprecision is the note printed after an answer the flow-insensitive
// fallback contributed to.
func imprecision(precise bool) string {
	if precise {
		return ""
	}
	return " (imprecise: flow-insensitive fallback contributed)"
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
