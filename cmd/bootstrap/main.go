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
//	bootstrap -shards 4 -stats prog.cpl       # distribute the eager solve
//	                                          # across 4 worker processes
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
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bootstrap/internal/bench"
	"bootstrap/internal/cliutil"
	"bootstrap/internal/core"
	"bootstrap/internal/dist"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/lockset"
	"bootstrap/internal/nullcheck"
)

var (
	analysisFlags cliutil.AnalysisFlags
	obsFlags      cliutil.ObsFlags
	distFlags     cliutil.DistFlags

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
	distFlags.Register(flag.CommandLine)
}

func main() {
	dist.MaybeWorker() // spawned shard workers re-exec this binary
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
	var a *core.Analysis
	var distReport *dist.Report
	if distFlags.Enabled() {
		ropts, err := distFlags.Options(analysisFlags.CacheDir)
		if err != nil {
			return err
		}
		ropts.Announce = os.Stderr // lets external aliaswork processes find the port
		res, err := dist.Run(nil, string(src), cfg, ropts)
		if err != nil {
			return err
		}
		a, distReport = res.Analysis, &res.Report
	} else {
		a, err = core.AnalyzeSource(string(src), cfg)
		if err != nil {
			return err
		}
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
		pp50, pp90, pmax := bench.SizeHist(partSizes)
		cp50, cp90, cmax := bench.SizeHist(clusterSizes)
		fmt.Printf("partitions: n=%d p50=%d p90=%d max=%d  precise=%v deferred=%d\n",
			len(partSizes), pp50, pp90, pmax, analysisFlags.SteensPrecise, a.Steens.Stats().Deferred)
		fmt.Printf("clusters: n=%d p50=%d p90=%d max=%d\n",
			len(clusterSizes), cp50, cp90, cmax)
		if a.Andersen != nil {
			fmt.Printf("andersen solver: passes=%d\n", a.Andersen.SolverStats().Passes)
		}
		if cfg.Cache != nil {
			cs := a.CacheStats
			fmt.Printf("result cache: hits=%d misses=%d hit-rate=%.2f read=%dB written=%dB\n",
				cs.Hits, cs.Misses, cs.HitRate(), cs.BytesRead, cs.BytesWritten)
		}
		if distReport != nil {
			r := distReport
			fmt.Printf("dist: shards=%d binning=%s completed=%d/%d steals=%d expirations=%d eager-speedup=%.2fx\n",
				r.Shards, r.Binning, r.Completed, r.Items, r.Steals, r.Expirations, r.EagerSpeedup)
			for _, s := range r.PerShard {
				fmt.Printf("  shard %d: workers=%d claims=%d steals=%d busy=%v utilization=%.2f\n",
					s.Shard, s.Workers, s.Claims, s.Steals, time.Duration(s.BusyNS).Round(time.Microsecond), s.Utilization)
			}
		}
	}
	printUnhealthy(a)

	loc, err := queryLoc(a)
	if err != nil {
		return err
	}
	for _, name := range splitList(*aliasesOf) {
		v, ok := a.Prog.VarByName[name]
		if !ok {
			return fmt.Errorf("unknown variable %q", name)
		}
		al := a.Aliases(v, loc)
		names := make([]string, len(al))
		for i, q := range al {
			names[i] = a.Prog.VarName(q)
		}
		fmt.Printf("aliases(%s) at L%d = {%s}\n", name, loc, strings.Join(names, ", "))
	}
	for _, name := range splitList(*ptsOf) {
		v, ok := a.Prog.VarByName[name]
		if !ok {
			return fmt.Errorf("unknown variable %q", name)
		}
		objs, precise := a.PointsTo(v, loc)
		names := make([]string, len(objs))
		for i, o := range objs {
			names[i] = a.Prog.VarName(o)
		}
		note := ""
		if !precise {
			note = " (imprecise: flow-insensitive fallback contributed)"
		}
		fmt.Printf("pts(%s) at L%d = {%s}%s\n", name, loc, strings.Join(names, ", "), note)
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
	return nil
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
