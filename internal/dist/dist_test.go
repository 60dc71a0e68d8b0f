package dist

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
	"time"

	"bootstrap/internal/cache"
	"bootstrap/internal/core"
	"bootstrap/internal/faults"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/synth"
)

func frontendLower(src string) (*ir.Program, error) { return frontend.LowerSource(src) }

func newDirCache(dir string) *cache.Cache { return cache.New(cache.Options{Dir: dir}) }

// TestMain flips the re-exec'd test binary into worker mode: spawned
// workers are this binary with workerEnv set, and MaybeWorker never
// returns for them.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// testSource is a small multi-cluster workload: autofs at reduced
// scale still fractures into enough clusters to shard meaningfully.
func testSource(t *testing.T) string {
	t.Helper()
	b, ok := synth.FindBenchmark("autofs")
	if !ok {
		t.Fatal("autofs benchmark missing")
	}
	return synth.Generate(b, 0.1)
}

func testConfig() core.Config {
	return core.Config{Mode: core.ModeAndersen, Workers: 1}
}

// dump serializes every public query surface of an analysis: the
// cover, health dispositions, and per-pointer points-to/alias answers
// at program exit. Two analyses with equal dumps are observably
// identical — the distributed runs must match a single-process solve
// exactly (Theorem 6 end to end).
func dump(a *core.Analysis) string {
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
		al, precise := a.Aliases(ctx, p, exit)
		fmt.Fprintf(&sb, "aliases %d %v %v\n", p, al, precise)
	}
	return sb.String()
}

// TestDistributedMatchesSingleProcess is the protocol e2e with
// in-process workers: a 3-shard work-stealing run must produce an
// analysis observably identical to a plain single-process solve, with
// every item completed by the fleet.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	src := testSource(t)
	single, err := core.AnalyzeSource(src, testConfig())
	if err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), src, testConfig(), RunOptions{
		Shards:    3,
		InProcess: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Items == 0 || r.Completed != r.Items {
		t.Fatalf("fleet completed %d/%d items", r.Completed, r.Items)
	}
	if r.Abandoned != 0 || r.Expirations != 0 {
		t.Fatalf("healthy run had abandoned=%d expirations=%d", r.Abandoned, r.Expirations)
	}
	if got, want := dump(res.Analysis), dump(single); got != want {
		t.Errorf("distributed result diverges from single-process solve:\n got: %.400s\nwant: %.400s", got, want)
	}
	// Merge pass must have imported the fleet's results, not re-solved:
	// every non-demoted cluster answers from the cache.
	cached := 0
	for _, h := range res.Analysis.Health {
		if h.Cached {
			cached++
		}
	}
	if cached == 0 {
		t.Error("merge pass imported nothing from the shared cache")
	}
}

// TestGreedyBinningMode exercises the paper's static policy end to
// end: no steals may occur, and the result is still exact.
func TestGreedyBinningMode(t *testing.T) {
	src := testSource(t)
	res, err := Run(context.Background(), src, testConfig(), RunOptions{
		Shards:    2,
		Binning:   BinningGreedy,
		InProcess: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Steals != 0 {
		t.Fatalf("greedy binning stole %d times", res.Report.Steals)
	}
	single, err := core.AnalyzeSource(src, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if dump(res.Analysis) != dump(single) {
		t.Error("greedy-binned result diverges from single-process solve")
	}
}

// TestMultiProcessWorkers runs real re-exec'd worker processes — the
// production path of bootstrap -shards.
func TestMultiProcessWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	src := testSource(t)
	res, err := Run(context.Background(), src, testConfig(), RunOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Completed != res.Report.Items {
		t.Fatalf("fleet completed %d/%d", res.Report.Completed, res.Report.Items)
	}
	if res.Report.Workers != 2 {
		t.Fatalf("workers joined = %d, want 2", res.Report.Workers)
	}
	single, err := core.AnalyzeSource(src, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if dump(res.Analysis) != dump(single) {
		t.Error("multi-process result diverges from single-process solve")
	}
}

// TestWorkerKillLeaseExpiry is the fault-tolerance acceptance test: a
// worker process is killed mid-solve by the faults injector (a real
// os.Exit, no recover), its lease expires, the coordinator re-issues
// the cluster to a healthy worker, and the merged Analysis is still
// bit-identical to a single-process solve.
func TestWorkerKillLeaseExpiry(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	src := testSource(t)
	cacheDir := t.TempDir()
	cfg := testConfig()

	prog, err := frontendLower(src)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.BuildPlan(context.Background(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Clusters) < 2 {
		t.Fatalf("workload too small to shard: %d clusters", len(pl.Clusters))
	}
	coord, err := NewCoordinator(pl, src, Options{
		Shards:   2,
		Binning:  BinningSteal,
		LeaseTTL: 300 * time.Millisecond,
		CacheDir: cacheDir,
		Config:   cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Phase 1: a worker armed to die on the first tuple of the first
	// cluster it attempts. It joins, claims, and is killed by the
	// injector — verified by the distinctive exit code.
	doomed := spawnTestWorker(t, coord.Addr(), "doomed", "-1,0")
	err = doomed.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != faults.KillExitCode {
		t.Fatalf("doomed worker exit = %v, want injected-kill code %d", err, faults.KillExitCode)
	}

	// Phase 2: a healthy worker joins the second shard. Work stealing
	// plus lease expiry must route every cluster — including the dead
	// worker's — through it.
	healthy := spawnTestWorker(t, coord.Addr(), "healthy", "")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := coord.WaitDrained(ctx); err != nil {
		t.Fatal(err)
	}
	if err := healthy.Wait(); err != nil {
		t.Fatalf("healthy worker: %v", err)
	}

	r := coord.Report()
	if r.Expirations == 0 {
		t.Fatalf("kill did not surface as a lease expiry: %+v", r)
	}
	if r.Completed != r.Items {
		t.Fatalf("fleet completed %d/%d after kill", r.Completed, r.Items)
	}

	// Merge and compare bit-for-bit with a single-process solve.
	mcfg := cfg
	mcfg.Cache = newDirCache(cacheDir)
	merged, err := core.AnalyzeFromPlan(context.Background(), pl, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := core.AnalyzeSource(src, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if dump(merged) != dump(single) {
		t.Error("post-kill merged result diverges from single-process solve")
	}
}

// spawnTestWorker re-execs the test binary as one worker, optionally
// armed with a kill fault ("cluster,afterTuples"; cluster -1 = first
// cluster attempted).
func spawnTestWorker(t *testing.T, url, name, killSpec string) *exec.Cmd {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), workerEnv+"="+url, nameEnv+"="+name)
	if killSpec != "" {
		cmd.Env = append(cmd.Env, killEnv+"="+killSpec)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// BenchmarkShardWallClock times whole distributed runs — coordinator,
// re-exec'd worker processes, cold shared cache and merge — at 1 and 2
// shards against the in-process eager solve with two workers, on
// autofs at scale 0.5. ns/op is wall clock on the host's real cores,
// unlike Report.EagerSpeedup, which models k machines from busy time.
func BenchmarkShardWallClock(b *testing.B) {
	bm, ok := synth.FindBenchmark("autofs")
	if !ok {
		b.Fatal("autofs benchmark missing")
	}
	src := synth.Generate(bm, 0.5)
	b.Run("in-process-workers2", func(b *testing.B) {
		cfg := core.Config{Mode: core.ModeAndersen, Workers: 2}
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeSource(src, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), src, testConfig(), RunOptions{Shards: shards}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
