package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"bootstrap/internal/cache"
	"bootstrap/internal/cluster"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
)

// aliasDump serializes every query surface the facade exposes into one
// canonical string: the cover, health statuses, and the answers (see
// answerDump). Two analyses with equal dumps are observably identical.
func aliasDump(a *Analysis) string {
	var b strings.Builder
	b.WriteString(coverDump(a.Clusters))
	for _, h := range a.Health {
		fmt.Fprintf(&b, "health %d %s demoted=%v\n", h.ClusterID, h.Status, h.Demoted)
	}
	b.WriteString(answerDump(a))
	return b.String()
}

// coverDump serializes a cover: each cluster's ID, kind and pointer set.
func coverDump(cs []*cluster.Cluster) string {
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&b, "cluster %d %s %v\n", c.ID, c.Kind, c.Pointers)
	}
	return b.String()
}

// answerDump serializes, for every indexed pointer, its cluster
// membership and its points-to and alias sets at the entry's exit, each
// with its precision flag.
func answerDump(a *Analysis) string {
	var b strings.Builder
	exit := a.Prog.Func(a.Prog.Entry).Exit
	ptrs := a.CoveredPointers()
	ctx := context.Background()
	for _, p := range ptrs {
		objs, precise := a.PointsToContext(ctx, p, exit)
		fmt.Fprintf(&b, "pts %d %v %v\n", p, objs, precise)
		al, precise := a.Aliases(ctx, p, exit)
		fmt.Fprintf(&b, "aliases %d %v %v clusters=%v\n", p, al, precise, a.ClustersOf(p))
	}
	return b.String()
}

// TestDeterministicAcrossWorkers is the determinism acceptance check:
// alias results must be bit-for-bit identical across worker counts —
// parallelism trades work, never answers. A negative count means
// GOMAXPROCS, like zero.
func TestDeterministicAcrossWorkers(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 8, -1} {
		a, err := AnalyzeSource(testProgram, Config{
			Mode:              ModeAndersen,
			Workers:           workers,
			AndersenThreshold: 2, // force Andersen refinement
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		dump := aliasDump(a)
		if want == "" {
			want = dump
			continue
		}
		if dump != want {
			t.Errorf("workers=%d: results diverge\n--- want\n%s--- got\n%s", workers, want, dump)
		}
	}
}

// TestDeterministicWithWarmCache extends the determinism check to the
// result cache: with one cache shared across worker counts, each run
// after the first must serve entirely from it and still produce the same
// bit-for-bit dump as a cache-free analysis. Caching trades time, never
// answers.
func TestDeterministicWithWarmCache(t *testing.T) {
	fresh, err := AnalyzeSource(testProgram, Config{
		Mode: ModeAndersen, Workers: 1, AndersenThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := aliasDump(fresh)

	shared := cache.New(cache.Options{})
	for i, workers := range []int{1, 2, 8} {
		a, err := AnalyzeSource(testProgram, Config{
			Mode:              ModeAndersen,
			Workers:           workers,
			AndersenThreshold: 2,
			Cache:             shared,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if dump := aliasDump(a); dump != want {
			t.Errorf("workers=%d: cached results diverge from fresh\n--- fresh\n%s--- got\n%s", workers, want, dump)
		}
		if i == 0 {
			if a.CacheStats.Misses != int64(len(a.Health)) {
				t.Errorf("first run stats = %+v, want all misses", a.CacheStats)
			}
			continue
		}
		if a.CacheStats.Misses != 0 {
			t.Errorf("workers=%d: warm run missed %d times, want pure hits", workers, a.CacheStats.Misses)
		}
	}
}

// TestPipelinedMatchesSerialCover: every mode's streamed cover, eager
// and lazy, must be the cluster builder's cover on the same program —
// same clusters, same IDs, kinds and partitions, in order — under each
// selection (plain, demand, hybrid). A lazy analysis must give the eager
// one's answers once EnsureCluster has solved every selected cluster.
func TestPipelinedMatchesSerialCover(t *testing.T) {
	const threshold = 2 // force Andersen refinement
	modes := []struct {
		name  string
		cfg   Config
		build func(*ir.Program, *steens.Analysis) []*cluster.Cluster
	}{
		{"none", Config{Mode: ModeNone}, func(p *ir.Program, sa *steens.Analysis) []*cluster.Cluster {
			return []*cluster.Cluster{cluster.BuildWhole(p, sa)}
		}},
		{"steensgaard", Config{Mode: ModeSteensgaard}, cluster.BuildSteensgaard},
		{"andersen", Config{Mode: ModeAndersen}, func(p *ir.Program, sa *steens.Analysis) []*cluster.Cluster {
			return cluster.BuildAndersen(p, sa, threshold)
		}},
		{"syntactic", Config{Mode: ModeSyntactic}, cluster.BuildSyntactic},
	}
	selections := []struct {
		name  string
		apply func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"demand", func(c *Config) { c.Demand = func(v *ir.Var) bool { return v.IsLock } }},
		{"hybrid", func(c *Config) { c.HybridSizeLimit = 2 }},
	}
	ctx := context.Background()
	for _, sel := range selections {
		t.Run(sel.name, func(t *testing.T) {
			for _, m := range modes {
				t.Run(m.name, func(t *testing.T) {
					prog, err := frontend.LowerSource(testProgram)
					if err != nil {
						t.Fatal(err)
					}
					sa, err := steensFront(prog)
					if err != nil {
						t.Fatal(err)
					}
					want := coverDump(m.build(prog, sa))
					var eager *Analysis
					for _, lazy := range []bool{false, true} {
						cfg := m.cfg
						cfg.AndersenThreshold, cfg.Workers, cfg.Lazy = threshold, 4, lazy
						sel.apply(&cfg)
						a, err := AnalyzeSource(testProgram, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if got := coverDump(a.Clusters); got != want {
							t.Fatalf("lazy=%v: cover diverges from the builder's\n--- builder\n%s--- analysis\n%s", lazy, want, got)
						}
						if !lazy {
							eager = a
							continue
						}
						if len(a.Health) != 0 || a.Engine(0) != nil {
							t.Fatalf("lazy run solved clusters before any query: health %v", a.Health)
						}
						a.mu.Lock()
						var ids []int
						for id, c := range a.selected {
							if c != nil {
								ids = append(ids, id)
							}
						}
						a.mu.Unlock()
						for _, id := range ids {
							if _, _, ok := a.EnsureCluster(ctx, id); !ok {
								t.Fatalf("EnsureCluster(%d) failed", id)
							}
						}
						if got, want := answerDump(a), answerDump(eager); got != want {
							t.Errorf("lazy answers diverge from eager\n--- eager\n%s--- lazy\n%s", want, got)
						}
					}
				})
			}
		})
	}
}
