package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"bootstrap/internal/cache"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
)

// aliasDump serializes every query surface the facade exposes into one
// canonical string: the cover (IDs, kinds, pointer sets), per-pointer
// cluster membership, points-to sets, alias sets and health statuses.
// Two analyses with equal dumps are observably identical.
func aliasDump(a *Analysis) string {
	var b strings.Builder
	for _, c := range a.Clusters {
		fmt.Fprintf(&b, "cluster %d %s %v\n", c.ID, c.Kind, c.Pointers)
	}
	for _, h := range a.Health {
		fmt.Fprintf(&b, "health %d %s demoted=%v\n", h.ClusterID, h.Status, h.Demoted)
	}
	exit := a.Prog.Func(a.Prog.Entry).Exit
	var ptrs []ir.VarID
	for p := range a.byPointer {
		ptrs = append(ptrs, p)
	}
	sort.Slice(ptrs, func(i, j int) bool { return ptrs[i] < ptrs[j] })
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

// analyzeSerial runs src through the serial cascade, BuildPlan then
// AnalyzeFromPlan, which an eager ModeAndersen analysis otherwise
// pipelines.
func analyzeSerial(t *testing.T, src string, cfg Config) *Analysis {
	t.Helper()
	prog, err := frontend.LowerSource(src)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPlan(context.Background(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeFromPlan(context.Background(), pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestPipelinedMatchesSerialCover: the streamed cover must be the
// BuildAndersen cover exactly — same clusters, same IDs, same order —
// including under demand selection and the hybrid size cut-off.
func TestPipelinedMatchesSerialCover(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Mode: ModeAndersen, AndersenThreshold: 2, Workers: 4}},
		{"demand", Config{Mode: ModeAndersen, AndersenThreshold: 2, Workers: 4,
			Demand: func(v *ir.Var) bool { return v.IsLock }}},
		{"hybrid", Config{Mode: ModeAndersen, AndersenThreshold: 2, Workers: 4, HybridSizeLimit: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			piped, err := AnalyzeSource(testProgram, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			serial := analyzeSerial(t, testProgram, tc.cfg)
			if got, want := aliasDump(piped), aliasDump(serial); got != want {
				t.Errorf("pipelined cover/results diverge from serial\n--- serial\n%s--- pipelined\n%s", want, got)
			}
			if len(piped.Clusters) != len(serial.Clusters) {
				t.Fatalf("cover sizes differ: %d vs %d", len(piped.Clusters), len(serial.Clusters))
			}
		})
	}
}
