package core

import (
	"math/rand"
	"testing"
	"time"

	"bootstrap/internal/exact"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/synth"
)

// TestPreciseCascadeSoundRandom runs the whole cascade under the
// oversharing-resistant partitioner on random programs and checks every
// exact alias pair is still reported: the overlapping cover must lose no
// soundness end to end.
func TestPreciseCascadeSoundRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	gen := synth.DefaultRandomConfig()
	gen.Funcs = 3
	gen.Recursion = true
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := synth.RandomSource(rng, gen)
		prog, err := frontend.LowerSource(src)
		if err != nil {
			t.Fatal(err)
		}
		r := exact.Explore(prog, exact.Options{})
		// Random programs can hand the FSCS stage a pathological cluster
		// (exponential condition churn); the ladder demotes those to the
		// flow-insensitive fallback, which keeps the run finite and the
		// answers sound — exactly what this test asserts.
		cfg := Config{
			Mode:              ModeAndersen,
			Workers:           2,
			AndersenThreshold: 4,
			SteensPrecise:     true,
			ClusterTimeout:    time.Second,
			Retries:           -1,
		}
		a, err := AnalyzeProgram(prog, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Querying every pair at every node is too slow for CI (each
		// MayAlias is a context-sensitive FSCS query); the function exits
		// see every fact that escapes a call, which is where an unsound
		// cover would be observable.
		var locs []ir.Loc
		for fid := range prog.Funcs {
			locs = append(locs, prog.Func(ir.FuncID(fid)).Exit)
		}
		for _, loc := range locs {
			for i := 0; i < prog.NumVars(); i++ {
				for j := i + 1; j < prog.NumVars(); j++ {
					pi, pj := ir.VarID(i), ir.VarID(j)
					if r.MayAlias(pi, pj, loc) && !mayAlias(a, pi, pj, loc) {
						t.Fatalf("seed %d: UNSOUND: %s and %s alias at L%d (exact), cascade says no\nprogram:\n%s",
							seed, prog.VarName(pi), prog.VarName(pj), loc, src)
					}
				}
			}
		}
	}
}
