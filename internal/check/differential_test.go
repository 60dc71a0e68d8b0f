package check_test

import (
	"context"
	"math/rand"
	"testing"

	"bootstrap/internal/check"
	"bootstrap/internal/core"
	"bootstrap/internal/exact"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/synth"
)

// diffAppendix seeds one known race (ddr_g: thread_diff_a writes under
// dmA, thread_diff_b without) and one known use-after-free (ub_d, an
// alias of the freed ua_d) into every random program of the
// differential suite. Names are chosen to never collide with the
// random generator's a%d/p%d/q%d/m%d/l%d families.
const diffAppendix = `
lock dmA;
lock *dlA;
int ddr_g;
int *ua_d;
int *ub_d;
void acquire(lock *l) { }
void release(lock *l) { }
void thread_diff_a() {
	dlA = &dmA;
	acquire(dlA);
	ddr_g = 1;
	release(dlA);
}
void thread_diff_b() {
	ddr_g = 2;
}
void thread_diff_u() {
	ua_d = malloc;
	ub_d = ua_d;
	free(ua_d);
	*ub_d = 1;
}
`

// diffSource is one differential subject: a seeded random program (with
// lock traffic and free sites of its own) plus the known-bug appendix.
func diffSource(seed int64) string {
	cfg := synth.DefaultRandomConfig()
	cfg.Locks = 2
	return synth.RandomSource(rand.New(rand.NewSource(seed)), cfg) + diffAppendix
}

// TestDifferentialKnobs: the seeded race and use-after-free are found
// on every random program under every solver knob combination, and the
// full fingerprint set is bit-identical across knobs — parallelism must
// change speed, never findings.
func TestDifferentialKnobs(t *testing.T) {
	knobs := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"default", func(*core.Config) {}},
		{"workers-1", func(c *core.Config) { c.Workers = 1 }},
		{"workers-8", func(c *core.Config) { c.Workers = 8 }},
	}
	for seed := int64(0); seed < 5; seed++ {
		src := diffSource(seed)
		var want []string
		for _, k := range knobs {
			cfg := core.Config{Mode: core.ModeAndersen, AndersenThreshold: 4, Workers: 2}
			k.mut(&cfg)
			passes := check.All()
			a := analyzeLazy(t, src, passes, cfg)
			rep := check.Run(context.Background(), a, check.Options{Passes: passes})
			for _, res := range rep.Results {
				if res.Err != nil {
					t.Fatalf("seed %d %s: pass %s: %v", seed, k.name, res.Pass, res.Err)
				}
				if res.Incomplete {
					t.Fatalf("seed %d %s: pass %s incomplete without a deadline", seed, k.name, res.Pass)
				}
			}
			diags := rep.Diagnostics()
			for _, bug := range []synth.SeededBug{
				{Rule: "race", Var: "ddr_g"},
				{Rule: "use-after-free", Var: "ub_d"},
			} {
				if !found(diags, bug) {
					t.Errorf("seed %d %s: seeded %s on %s not found\n%s",
						seed, k.name, bug.Rule, bug.Var, check.FormatText(rep))
				}
			}
			got := rep.Fingerprints()
			if want == nil {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Errorf("seed %d %s: %d findings, default knob had %d", seed, k.name, len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("seed %d %s: fingerprint drift at %d: %s vs %s",
						seed, k.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDifferentialExactFreeSites: at every free site reachable by the
// exact path oracle, the oracle's points-to set for the freed pointer
// is contained in the analysis's — the soundness fact the UAF pass's
// object-overlap reporting rests on. At least one site must be
// non-trivial (oracle-reached with a concrete target), or the suite is
// vacuous.
func TestDifferentialExactFreeSites(t *testing.T) {
	nontrivial := 0
	for seed := int64(0); seed < 5; seed++ {
		prog, err := frontend.LowerSource(diffSource(seed))
		if err != nil {
			t.Fatalf("seed %d: lower: %v", seed, err)
		}
		oracle := exact.Explore(prog, exact.Options{})
		a, err := core.AnalyzeProgram(prog, core.Config{
			Mode: core.ModeAndersen, AndersenThreshold: 4, Workers: 2,
		})
		if err != nil {
			t.Fatalf("seed %d: analyze: %v", seed, err)
		}
		for _, n := range prog.Nodes {
			if n.Stmt.Op != ir.OpNullify || !n.Stmt.Free {
				continue
			}
			exactObjs := oracle.PointsTo(n.Stmt.Dst, n.Loc)
			if len(exactObjs) > 0 {
				nontrivial++
			}
			objs, _ := a.PointsToContext(context.Background(), n.Stmt.Dst, n.Loc)
			super := map[ir.VarID]bool{}
			for _, o := range objs {
				super[o] = true
			}
			for _, o := range exactObjs {
				if !super[o] {
					t.Errorf("seed %d: free(%s) at L%d: oracle target %s missing from analysis points-to %v",
						seed, prog.VarName(n.Stmt.Dst), n.Loc, prog.VarName(o), objs)
				}
			}
		}
	}
	if nontrivial == 0 {
		t.Fatal("no oracle-reached free site had a concrete target; the suite is vacuous")
	}
}
