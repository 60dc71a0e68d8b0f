package exact

import (
	"math/rand"
	"testing"

	"bootstrap/internal/andersen"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/frontend"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

func lower(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := frontend.LowerSource(src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

func v(t *testing.T, p *ir.Program, name string) ir.VarID {
	t.Helper()
	id, ok := p.VarByName[name]
	if !ok {
		t.Fatalf("no variable %q", name)
	}
	return id
}

func TestStraightLine(t *testing.T) {
	p := lower(t, `
		int a, b;
		int *x;
		void main() {
			x = &a;
			x = &b;
		}
	`)
	r := Explore(p, Options{})
	exit := p.Func(p.Entry).Exit
	pts := r.PointsTo(v(t, p, "x"), exit)
	if len(pts) != 1 || p.VarName(pts[0]) != "b" {
		t.Errorf("exact pts(x at exit) = %v, want [b]", pts)
	}
	if r.Truncated {
		t.Error("straight-line program should not truncate")
	}
	if r.Paths != 1 {
		t.Errorf("Paths = %d, want 1", r.Paths)
	}
}

func TestBranchesExplored(t *testing.T) {
	p := lower(t, `
		int a, b;
		int *x;
		void main() {
			if (*) { x = &a; } else { x = &b; }
		}
	`)
	r := Explore(p, Options{})
	exit := p.Func(p.Entry).Exit
	pts := r.PointsTo(v(t, p, "x"), exit)
	if len(pts) != 2 {
		t.Errorf("exact pts(x) = %v, want both a and b", pts)
	}
	if r.Paths != 2 {
		t.Errorf("Paths = %d, want 2", r.Paths)
	}
}

func TestAliasRecording(t *testing.T) {
	p := lower(t, `
		int a;
		int *x, *y;
		void main() {
			x = &a;
			y = x;
		}
	`)
	r := Explore(p, Options{})
	exit := p.Func(p.Entry).Exit
	if !r.MayAlias(v(t, p, "x"), v(t, p, "y"), exit) {
		t.Error("x and y alias at exit")
	}
}

func TestLoadStoreSemantics(t *testing.T) {
	p := lower(t, `
		int a, b;
		int *x, *l;
		int **px;
		void main() {
			x = &a;
			px = &x;
			*px = &b;
			l = *px;
		}
	`)
	r := Explore(p, Options{})
	exit := p.Func(p.Entry).Exit
	pts := r.PointsTo(v(t, p, "l"), exit)
	if len(pts) != 1 || p.VarName(pts[0]) != "b" {
		t.Errorf("exact pts(l) = %v, want [b]", pts)
	}
}

func TestCallsAndReturns(t *testing.T) {
	p := lower(t, `
		int a;
		int *g;
		int *mk() { return &a; }
		void main() { g = mk(); }
	`)
	r := Explore(p, Options{})
	exit := p.Func(p.Entry).Exit
	pts := r.PointsTo(v(t, p, "g"), exit)
	if len(pts) != 1 || p.VarName(pts[0]) != "a" {
		t.Errorf("exact pts(g) = %v, want [a]", pts)
	}
}

func TestLoopTruncation(t *testing.T) {
	p := lower(t, `
		int a;
		int *x;
		void main() {
			while (*) { x = &a; }
		}
	`)
	r := Explore(p, Options{MaxNodeVisits: 2})
	if !r.Truncated {
		t.Error("unbounded loop must truncate")
	}
	exit := p.Func(p.Entry).Exit
	if len(r.PointsTo(v(t, p, "x"), exit)) != 1 {
		t.Error("loop body effect not observed")
	}
}

func TestRecursionBounded(t *testing.T) {
	p := lower(t, `
		int a;
		int *g;
		void rec() { rec(); g = &a; }
		void main() { rec(); }
	`)
	r := Explore(p, Options{MaxCallDepth: 4})
	if !r.Truncated {
		t.Error("infinite recursion must truncate")
	}
}

// analysisBundle runs every analysis on one program.
type analysisBundle struct {
	prog *ir.Program
	sa   *steens.Analysis
	aa   *andersen.Analysis
	eng  *fscs.Engine
}

func analyzeAll(t *testing.T, src string) *analysisBundle {
	t.Helper()
	p := lower(t, src)
	sa := steens.Analyze(p)
	if frontend.HasIndirectCalls(p) {
		if err := frontend.Devirtualize(p, func(_ ir.Loc, fp ir.VarID) []ir.FuncID {
			return sa.Targets(fp)
		}); err != nil {
			t.Fatalf("devirtualize: %v", err)
		}
		sa = steens.Analyze(p)
	}
	aa := andersen.Analyze(p)
	cg := callgraph.Build(p)
	whole := cluster.BuildWhole(p, sa)
	eng := fscs.NewEngine(p, cg, sa, whole, fscs.WithFallback(aa), fscs.WithBudget(2_000_000))
	return &analysisBundle{prog: p, sa: sa, aa: aa, eng: eng}
}

// checkSoundnessLattice verifies exact ⊆ FSCS ⊆(values) Andersen ⊆
// Steensgaard-partition on sampled locations.
func checkSoundnessLattice(t *testing.T, src string) {
	b := analyzeAll(t, src)
	r := Explore(b.prog, Options{MaxNodeVisits: 3, MaxPaths: 4000, MaxSteps: 3000})

	// Sample: the exit of every function plus every 7th node.
	var locs []ir.Loc
	for _, f := range b.prog.Funcs {
		locs = append(locs, f.Exit)
	}
	for i := 0; i < len(b.prog.Nodes); i += 7 {
		locs = append(locs, ir.Loc(i))
	}

	for _, loc := range locs {
		for vid := 0; vid < b.prog.NumVars(); vid++ {
			pv := ir.VarID(vid)
			exactPts := r.PointsTo(pv, loc)
			if len(exactPts) == 0 {
				continue
			}
			// Andersen must cover exact.
			for _, o := range exactPts {
				if !b.aa.PointsToSet(pv).Has(int(o)) {
					t.Errorf("UNSOUND Andersen: %s may point to %s at L%d but Andersen misses it\nprogram:\n%s",
						b.prog.VarName(pv), b.prog.VarName(o), loc, src)
					return
				}
			}
			// FSCS values must cover exact (or flag imprecision).
			objs, precise := b.eng.Values(pv, loc)
			if precise {
				have := map[ir.VarID]bool{}
				for _, o := range objs {
					have[o] = true
				}
				for _, o := range exactPts {
					if !have[o] {
						t.Errorf("UNSOUND FSCS: %s may point to %s at L%d (exact) but Values misses it\nprogram:\n%s",
							b.prog.VarName(pv), b.prog.VarName(o), loc, src)
						return
					}
				}
			}
			// Steensgaard: exact pointees must be in the Steensgaard
			// points-to set.
			for _, o := range exactPts {
				found := false
				for _, so := range b.sa.PointsToVars(pv) {
					if so == o {
						found = true
					}
				}
				if !found {
					t.Errorf("UNSOUND Steensgaard: %s -> %s at L%d missed\nprogram:\n%s",
						b.prog.VarName(pv), b.prog.VarName(o), loc, src)
					return
				}
			}
		}
		// Alias soundness: exact alias pairs must be FSCS may-aliases and
		// share a Steensgaard partition.
		for i := 0; i < b.prog.NumVars(); i++ {
			for j := i + 1; j < b.prog.NumVars(); j++ {
				pi, pj := ir.VarID(i), ir.VarID(j)
				if !r.MayAlias(pi, pj, loc) {
					continue
				}
				if !b.sa.SamePartition(pi, pj) {
					t.Errorf("UNSOUND partitioning: %s and %s alias at L%d but are in different partitions\nprogram:\n%s",
						b.prog.VarName(pi), b.prog.VarName(pj), loc, src)
					return
				}
				if !b.eng.MayAlias(pi, pj, loc) {
					t.Errorf("UNSOUND FSCS MayAlias: %s and %s alias at L%d (exact)\nprogram:\n%s",
						b.prog.VarName(pi), b.prog.VarName(pj), loc, src)
					return
				}
				// The forward Q-phase (Algorithm 3 as presented) must be
				// sound too.
				foundFwd := false
				for _, q := range b.eng.ForwardAliases(pi, loc) {
					if q == pj {
						foundFwd = true
					}
				}
				if !foundFwd {
					// The forward phase only reports holders of concrete
					// object values; pairs aliased via unknown-value
					// fallback are covered by MayAlias above.
					if objs, ok := b.eng.Values(pi, loc); ok && len(objs) > 0 {
						if objsJ, okJ := b.eng.Values(pj, loc); okJ && len(objsJ) > 0 {
							t.Errorf("UNSOUND forward Q-phase: %s and %s alias at L%d (exact)\nprogram:\n%s",
								b.prog.VarName(pi), b.prog.VarName(pj), loc, src)
							return
						}
					}
				}
			}
		}
	}
}

// TestSoundnessLatticeFixed checks the lattice on hand-written corner
// cases.
func TestSoundnessLatticeFixed(t *testing.T) {
	cases := []string{
		`int a, b; int *x, *y; int **px;
		 void main() { x = &a; y = &b; px = &x; *px = y; y = *px; }`,
		`int *p; int a; void main() { p = &a; *p = p; }`,
		`int a, b; int *x;
		 void main() { x = &a; if (*) { x = &b; free(x); } }`,
		`int a; int *g;
		 void set(int *v) { g = v; }
		 void main() { set(&a); set(g); }`,
		`int a, b; int *x, *y; int **q;
		 void main() { q = &x; while (*) { *q = &a; q = &y; } x = *q; }`,
	}
	for _, src := range cases {
		checkSoundnessLattice(t, src)
	}
}

// TestSoundnessLatticeRandom generates random programs and checks the
// lattice — the repository's central property test.
func TestSoundnessLatticeRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	cfg := synth.DefaultRandomConfig()
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := synth.RandomSource(rng, cfg)
		checkSoundnessLattice(t, src)
		if t.Failed() {
			t.Fatalf("lattice violated at seed %d", seed)
		}
	}
}

// TestSoundnessLatticeRandomRecursive stresses recursion handling.
func TestSoundnessLatticeRandomRecursive(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	cfg := synth.DefaultRandomConfig()
	cfg.Recursion = true
	cfg.Funcs = 3
	for seed := int64(100); seed < 115; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := synth.RandomSource(rng, cfg)
		checkSoundnessLattice(t, src)
		if t.Failed() {
			t.Fatalf("lattice violated at seed %d", seed)
		}
	}
}
