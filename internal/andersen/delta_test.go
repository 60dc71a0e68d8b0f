package andersen

import (
	"math/rand"
	"testing"

	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
	"bootstrap/internal/synth"
)

// TestDeltaSolveBasics checks the delta solver on the package's
// canonical hand-written example.
func TestDeltaSolveBasics(t *testing.T) {
	src := `
		int a, b;
		int *p, *q, *s;
		int **r, **u;
		void main() {
			p = &a;
			q = p;
			r = &q;
			*r = &b;
			s = *r;
			u = r;
			*u = s;
		}
	`
	p, err := frontend.LowerSource(src)
	if err != nil {
		t.Fatal(err)
	}
	base := Analyze(p)
	delta := Analyze(p, WithDeltaPropagation())
	for v := 0; v < p.NumVars(); v++ {
		if !base.PointsToSet(ir.VarID(v)).Equal(delta.PointsToSet(ir.VarID(v))) {
			t.Errorf("pts(%s) differs: base %v, delta %v",
				p.VarName(ir.VarID(v)), base.PointsTo(ir.VarID(v)), delta.PointsTo(ir.VarID(v)))
		}
	}
	st := delta.SolverStats()
	if st.Waves == 0 {
		t.Error("delta solve reported zero waves")
	}
	if st.DeltaEdgesFired == 0 {
		t.Error("delta solve reported zero edge firings")
	}
}

// TestDeltaSolveRandom asserts the delta solver is bit-identical on
// random programs to the plain full-propagation solver, the one package
// core runs.
func TestDeltaSolveRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	cfg := synth.DefaultRandomConfig()
	cfg.Funcs = 3
	cfg.Recursion = true
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := synth.RandomSource(rng, cfg)
		p, err := frontend.LowerSource(src)
		if err != nil {
			t.Fatal(err)
		}
		base := Analyze(p)
		delta := Analyze(p, WithDeltaPropagation())
		for v := 0; v < p.NumVars(); v++ {
			if !base.PointsToSet(ir.VarID(v)).Equal(delta.PointsToSet(ir.VarID(v))) {
				t.Fatalf("seed %d: pts(%s) differs: base %v, delta %v\nprogram:\n%s",
					seed, p.VarName(ir.VarID(v)),
					base.PointsTo(ir.VarID(v)), delta.PointsTo(ir.VarID(v)), src)
			}
		}
	}
}

// TestParallelSolveRandom forces the parallel wave-front path (threshold
// 1 activates it on every program) and asserts bit-identical results.
// Run under -race this doubles as the solver's race-freedom proof.
func TestParallelSolveRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	cfg := synth.DefaultRandomConfig()
	cfg.Funcs = 3
	cfg.Recursion = true
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := synth.RandomSource(rng, cfg)
		p, err := frontend.LowerSource(src)
		if err != nil {
			t.Fatal(err)
		}
		base := Analyze(p)
		par := Analyze(p, WithParallelSolve(4, 1))
		for v := 0; v < p.NumVars(); v++ {
			if !base.PointsToSet(ir.VarID(v)).Equal(par.PointsToSet(ir.VarID(v))) {
				t.Fatalf("seed %d: pts(%s) differs: base %v, parallel %v\nprogram:\n%s",
					seed, p.VarName(ir.VarID(v)),
					base.PointsTo(ir.VarID(v)), par.PointsTo(ir.VarID(v)), src)
			}
		}
	}
}

// TestParallelFrontOccupancy checks the parallel path actually engages
// on a wide program (many independent chains make wide fronts) and
// reports occupancy counters.
func TestParallelFrontOccupancy(t *testing.T) {
	cfg := synth.DefaultRandomConfig()
	cfg.Funcs = 6
	rng := rand.New(rand.NewSource(7))
	var src string
	// Grow until the front width crosses parFrontMin so the pool engages.
	for tries := 0; ; tries++ {
		src = synth.RandomSource(rng, cfg)
		p, err := frontend.LowerSource(src)
		if err != nil {
			t.Fatal(err)
		}
		a := Analyze(p, WithParallelSolve(4, 1))
		if st := a.SolverStats(); st.ParFronts > 0 {
			if st.ParNodes < st.ParFronts {
				t.Fatalf("occupancy underflow: %d nodes across %d fronts", st.ParNodes, st.ParFronts)
			}
			m := obs.NewMetrics()
			st.Record(m)
			return
		}
		if tries > 50 {
			t.Skip("no front wide enough to engage the pool; nothing to assert")
		}
	}
}

// TestDeltaWithStmtFilter exercises the per-partition configuration:
// a statement filter plus delta propagation, as the cluster builder
// applies to oversized partitions.
func TestDeltaWithStmtFilter(t *testing.T) {
	src := `
		int a, b;
		int *p, *q, *r, *s;
		void main() {
			p = &a;
			q = &b;
			r = p;
			r = q;
			s = r;
		}
	`
	p, err := frontend.LowerSource(src)
	if err != nil {
		t.Fatal(err)
	}
	keep := func(loc ir.Loc) bool { return int(loc)%2 == 0 }
	base := Analyze(p, WithStmtFilter(keep))
	delta := Analyze(p, WithStmtFilter(keep), WithDeltaPropagation())
	for v := 0; v < p.NumVars(); v++ {
		if !base.PointsToSet(ir.VarID(v)).Equal(delta.PointsToSet(ir.VarID(v))) {
			t.Errorf("pts(%s) differs under filter: base %v, delta %v",
				p.VarName(ir.VarID(v)), base.PointsTo(ir.VarID(v)), delta.PointsTo(ir.VarID(v)))
		}
	}
}
