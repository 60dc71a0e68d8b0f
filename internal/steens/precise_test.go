package steens_test

import (
	"math/rand"
	"testing"

	"bootstrap/internal/andersen"
	"bootstrap/internal/exact"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

// hubSrc is the oversharing pattern precise mode exists for: a
// write-only hub copied from every community. Baseline Steensgaard
// unifies x1, x2 and hub into one partition (and a with b); precise
// mode keeps the communities apart and gives hub overlay memberships.
const hubSrc = `
	int a, b;
	int *x1, *x2, *hub;
	void main() {
		x1 = &a;
		x2 = &b;
		hub = x1;
		hub = x2;
	}
`

func lower(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := frontend.LowerSource(src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

func vid(t *testing.T, p *ir.Program, name string) ir.VarID {
	t.Helper()
	id, ok := p.VarByName[name]
	if !ok {
		t.Fatalf("no variable %q", name)
	}
	return id
}

func TestPreciseShrinksHub(t *testing.T) {
	p := lower(t, hubSrc)
	base := steens.Analyze(p)
	prec := steens.Analyze(p, steens.Precise())

	if got, want := prec.Stats().Deferred, 2; got != want {
		t.Fatalf("deferred copies = %d, want %d", got, want)
	}
	if bm, pm := base.MaxPartitionSize(), prec.MaxPartitionSize(); pm >= bm {
		t.Errorf("max partition did not shrink: base %d, precise %d", bm, pm)
	}

	x1, x2, hub := vid(t, p, "x1"), vid(t, p, "x2"), vid(t, p, "hub")
	a, b := vid(t, p, "a"), vid(t, p, "b")
	if prec.SamePartition(x1, x2) {
		t.Error("precise mode still overshares: x1 and x2 share a partition")
	}
	if !prec.SamePartition(x1, hub) || !prec.SamePartition(x2, hub) {
		t.Error("hub lost membership in a source partition")
	}
	pt := map[ir.VarID]bool{}
	for _, o := range prec.PointsToVars(hub) {
		pt[o] = true
	}
	if !pt[a] || !pt[b] {
		t.Errorf("PointsToVars(hub) = %v, want both a and b", prec.PointsToVars(hub))
	}
	// The merged partition view contains every may-alias of the hub.
	members := map[ir.VarID]bool{}
	for _, m := range prec.PartitionOf(hub) {
		members[m] = true
	}
	if !members[x1] || !members[x2] {
		t.Errorf("PartitionOf(hub) = %v, want x1 and x2", prec.PartitionOf(hub))
	}
	if prec.SinkClasses(hub) == nil {
		t.Error("SinkClasses(hub) = nil, want the overlay classes")
	}
	if base.SinkClasses(hub) != nil {
		t.Error("SinkClasses non-nil outside precise mode")
	}
}

// TestPreciseMaxPartitionBounded: on a slice of the Table 1 workloads
// at scale 0.12, precise mode's worst partition is never larger than
// the default mode's (default -> precise max today: sock 8 -> 6, ctrace
// 8 -> 6, autofs 11 -> 6, raid 15 -> 8, mt_daapd 10 -> 10). Overlay
// memberships add a sink to its sources' partitions, so a wrong overlay
// shows up here as growth.
func TestPreciseMaxPartitionBounded(t *testing.T) {
	for _, name := range []string{"sock", "ctrace", "autofs", "raid", "mt_daapd"} {
		b, ok := synth.FindBenchmark(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		p := lower(t, synth.Generate(b, 0.12))
		base := steens.Analyze(p).MaxPartitionSize()
		prec := steens.Analyze(p, steens.Precise()).MaxPartitionSize()
		if prec <= 0 || prec > base {
			t.Errorf("%s: precise max partition %d, want in (0, %d]", name, prec, base)
		}
	}
}

// TestPreciseDefaultUnchanged pins the default mode: no deferrals, and
// partition structure identical with and without the (absent) option.
func TestPreciseDefaultUnchanged(t *testing.T) {
	p := lower(t, hubSrc)
	a := steens.Analyze(p)
	if a.Stats().Deferred != 0 {
		t.Fatalf("default mode deferred %d copies", a.Stats().Deferred)
	}
	x1, x2 := vid(t, p, "x1"), vid(t, p, "x2")
	if !a.SamePartition(x1, x2) {
		t.Error("baseline Steensgaard should unify x1 and x2 through the hub")
	}
}

// TestPreciseSoundRandom is the ISSUE's soundness differential: on
// random programs, every exact alias pair must share a precise-mode
// partition, every exact pointee must be in the precise-mode points-to
// set, and Andersen's sets (a sound refinement) must be contained in
// the precise-mode sets.
func TestPreciseSoundRandom(t *testing.T) {
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
		prec := steens.Analyze(p, steens.Precise())
		an := andersen.Analyze(p)

		// Andersen ⊆ precise Steensgaard, pointwise.
		for v := 0; v < p.NumVars(); v++ {
			pv := ir.VarID(v)
			have := map[ir.VarID]bool{}
			for _, o := range prec.PointsToVars(pv) {
				have[o] = true
			}
			for _, o := range an.PointsTo(pv) {
				if !have[o] {
					t.Fatalf("seed %d: UNSOUND precise Steensgaard: Andersen has %s -> %s, precise misses it\nprogram:\n%s",
						seed, p.VarName(pv), p.VarName(o), src)
				}
			}
		}

		r := exact.Explore(p, exact.Options{})
		for _, n := range p.Nodes {
			loc := n.Loc
			for i := 0; i < p.NumVars(); i++ {
				pi := ir.VarID(i)
				for _, o := range r.PointsTo(pi, loc) {
					found := false
					for _, so := range prec.PointsToVars(pi) {
						if so == o {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("seed %d: UNSOUND precise Steensgaard: %s -> %s at L%d (exact) missed\nprogram:\n%s",
							seed, p.VarName(pi), p.VarName(o), loc, src)
					}
				}
				for j := i + 1; j < p.NumVars(); j++ {
					pj := ir.VarID(j)
					if r.MayAlias(pi, pj, loc) && !prec.SamePartition(pi, pj) {
						t.Fatalf("seed %d: UNSOUND precise partitioning: %s and %s alias at L%d but share no partition\nprogram:\n%s",
							seed, p.VarName(pi), p.VarName(pj), loc, src)
					}
				}
			}
		}
	}
}
