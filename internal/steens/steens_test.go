package steens

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"bootstrap/internal/andersen"
	"bootstrap/internal/exact"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/synth"
)

func analyze(t *testing.T, src string) (*ir.Program, *Analysis) {
	t.Helper()
	p, err := frontend.LowerSource(src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p, Analyze(p)
}

func v(t *testing.T, p *ir.Program, name string) ir.VarID {
	t.Helper()
	id, ok := p.VarByName[name]
	if !ok {
		t.Fatalf("no variable %q", name)
	}
	return id
}

// partitionNames returns the names of the partition containing name,
// filtered to the given interesting variables.
func partitionNames(p *ir.Program, a *Analysis, member ir.VarID, interesting map[string]bool) []string {
	var out []string
	for _, m := range a.PartitionOf(member) {
		n := p.VarName(m)
		if interesting[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func names(set []string) map[string]bool {
	m := map[string]bool{}
	for _, s := range set {
		m[s] = true
	}
	return m
}

func equalStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFigure3Partitions reproduces the paper's Figure 3 example: for
//
//	1a: x = &a;  2a: y = &b;  3a: p = x;  4a: *x = *y;
//
// the Steensgaard partitions are {a,b}, {y} and {p,x}.
func TestFigure3Partitions(t *testing.T) {
	p, a := analyze(t, `
		int a, b;
		int *x, *y, *p;
		void main() {
			x = &a;
			y = &b;
			p = x;
			*x = *y;
		}
	`)
	interesting := names([]string{"a", "b", "x", "y", "p"})
	if got := partitionNames(p, a, v(t, p, "a"), interesting); !equalStrs(got, []string{"a", "b"}) {
		t.Errorf("partition of a = %v, want [a b]", got)
	}
	if got := partitionNames(p, a, v(t, p, "y"), interesting); !equalStrs(got, []string{"y"}) {
		t.Errorf("partition of y = %v, want [y]", got)
	}
	if got := partitionNames(p, a, v(t, p, "p"), interesting); !equalStrs(got, []string{"p", "x"}) {
		t.Errorf("partition of p = %v, want [p x]", got)
	}
	// Hierarchy: x is one level higher than a; x and a are not equal-depth.
	if !a.Higher(v(t, p, "x"), v(t, p, "a")) {
		t.Error("x should be higher than a in the hierarchy")
	}
	if a.Higher(v(t, p, "a"), v(t, p, "x")) {
		t.Error("a should not be higher than x")
	}
	if a.Depth(v(t, p, "x")) >= a.Depth(v(t, p, "a")) {
		t.Errorf("depth(x)=%d should be < depth(a)=%d", a.Depth(v(t, p, "x")), a.Depth(v(t, p, "a")))
	}
}

// TestFigure2Partitions reproduces Figure 2: p=&a; q=&b; r=&c; q=p; q=r
// unifies {a,b,c} as one pointee partition and {p,q,r} as one pointer
// partition (their contents are all unified).
func TestFigure2Partitions(t *testing.T) {
	p, a := analyze(t, `
		int a, b, c;
		int *p, *q, *r;
		void main() {
			p = &a;
			q = &b;
			r = &c;
			q = p;
			q = r;
		}
	`)
	interesting := names([]string{"a", "b", "c", "p", "q", "r"})
	if got := partitionNames(p, a, v(t, p, "q"), interesting); !equalStrs(got, []string{"p", "q", "r"}) {
		t.Errorf("partition of q = %v, want [p q r]", got)
	}
	if got := partitionNames(p, a, v(t, p, "a"), interesting); !equalStrs(got, []string{"a", "b", "c"}) {
		t.Errorf("partition of a = %v, want [a b c]", got)
	}
	// Steensgaard points-to: each of p,q,r may point to all of a,b,c.
	pts := a.PointsToVars(v(t, p, "p"))
	got := map[string]bool{}
	for _, o := range pts {
		got[p.VarName(o)] = true
	}
	for _, want := range []string{"a", "b", "c"} {
		if !got[want] {
			t.Errorf("pts(p) missing %s (got %v)", want, pts)
		}
	}
}

// TestFigure5Partitions reproduces Figure 5's partitions P1 = {x,u,w,z}
// and P2 = {a,b,c,d}, with P1 pointing to P2.
func TestFigure5Partitions(t *testing.T) {
	p, a := analyze(t, `
		int **x, **u, **w, **z;
		int *d;
		int c0;
		int *c;
		int *a, *b;
		void foo() {
			*x = d;
			a = b;
			x = w;
		}
		void bar() {
			*x = d;
			a = b;
		}
		void main() {
			x = &c;
			w = u;
			foo();
			z = x;
			*z = b;
			bar();
		}
	`)
	interesting := names([]string{"x", "u", "w", "z", "a", "b", "c", "d"})
	if got := partitionNames(p, a, v(t, p, "x"), interesting); !equalStrs(got, []string{"u", "w", "x", "z"}) {
		t.Errorf("P1 = %v, want [u w x z]", got)
	}
	if got := partitionNames(p, a, v(t, p, "a"), interesting); !equalStrs(got, []string{"a", "b", "c", "d"}) {
		t.Errorf("P2 = %v, want [a b c d]", got)
	}
	// Hierarchy edge P1 -> P2.
	p1 := a.Rep(v(t, p, "x"))
	p2 := a.Rep(v(t, p, "a"))
	succ, ok := a.PointsToPart(p1)
	if !ok || succ != p2 {
		t.Errorf("PointsToPart(P1) = %d,%v, want %d", succ, ok, p2)
	}
}

// TestHubCopiesUnify: copies into a pointer that nothing reads (a
// write-only hub) still unify the contents of both sources, so x1 and
// x2 share a partition although neither is copied into the other.
func TestHubCopiesUnify(t *testing.T) {
	p, a := analyze(t, `
		int a, b;
		int *x1, *x2, *hub;
		void main() {
			x1 = &a;
			x2 = &b;
			hub = x1;
			hub = x2;
		}
	`)
	if !a.SamePartition(v(t, p, "x1"), v(t, p, "x2")) {
		t.Error("x1 and x2 should share a partition through the hub")
	}
}

func TestUnrelatedPointersStaySeparate(t *testing.T) {
	p, a := analyze(t, `
		int a, b;
		int *x, *y;
		void main() {
			x = &a;
			y = &b;
		}
	`)
	if a.SamePartition(v(t, p, "x"), v(t, p, "y")) {
		t.Error("x and y are unrelated and must not share a partition")
	}
	if a.SamePartition(v(t, p, "a"), v(t, p, "b")) {
		t.Error("a and b are unrelated and must not share a partition")
	}
}

// TestCyclicPointsToSelfLoop checks the paper's Important Remark: `*p = p`
// puts p and *p in one partition with a self-loop, and the hierarchy stays
// acyclic (depths well-defined).
func TestCyclicPointsToSelfLoop(t *testing.T) {
	p, a := analyze(t, `
		int *p; int a;
		void main() {
			p = &a;
			*p = p;
		}
	`)
	pp, aa := v(t, p, "p"), v(t, p, "a")
	if !a.SamePartition(pp, aa) {
		t.Fatal("p and a should share a partition after *p = p")
	}
	c := a.Rep(pp)
	if !a.SelfLoop(c) {
		t.Error("partition should have a self-loop")
	}
	if _, ok := a.PointsToPart(c); ok {
		t.Error("self-loop must not appear as a hierarchy edge")
	}
}

// TestMutualCycleCollapsed: x=&y; y=&x creates a cycle between two
// partitions, which must be collapsed so the hierarchy is acyclic.
func TestMutualCycleCollapsed(t *testing.T) {
	p, a := analyze(t, `
		int *x, *y;
		void main() {
			x = &y;
			y = &x;
		}
	`)
	if !a.SamePartition(v(t, p, "x"), v(t, p, "y")) {
		t.Error("mutually pointing partitions should be collapsed into one")
	}
	assertAcyclic(t, a)
}

func assertAcyclic(t *testing.T, a *Analysis) {
	t.Helper()
	for _, part := range a.Partitions() {
		c := a.Rep(part[0])
		seen := map[int]bool{c: true}
		for {
			n, ok := a.PointsToPart(c)
			if !ok {
				break
			}
			if seen[n] {
				t.Fatalf("hierarchy cycle through partition %d", n)
			}
			seen[n] = true
			c = n
		}
	}
}

func TestDepths(t *testing.T) {
	p, a := analyze(t, `
		int a;
		int *x;
		int **px;
		int ***ppx;
		void main() {
			x = &a;
			px = &x;
			ppx = &px;
		}
	`)
	d := func(name string) int { return a.Depth(v(t, p, name)) }
	if !(d("ppx") < d("px") && d("px") < d("x") && d("x") < d("a")) {
		t.Errorf("depths not strictly increasing down the chain: ppx=%d px=%d x=%d a=%d",
			d("ppx"), d("px"), d("x"), d("a"))
	}
	if d("ppx") != 0 {
		t.Errorf("top-level pointer should have depth 0, got %d", d("ppx"))
	}
}

func TestInterproceduralUnification(t *testing.T) {
	p, a := analyze(t, `
		int g1, g2;
		int *id(int *v) { return v; }
		void main() {
			int *r1, *r2;
			r1 = id(&g1);
			r2 = id(&g2);
		}
	`)
	// Context-insensitive unification conflates both calls: r1, r2, v and
	// the return all share a partition; g1 and g2 get unified.
	if !a.SamePartition(v(t, p, "main.r1"), v(t, p, "main.r2")) {
		t.Error("r1 and r2 should share a partition (context-insensitive)")
	}
	if !a.SamePartition(v(t, p, "g1"), v(t, p, "g2")) {
		t.Error("g1 and g2 should be unified through id")
	}
}

func TestFunctionPointerTargets(t *testing.T) {
	p, a := analyze(t, `
		void *fp;
		int g;
		int *f1(int *a) { return a; }
		int *f2(int *a) { return a; }
		int *other(int *a) { return a; }
		void main() {
			int *x;
			if (*) { fp = &f1; } else { fp = &f2; }
			x = (*fp)(&g);
		}
	`)
	got := map[string]bool{}
	for _, f := range a.Targets(v(t, p, "fp")) {
		got[p.Func(f).Name] = true
	}
	if !got["f1"] || !got["f2"] {
		t.Errorf("targets = %v, want f1 and f2", got)
	}
	if got["other"] {
		t.Error("other's address is never taken; must not be a target")
	}
	// The indirect call binds x with the returns of f1/f2, which return
	// their parameter — bound to &g. So x may point to g.
	ptsHasG := false
	for _, o := range a.PointsToVars(v(t, p, "main.x")) {
		if p.VarName(o) == "g" {
			ptsHasG = true
		}
	}
	if !ptsHasG {
		t.Error("call result should point to g through the signature binding")
	}
	if !a.Higher(v(t, p, "main.x"), v(t, p, "g")) {
		t.Error("x should sit one level above g in the hierarchy")
	}
}

func TestLoadStore(t *testing.T) {
	p, a := analyze(t, `
		int a, b;
		int *x, *y, *l;
		int **px;
		void main() {
			x = &a;
			y = &b;
			px = &x;
			l = *px;
			*px = y;
		}
	`)
	// l = *px reads x's value; *px = y writes y's value into x's cell:
	// contents of l, x, y all unified.
	if !a.SamePartition(v(t, p, "l"), v(t, p, "x")) || !a.SamePartition(v(t, p, "x"), v(t, p, "y")) {
		t.Error("load/store through px should unify contents of l, x, y")
	}
}

func TestPartitionsCoverAllVars(t *testing.T) {
	p, a := analyze(t, `
		int a, b; int *x, *y; int **px;
		void f(int *q) { x = q; }
		void main() { x = &a; y = &b; px = &x; f(y); }
	`)
	seen := map[ir.VarID]bool{}
	total := 0
	for _, part := range a.Partitions() {
		for _, m := range part {
			if seen[m] {
				t.Fatalf("variable %s appears in two partitions", p.VarName(m))
			}
			seen[m] = true
			total++
		}
	}
	if total != p.NumVars() {
		t.Errorf("partitions cover %d vars, want %d", total, p.NumVars())
	}
	if a.NumPartitions() == 0 || a.MaxPartitionSize() == 0 {
		t.Error("partition stats should be positive")
	}
}

// TestRandomProgramInvariants checks structural invariants on random
// programs: the hierarchy is acyclic (well-defined depths), partitions are
// a disjoint total cover, and the partition edge agrees with the
// content-class relation.
func TestRandomProgramInvariants(t *testing.T) {
	cfg := synth.DefaultRandomConfig()
	cfg.Recursion = true
	cfg.Funcs = 3
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := synth.RandomSource(rng, cfg)
		p, err := frontend.LowerSource(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a := Analyze(p)
		assertAcyclic(t, a)
		if t.Failed() {
			t.Fatalf("seed %d: cyclic hierarchy\n%s", seed, src)
		}
		// Disjoint total cover.
		seen := map[ir.VarID]bool{}
		for _, part := range a.Partitions() {
			for _, m := range part {
				if seen[m] {
					t.Fatalf("seed %d: %s in two partitions", seed, p.VarName(m))
				}
				seen[m] = true
			}
		}
		if len(seen) != p.NumVars() {
			t.Fatalf("seed %d: cover has %d of %d vars", seed, len(seen), p.NumVars())
		}
		// Same partition <=> same content class; depth consistent with
		// the edge relation.
		for v := 0; v < p.NumVars(); v++ {
			for w := v + 1; w < p.NumVars(); w++ {
				vi, wi := ir.VarID(v), ir.VarID(w)
				if a.SamePartition(vi, wi) != (a.ContentClass(vi) == a.ContentClass(wi)) {
					t.Fatalf("seed %d: partition/content-class disagreement for %s,%s",
						seed, p.VarName(vi), p.VarName(wi))
				}
			}
		}
		for _, part := range a.Partitions() {
			c := a.Rep(part[0])
			if succ, ok := a.PointsToPart(c); ok {
				if a.PartDepth(succ) <= a.PartDepth(c) {
					t.Fatalf("seed %d: depth not increasing along edge %d->%d", seed, c, succ)
				}
			}
		}
	}
}

// TestPointsToVarsConsistent: o ∈ PointsToVars(q) iff LocClass(o) ==
// ContentClass(q).
func TestPointsToVarsConsistent(t *testing.T) {
	cfg := synth.DefaultRandomConfig()
	rng := rand.New(rand.NewSource(42))
	src := synth.RandomSource(rng, cfg)
	p, err := frontend.LowerSource(src)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(p)
	for q := 0; q < p.NumVars(); q++ {
		got := map[ir.VarID]bool{}
		for _, o := range a.PointsToVars(ir.VarID(q)) {
			got[o] = true
		}
		for o := 0; o < p.NumVars(); o++ {
			want := a.LocClass(ir.VarID(o)) == a.ContentClass(ir.VarID(q))
			if got[ir.VarID(o)] != want {
				t.Fatalf("PointsToVars(%s) disagreement on %s", p.VarName(ir.VarID(q)), p.VarName(ir.VarID(o)))
			}
		}
	}
}

func TestDot(t *testing.T) {
	p, a := analyze(t, `
		int a; int *x; int *p;
		void main() { x = &a; p = &a; *p = p; }
	`)
	_ = p
	dot := a.Dot(3)
	for _, want := range []string{"digraph steensgaard", "depth", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot missing %q:\n%s", want, dot)
		}
	}
	if !strings.Contains(dot, "style=dashed") {
		t.Errorf("self-loop arc missing:\n%s", dot)
	}
}

// TestSoundRandom checks Steensgaard against two sound references on
// random programs: Andersen's sets (a refinement) are contained in
// PointsToVars pointwise, and at every node every exact pointee is in
// PointsToVars and every exact alias pair shares a partition. The
// generator is wider than the default: with four pointers and many
// copies every program unifies into a few partitions, and a dropped
// load or store join goes unseen.
func TestSoundRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	cfg := synth.DefaultRandomConfig()
	cfg.Funcs = 3
	cfg.Recursion = true
	cfg.Ptrs, cfg.PtrPtrs, cfg.Objects = 10, 4, 8
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := synth.RandomSource(rng, cfg)
		p, err := frontend.LowerSource(src)
		if err != nil {
			t.Fatal(err)
		}
		a := Analyze(p)
		pts := make([]map[ir.VarID]bool, p.NumVars())
		for v := range pts {
			pts[v] = map[ir.VarID]bool{}
			for _, o := range a.PointsToVars(ir.VarID(v)) {
				pts[v][o] = true
			}
		}

		an := andersen.Analyze(p)
		for v := 0; v < p.NumVars(); v++ {
			pv := ir.VarID(v)
			for _, o := range an.PointsTo(pv) {
				if !pts[v][o] {
					t.Fatalf("seed %d: UNSOUND: Andersen has %s -> %s, Steensgaard misses it\nprogram:\n%s",
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
					if !pts[i][o] {
						t.Fatalf("seed %d: UNSOUND: %s -> %s at L%d (exact) missed\nprogram:\n%s",
							seed, p.VarName(pi), p.VarName(o), loc, src)
					}
				}
				for j := i + 1; j < p.NumVars(); j++ {
					pj := ir.VarID(j)
					if r.MayAlias(pi, pj, loc) && !a.SamePartition(pi, pj) {
						t.Fatalf("seed %d: UNSOUND partitioning: %s and %s alias at L%d but share no partition\nprogram:\n%s",
							seed, p.VarName(pi), p.VarName(pj), loc, src)
					}
				}
			}
		}
	}
}
