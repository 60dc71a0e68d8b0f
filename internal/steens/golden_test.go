package steens_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/result_golden.txt from the current analysis")

const resultGoldenFile = "testdata/result_golden.txt"

// goldenRows are the Table 1 rows the result golden pins, next to
// testdata/driver.cpl and shapesSrc.
var goldenRows = []string{"sock", "autofs", "raid", "mt_daapd"}

// shapesSrc holds the shapes the synthetic rows lack at a small scale:
// a self-loop (*p = p), a mutual cycle the hierarchy collapses (x = &y;
// y = &x), a three-level chain and a write-only hub for precise mode.
const shapesSrc = `
	int a, b, c;
	int *p, *x, *y, *hub, *s1, *s2;
	int **px; int ***ppx;
	void main() {
		p = &a;
		*p = p;
		x = &y;
		y = &x;
		s1 = &b;
		s2 = &c;
		hub = s1;
		hub = s2;
		px = &s1;
		ppx = &px;
	}
`

const goldenScale = 0.05

// renderResult writes a's whole partition-level result by name: one
// line per partition (canonical member, depth, pointee partition,
// self-loop flag, members), then one per variable (PointsToVars,
// PartitionOf, Depth and the number of SinkClasses). A member list is
// spelled out the first time it appears and named by its number after
// that, so partitions shared by many variables cost one line each.
func renderResult(b *strings.Builder, p *ir.Program, a *steens.Analysis) {
	lists := map[string]int{}
	list := func(vs []ir.VarID) string {
		names := make([]string, len(vs))
		for i, v := range vs {
			names[i] = p.VarName(v)
		}
		s := "{" + strings.Join(names, " ") + "}"
		if id, ok := lists[s]; ok {
			return fmt.Sprintf("L%d", id)
		}
		lists[s] = len(lists)
		return fmt.Sprintf("L%d=%s", len(lists)-1, s)
	}
	part := func(c int) string { return p.VarName(ir.VarID(c)) }
	st := a.Stats()
	fmt.Fprintf(b, "stats unions=%d partitions=%d max=%d deferred=%d\n",
		st.Unions, st.Partitions, st.MaxPartition, st.Deferred)
	// Partition ids are the variables that are their own Rep, in the
	// order Partitions lists their member lists.
	var ids []int
	for v := 0; v < p.NumVars(); v++ {
		if a.Rep(ir.VarID(v)) == v {
			ids = append(ids, v)
		}
	}
	parts := a.Partitions()
	if len(parts) != len(ids) {
		fmt.Fprintf(b, "MISMATCH %d partitions, %d ids\n", len(parts), len(ids))
	}
	for i, c := range ids {
		succ := "-"
		if t, ok := a.PointsToPart(c); ok {
			succ = part(t)
		}
		fmt.Fprintf(b, "part %s depth=%d succ=%s self=%v members=%s\n",
			part(c), a.PartDepth(c), succ, a.SelfLoop(c), list(parts[i]))
	}
	for v := 0; v < p.NumVars(); v++ {
		id := ir.VarID(v)
		fmt.Fprintf(b, "var %s part=%s pts=%s of=%s depth=%d sinks=%d\n",
			p.VarName(id), part(a.Rep(id)), list(a.PointsToVars(id)),
			list(a.PartitionOf(id)), a.Depth(id), len(a.SinkClasses(id)))
	}
}

// goldenResults renders every golden program under both modes.
func goldenResults(t *testing.T) string {
	t.Helper()
	type program struct {
		name string
		src  string
	}
	driver, err := os.ReadFile("../../testdata/driver.cpl")
	if err != nil {
		t.Fatal(err)
	}
	progs := []program{{"driver.cpl", string(driver)}, {"shapes", shapesSrc}}
	for _, name := range goldenRows {
		row, ok := synth.FindBenchmark(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		progs = append(progs, program{fmt.Sprintf("%s@%g", name, goldenScale), synth.Generate(row, goldenScale)})
	}
	var b strings.Builder
	for _, pr := range progs {
		p, err := frontend.LowerSource(pr.src)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		for _, mode := range []struct {
			name string
			opts []steens.Option
		}{{"default", nil}, {"precise", []steens.Option{steens.Precise()}}} {
			fmt.Fprintf(&b, "== %s %s\n", pr.name, mode.name)
			renderResult(&b, p, steens.Analyze(p, mode.opts...))
		}
	}
	return b.String()
}

// TestResultGolden pins Steensgaard's whole result, in both modes, on
// driver.cpl, shapesSrc and four small Table 1 rows: every partition's members,
// depth, pointee and self-loop flag, and every variable's points-to
// set, partition and depth. The file was written before the analysis
// moved its partition-level structures from maps to arrays, and the
// array version matched it byte for byte. Rewrite it with -update only
// for a change meant to alter Steensgaard's answers.
func TestResultGolden(t *testing.T) {
	got := goldenResults(t)
	if *update {
		if err := os.WriteFile(resultGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(resultGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", resultGoldenFile, i+1, g, w)
		}
	}
}

// TestAccessorsOutOfRange: the partition accessors take plain ints, and
// an id that is out of range or is not a partition id answers as an
// absent partition: no pointee, no self-loop, depth 0.
func TestAccessorsOutOfRange(t *testing.T) {
	p := lower(t, `
		int a; int *x, *y; int **pp;
		void main() { x = &a; y = x; pp = &x; *pp = y; }
	`)
	for _, a := range []*steens.Analysis{steens.Analyze(p), steens.Analyze(p, steens.Precise())} {
		nonPart := -1
		for v := 0; v < p.NumVars(); v++ {
			if a.Rep(ir.VarID(v)) != v {
				nonPart = v
				break
			}
		}
		if nonPart < 0 {
			t.Fatal("every variable is its own partition; the program needs a shared one")
		}
		for _, c := range []int{-1, -1 << 20, p.NumVars(), p.NumVars() + 7, 1 << 30, nonPart} {
			if t2, ok := a.PointsToPart(c); ok || t2 != 0 {
				t.Errorf("PointsToPart(%d) = %d, %v; want 0, false", c, t2, ok)
			}
			if a.SelfLoop(c) {
				t.Errorf("SelfLoop(%d) = true", c)
			}
			if d := a.PartDepth(c); d != 0 {
				t.Errorf("PartDepth(%d) = %d, want 0", c, d)
			}
		}
	}
}
