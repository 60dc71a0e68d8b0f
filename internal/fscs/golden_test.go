package fscs

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bootstrap/internal/andersen"
	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current engine")

const (
	exitGoldenFile = "testdata/exit_golden.txt"
	workGoldenFile = "testdata/work_golden.txt"
)

// goldenRows are the Table 1 rows both goldens pin.
var goldenRows = []struct {
	name  string
	scale float64
}{{"sock", 0.05}, {"ctrace", 0.05}}

// goldenRun runs one engine per cluster of the workload's Andersen cover
// (threshold 8). exit renders every cluster pointer's points-to set at
// the program's exit, one line per (cluster, pointer), by name; work
// renders each cluster's work counters after Run and the exit queries,
// one line per cluster.
func goldenRun(t *testing.T, name string, scale float64) (exit, work string) {
	t.Helper()
	b, ok := synth.FindBenchmark(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	prog, err := frontend.LowerSource(synth.Generate(b, scale))
	if err != nil {
		t.Fatal(err)
	}
	sa := steens.Analyze(prog)
	cg := callgraph.Build(prog)
	exitLoc := prog.Func(prog.Entry).Exit
	var eb, wb strings.Builder
	for _, c := range cluster.BuildAndersen(prog, sa, 8) {
		eng := NewEngine(prog, cg, sa, c)
		if err := eng.Run(); err != nil {
			t.Fatalf("%s cluster %d: %v", name, c.ID, err)
		}
		for _, p := range c.Pointers {
			objs, ok := eng.PointsToAt(p, exitLoc)
			names := make([]string, len(objs))
			for i, o := range objs {
				names[i] = prog.VarName(o)
			}
			fmt.Fprintf(&eb, "%s c%d %s = {%s}", name, c.ID, prog.VarName(p), strings.Join(names, " "))
			if !ok {
				eb.WriteString(" unknown")
			}
			eb.WriteByte('\n')
		}
		fmt.Fprintf(&wb, "%s c%d tuples=%d summaries=%d conds=%d\n",
			name, c.ID, eng.TuplesProcessed, eng.SummariesBuilt, eng.CondsInterned())
	}
	return eb.String(), wb.String()
}

// goldenAll runs goldenRun over every golden row.
func goldenAll(t *testing.T) (exit, work string) {
	t.Helper()
	for _, r := range goldenRows {
		e, w := goldenRun(t, r.name, r.scale)
		exit += e
		work += w
	}
	return exit, work
}

// checkGolden compares got with file line by line, or rewrites file
// under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
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
			t.Fatalf("%s line %d:\n got  %q\n want %q", file, i+1, g, w)
		}
	}
}

// TestExitGolden pins the engine's answers on two small Table 1 rows:
// the exit points-to set of every pointer in every cluster of their
// Andersen covers. The file was generated from the pre-interning engine
// and the interned engine agreed with it line for line, so a change here
// is a change in what FSCS computes. Soundness is exact's lattice tests'
// job; this test catches any drift. -update rewrites the file.
func TestExitGolden(t *testing.T) {
	exit, _ := goldenAll(t)
	checkGolden(t, exitGoldenFile, exit)
}

// TestWorkGolden pins the work behind TestExitGolden's answers: each
// cluster's charged worklist tuples, built summaries and interned
// conditions. A change to the walk's data layout must leave every line
// unchanged; only a change to what the walk visits may move it.
// -update rewrites the file.
func TestWorkGolden(t *testing.T) {
	_, work := goldenAll(t)
	checkGolden(t, workGoldenFile, work)
}

const stateGoldenFile = "testdata/state_golden.txt"

// stateCases are the covers TestStateGolden pins: TestExitGolden's rows
// as goldenRun builds them, autofs@0.3's default Andersen cover, and
// driver.cpl's at thresholds 8 and 2, the last three devirtualized as
// core's cascade does.
var stateCases = []struct {
	name      string
	src       func(t *testing.T) string
	threshold int
	devirt    bool
}{
	{"sock@0.05", synthSource("sock", 0.05), 8, false},
	{"ctrace@0.05", synthSource("ctrace", 0.05), 8, false},
	{"autofs@0.3", synthSource("autofs", 0.3), cluster.DefaultAndersenThreshold, true},
	{"driver/8", driverSource, 8, true},
	{"driver/2", driverSource, 2, true},
}

func synthSource(name string, scale float64) func(t *testing.T) string {
	return func(t *testing.T) string {
		b, ok := synth.FindBenchmark(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		return synth.Generate(b, scale)
	}
}

func driverSource(t *testing.T) string {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "driver.cpl"))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// stateDigests solves every cluster of every state case and renders the
// SHA-256 of its ExportState payload, one line per cluster. The two work
// counters at the payload's end are zeroed first: they measure the walk,
// not its answers.
func stateDigests(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, sc := range stateCases {
		prog, err := frontend.LowerSource(sc.src(t))
		if err != nil {
			t.Fatal(err)
		}
		sa := steens.Analyze(prog)
		if sc.devirt && frontend.HasIndirectCalls(prog) {
			if err := frontend.Devirtualize(prog, func(_ ir.Loc, fp ir.VarID) []ir.FuncID { return sa.Targets(fp) }); err != nil {
				t.Fatal(err)
			}
			sa = steens.Analyze(prog)
		}
		cg := callgraph.Build(prog)
		fb := andersen.Analyze(prog)
		for _, c := range cluster.BuildAndersen(prog, sa, sc.threshold) {
			eng := NewEngine(prog, cg, sa, c, WithFallback(fb))
			if err := eng.Run(); err != nil {
				t.Fatalf("%s cluster %d: %v", sc.name, c.ID, err)
			}
			eng.TuplesProcessed, eng.spent = 0, 0
			data, ok := eng.ExportState(cache.NewCanon(prog, sa, cg, c, cache.Params{MaxCond: 8}))
			if !ok {
				t.Fatalf("%s cluster %d: state does not export", sc.name, c.ID)
			}
			fmt.Fprintf(&sb, "%s c%d %x\n", sc.name, c.ID, sha256.Sum256(data))
		}
	}
	return sb.String()
}

// TestStateGolden pins everything a solved engine keeps, not just its
// exit answers: the exported summaries and FSCI value sets of every
// cluster of five covers, as payload digests. A change to how the walk
// gets there (which nodes it steps through, in what order) must leave
// every line unchanged. -update rewrites the file.
func TestStateGolden(t *testing.T) {
	checkGolden(t, stateGoldenFile, stateDigests(t))
}
