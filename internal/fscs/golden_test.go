package fscs

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/frontend"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/exit_golden.txt from the current engine")

const exitGoldenFile = "testdata/exit_golden.txt"

// exitAnswers runs one engine per cluster of the workload's Andersen
// cover (threshold 8) and renders every cluster pointer's points-to set
// at the program's exit, one line per (cluster, pointer), by name.
func exitAnswers(t *testing.T, name string, scale float64) string {
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
	exit := prog.Func(prog.Entry).Exit
	var sb strings.Builder
	for _, c := range cluster.BuildAndersen(prog, sa, 8) {
		eng := NewEngine(prog, cg, sa, c)
		if err := eng.Run(); err != nil {
			t.Fatalf("%s cluster %d: %v", name, c.ID, err)
		}
		for _, p := range c.Pointers {
			objs, ok := eng.PointsToAt(p, exit)
			names := make([]string, len(objs))
			for i, o := range objs {
				names[i] = prog.VarName(o)
			}
			fmt.Fprintf(&sb, "%s c%d %s = {%s}", name, c.ID, prog.VarName(p), strings.Join(names, " "))
			if !ok {
				sb.WriteString(" unknown")
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestExitGolden pins the engine's answers on two small Table 1 rows:
// the exit points-to set of every pointer in every cluster of their
// Andersen covers. The file was generated from the pre-interning engine
// and the interned engine agreed with it line for line, so a change here
// is a change in what FSCS computes. Soundness is exact's lattice tests'
// job; this test catches any drift. -update rewrites the file.
func TestExitGolden(t *testing.T) {
	got := exitAnswers(t, "sock", 0.05) + exitAnswers(t, "ctrace", 0.05)
	if *update {
		if err := os.WriteFile(exitGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(exitGoldenFile)
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
			t.Fatalf("%s line %d:\n got  %q\n want %q", exitGoldenFile, i+1, g, w)
		}
	}
}
