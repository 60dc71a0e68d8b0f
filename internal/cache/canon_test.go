package cache

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/keys_golden.txt from the current encoding")

const keysGolden = "testdata/keys_golden.txt"

// keyProgram is one program of the key golden: a name, and how to lower
// it (plus any edit batch applied before the Steensgaard front).
type keyProgram struct {
	name  string
	lower func(t *testing.T) *ir.Program
}

func lowerSynth(t *testing.T, row string, scale float64) *ir.Program {
	t.Helper()
	b, ok := synth.FindBenchmark(row)
	if !ok {
		t.Fatalf("no benchmark %s", row)
	}
	p, err := frontend.LowerSource(synth.Generate(b, scale))
	if err != nil {
		t.Fatalf("lower %s: %v", row, err)
	}
	return p
}

// editedAutofs is autofs@0.12 after one insert-after and one replace
// edit. The inserted node is appended to its function's node list, so
// its anchor's successor is not the anchor's next node.
func editedAutofs(t *testing.T) *ir.Program {
	t.Helper()
	p := lowerSynth(t, "autofs", 0.12)
	var eligible []ir.Loc
	for _, n := range p.Nodes {
		switch n.Stmt.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad:
			if n.CallLoc == ir.NoLoc {
				eligible = append(eligible, n.Loc)
			}
		}
	}
	anchor, target, donor := eligible[len(eligible)/3], eligible[2*len(eligible)/3], eligible[len(eligible)/2]
	ins := ir.Stmt{Op: ir.OpCopy, Dst: p.Node(anchor).Stmt.Dst, Src: p.Node(donor).Stmt.Src,
		Callee: ir.NoFunc, FPtr: ir.NoVar}
	rep := p.Node(target).Stmt
	rep.Src = p.Node(donor).Stmt.Src
	rep.Comment = ""
	if _, err := ir.ApplyEdits(p, []ir.Edit{
		{Kind: ir.EditInsertAfter, Loc: anchor, Stmt: ins},
		{Kind: ir.EditReplaceStmt, Loc: target, Stmt: rep},
	}); err != nil {
		t.Fatalf("edit autofs: %v", err)
	}
	nodes := p.Func(p.Node(anchor).Fn).Nodes
	inserted := nodes[len(nodes)-1]
	for i, loc := range nodes {
		if loc == anchor && (nodes[i+1] == inserted || p.Node(anchor).Succs[0] != inserted) {
			t.Fatalf("test premise broken: inserted L%d is not a non-adjacent successor of L%d", inserted, anchor)
		}
	}
	return p
}

var keyPrograms = []keyProgram{
	{"driver", func(t *testing.T) *ir.Program {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "driver.cpl"))
		if err != nil {
			t.Fatal(err)
		}
		p, err := frontend.LowerSource(string(src))
		if err != nil {
			t.Fatalf("lower driver: %v", err)
		}
		return p
	}},
	{"sock@0.05", func(t *testing.T) *ir.Program { return lowerSynth(t, "sock", 0.05) }},
	{"autofs@0.12+edit", editedAutofs},
}

// keyLines fingerprints every cluster of p's Andersen cover the way
// core's cascade builds it: Steensgaard, devirtualization, re-analysis,
// then the default-threshold Andersen cover and the call graph.
func keyLines(t *testing.T, name string, p *ir.Program, precise bool) []string {
	t.Helper()
	var opts []steens.Option
	mode := "default"
	if precise {
		opts, mode = []steens.Option{steens.Precise()}, "precise"
	}
	sa := steens.Analyze(p, opts...)
	if frontend.HasIndirectCalls(p) {
		if err := frontend.Devirtualize(p, func(_ ir.Loc, fp ir.VarID) []ir.FuncID { return sa.Targets(fp) }); err != nil {
			t.Fatal(err)
		}
		sa = steens.Analyze(p, opts...)
	}
	cg := callgraph.Build(p)
	var out []string
	for _, c := range cluster.BuildAndersen(p, sa, cluster.DefaultAndersenThreshold) {
		cn := NewCanon(p, sa, cg, c, Params{MaxCond: 8})
		out = append(out, fmt.Sprintf("%s %s %d %s", name, mode, c.ID, cn.Key()))
	}
	return out
}

// TestCanonKeysGolden pins the cache key of every cluster of three
// programs under both Steensgaard modes. A key that moves flushes every
// cache entry built under it, so the canonical encoding may change only
// together with encodingVersion and a rewritten golden (-update).
func TestCanonKeysGolden(t *testing.T) {
	var got []string
	for _, kp := range keyPrograms {
		for _, precise := range []bool{false, true} {
			got = append(got, keyLines(t, kp.name, kp.lower(t), precise)...)
		}
	}
	if *update {
		if err := os.WriteFile(keysGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(keysGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d keys, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("key moved:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... and %d more moved keys", bad-5)
	}
}
