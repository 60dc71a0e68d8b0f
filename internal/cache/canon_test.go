package cache

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
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

// keyFront runs what core's cascade runs before keying p's clusters:
// Steensgaard, devirtualization, re-analysis, the call graph and the
// default-threshold Andersen cover.
func keyFront(t *testing.T, p *ir.Program) (*steens.Analysis, *callgraph.Graph, []*cluster.Cluster) {
	t.Helper()
	sa := steens.Analyze(p)
	if frontend.HasIndirectCalls(p) {
		if err := frontend.Devirtualize(p, func(_ ir.Loc, fp ir.VarID) []ir.FuncID { return sa.Targets(fp) }); err != nil {
			t.Fatal(err)
		}
		sa = steens.Analyze(p)
	}
	return sa, callgraph.Build(p), cluster.BuildAndersen(p, sa, cluster.DefaultAndersenThreshold)
}

// keyLines fingerprints every cluster of p's Andersen cover. Each line
// keeps the golden's "default" mode column from when Steensgaard had two
// modes.
func keyLines(t *testing.T, name string, p *ir.Program) []string {
	t.Helper()
	sa, cg, cover := keyFront(t, p)
	var out []string
	for _, c := range cover {
		cn := NewCanon(p, sa, cg, c, Params{MaxCond: 8})
		out = append(out, fmt.Sprintf("%s default %d %s", name, c.ID, cn.Key()))
	}
	return out
}

// TestTableSharedMatchesNewCanon keys every cluster of the key-golden
// programs through one Table that four goroutines fill at once, as an
// analysis' workers do, each starting at a different cluster so that
// they race on the same functions' slots; every key must equal the
// per-call NewCanon key.
func TestTableSharedMatchesNewCanon(t *testing.T) {
	const workers = 4
	params := Params{MaxCond: 8}
	for _, kp := range keyPrograms {
		p := kp.lower(t)
		sa, cg, cover := keyFront(t, p)
		tab := NewTable(p, sa, cg)
		got := make([][]Key, workers)
		var wg sync.WaitGroup
		for w := range got {
			got[w] = make([]Key, len(cover))
			wg.Add(1)
			go func(keys []Key, start int) {
				defer wg.Done()
				for i := range cover {
					j := (start + i) % len(cover)
					keys[j] = tab.Canon(cover[j], params).Key()
				}
			}(got[w], w*len(cover)/workers)
		}
		wg.Wait()
		for i, c := range cover {
			want := NewCanon(p, sa, cg, c, params).Key()
			for w := range got {
				if got[w][i] != want {
					t.Errorf("%s cluster %d, goroutine %d: shared-table key %s, NewCanon %s", kp.name, c.ID, w, got[w][i], want)
				}
			}
		}
	}
}

// TestCanonKeysGolden pins the cache key of every cluster of three
// programs. A key that moves flushes every cache entry built under it,
// so the canonical encoding may change only together with
// encodingVersion and a rewritten golden (-update).
func TestCanonKeysGolden(t *testing.T) {
	var got []string
	for _, kp := range keyPrograms {
		got = append(got, keyLines(t, kp.name, kp.lower(t))...)
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

// callerClosure is F*: fs closed under callers in cg.
func callerClosure(cg *callgraph.Graph, fs []ir.FuncID) map[ir.FuncID]bool {
	in := map[ir.FuncID]bool{}
	work := append([]ir.FuncID(nil), fs...)
	for _, f := range work {
		in[f] = true
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		for _, g := range cg.Callers(f) {
			if !in[g] {
				in[g] = true
				work = append(work, g)
			}
		}
	}
	return in
}

// TestCanonKeySensitivity mutates one thing at a time in a clone of
// autofs@0.12 and checks that a cluster's key moves exactly when its
// walk can see the mutation: control flow (an edge added or
// redirected), calls and assumes anywhere in F* count, even at nodes
// the cluster's statements do not name, while functions outside F* and
// statements outside St_P do not. The
// Steensgaard analysis and the cover stay the original program's, so
// only what the key reads off the program changes; a retargeted call
// rebuilds the call graph.
func TestCanonKeySensitivity(t *testing.T) {
	p := lowerSynth(t, "autofs", 0.12)
	sa := steens.Analyze(p)
	cg := callgraph.Build(p)
	params := Params{MaxCond: 8}
	cover := cluster.BuildAndersen(p, sa, cluster.DefaultAndersenThreshold)

	isSkip := func(fn *ir.Func, loc ir.Loc) bool {
		return p.Node(loc).Stmt.Op == ir.OpSkip && loc != fn.Entry && loc != fn.Exit
	}
	// A mutation finds a place in c for one change to a clone of p, or
	// returns nil when c offers none.
	type mutation func(c *cluster.Cluster, fstar map[ir.FuncID]bool) func(q *ir.Program)
	cases := []struct {
		name  string
		moves bool
		site  mutation
	}{
		{"extra edge between two skips of an F* function", true,
			func(c *cluster.Cluster, fstar map[ir.FuncID]bool) func(*ir.Program) {
				for _, fn := range p.Funcs {
					if !fstar[fn.ID] {
						continue
					}
					var skips []ir.Loc
					for _, loc := range fn.Nodes {
						if isSkip(fn, loc) && !c.HasStmt(loc) {
							skips = append(skips, loc)
						}
					}
					for i, a := range skips {
						for _, b := range skips[i+1:] {
							if !slices.Contains(p.Node(a).Succs, b) {
								return func(q *ir.Program) { q.AddEdge(a, b) }
							}
						}
					}
				}
				return nil
			}},
		{"skip's edge redirected to another skip of an F* function", true,
			func(c *cluster.Cluster, fstar map[ir.FuncID]bool) func(*ir.Program) {
				for _, fn := range p.Funcs {
					if !fstar[fn.ID] {
						continue
					}
					var skips []ir.Loc
					for _, loc := range fn.Nodes {
						if isSkip(fn, loc) && !c.HasStmt(loc) && len(p.Node(loc).Succs) == 1 {
							skips = append(skips, loc)
						}
					}
					for i, a := range skips {
						for _, b := range skips[i+1:] {
							if p.Node(a).Succs[0] != b {
								return func(q *ir.Program) {
									q.MutNode(a).Succs[0] = b
									nb := q.MutNode(b)
									nb.Preds = append(nb.Preds, a)
								}
							}
						}
					}
				}
				return nil
			}},
		{"call outside St_P retargeted into F*", true,
			func(c *cluster.Cluster, fstar map[ir.FuncID]bool) func(*ir.Program) {
				if len(c.Funcs) == 0 {
					return nil
				}
				for _, n := range p.Nodes {
					st := n.Stmt
					if fstar[n.Fn] && st.Op == ir.OpCall && st.Callee != ir.NoFunc &&
						!fstar[st.Callee] && !c.HasStmt(n.Loc) {
						loc := n.Loc
						return func(q *ir.Program) { q.MutNode(loc).Stmt.Callee = c.Funcs[0] }
					}
				}
				return nil
			}},
		{"assume over two V_P pointers added outside St_P", true,
			func(c *cluster.Cluster, fstar map[ir.FuncID]bool) func(*ir.Program) {
				if len(c.Vars) < 2 {
					return nil
				}
				for _, fn := range p.Funcs {
					if !fstar[fn.ID] {
						continue
					}
					for _, loc := range fn.Nodes {
						if isSkip(fn, loc) && !c.HasStmt(loc) {
							st := ir.Stmt{Op: ir.OpAssumeEq, Dst: c.Vars[0], Src: c.Vars[1],
								Callee: ir.NoFunc, FPtr: ir.NoVar}
							return func(q *ir.Program) { q.MutNode(loc).Stmt = st }
						}
					}
				}
				return nil
			}},
		{"St_P operands swapped", true,
			func(c *cluster.Cluster, _ map[ir.FuncID]bool) func(*ir.Program) {
				for i := len(c.Stmts) - 1; i >= 0; i-- {
					loc := c.Stmts[i]
					st := p.Node(loc).Stmt
					if (st.Op == ir.OpCopy || st.Op == ir.OpLoad || st.Op == ir.OpStore) &&
						st.Dst != st.Src && st.Dst != ir.NoVar && st.Src != ir.NoVar {
						return func(q *ir.Program) {
							n := q.MutNode(loc)
							n.Stmt.Dst, n.Stmt.Src = n.Stmt.Src, n.Stmt.Dst
						}
					}
				}
				return nil
			}},
		{"extra edge in a function outside F*", false,
			func(_ *cluster.Cluster, fstar map[ir.FuncID]bool) func(*ir.Program) {
				for _, fn := range p.Funcs {
					if fstar[fn.ID] || len(fn.Nodes) < 3 {
						continue
					}
					a, b := fn.Nodes[1], fn.Nodes[len(fn.Nodes)-1]
					if !slices.Contains(p.Node(a).Succs, b) {
						return func(q *ir.Program) { q.AddEdge(a, b) }
					}
				}
				return nil
			}},
		{"operand changed outside St_P", false,
			func(c *cluster.Cluster, fstar map[ir.FuncID]bool) func(*ir.Program) {
				for _, n := range p.Nodes {
					st := n.Stmt
					if fstar[n.Fn] && st.Op == ir.OpCopy && !c.HasStmt(n.Loc) && st.Dst != st.Src {
						loc := n.Loc
						return func(q *ir.Program) { n := q.MutNode(loc); n.Stmt.Src = n.Stmt.Dst }
					}
				}
				return nil
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range cover {
				mutate := tc.site(c, callerClosure(cg, c.Funcs))
				if mutate == nil {
					continue
				}
				q := p.Clone()
				mutate(q)
				before := NewCanon(p, sa, cg, c, params).Key()
				after := NewCanon(q, sa, callgraph.Build(q), c, params).Key()
				if moved := before != after; moved != tc.moves {
					t.Errorf("cluster %d: key moved = %v, want %v", c.ID, moved, tc.moves)
				}
				return
			}
			t.Fatalf("test premise broken: no cluster of autofs@0.12 offers a site")
		})
	}
}
