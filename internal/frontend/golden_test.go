package frontend

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bootstrap/internal/ir"
	"bootstrap/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/lower_golden.txt from the current lowering")

const lowerGoldenFile = "testdata/lower_golden.txt"

// shapesSrc covers what the generator families do not: nested structs
// and whole-struct copies, `.` and `->` fields, two allocation sites on
// one line, free, arithmetic between two pointers, pointer (in)equality
// conditions, function pointers with indirect calls, shadowed locals and
// returns in both arms of an if.
const shapesSrc = `
struct In { int *g; int **gg; };
struct Out { int *f; struct In in; struct In *ip; };
struct Out o1, o2;
struct In *ip;
int a, b;
int *p, *q, *r;
void *fp;
lock m;
lock *lp;

int *pick(int *x, int *y) {
	if (x == y) {
		return x;
	} else {
		return y;
	}
}

void sink(int *x) { *x = 1; }

void main() {
	int *p;
	p = malloc; q = malloc(8);
	o1.f = &a;
	o1.in.g = p;
	o1.in.gg = &o1.in.g;
	o2 = o1;
	o2.in = o1.in;
	ip = &o1.in.g;
	ip->g = q;
	r = ip->g;
	*o1.in.gg = r;
	r = p + q;
	r = p - 4;
	if (p != q) {
		int *p;
		p = *o2.in.gg;
		free(p);
	}
	while (r == null) {
		r = pick(p, q);
	}
	fp = &sink;
	(*fp)(r);
	fp = pick;
	r = (*fp)(p, q);
	lp = &m;
	lp = malloc;
	free(q);
	sink(&b);
}
`

// goldenSources lists every program the golden pins, by name, in file
// order.
func goldenSources(t testing.TB) []struct{ name, src string } {
	var out []struct{ name, src string }
	add := func(name, src string) { out = append(out, struct{ name, src string }{name, src}) }
	for _, scale := range []float64{0.05, 0.3} {
		for _, row := range synth.Table1 {
			add(fmt.Sprintf("%s@%g", row.Name, scale), synth.Generate(row, scale))
		}
	}
	autofs, _ := synth.FindBenchmark("autofs")
	add("autofs@1", synth.Generate(autofs, 1.0))
	for _, w := range synth.LockHeavyWorkloads() {
		src, _ := synth.LockHeavy(w.Cfg)
		add(w.Name, src)
	}
	for seed := int64(1); seed <= 20; seed++ {
		add(fmt.Sprintf("random%d", seed), synth.RandomSource(rand.New(rand.NewSource(seed)), synth.DefaultRandomConfig()))
	}
	driver, err := os.ReadFile("../../testdata/driver.cpl")
	if err != nil {
		t.Fatal(err)
	}
	add("driver", string(driver))
	add("shapes", shapesSrc)
	return out
}

// dumpProgram renders everything lowering decides about p: every
// variable (ID, name, kind, owner, lock flag), every node (location,
// owner, the whole statement, CallLoc, successors and predecessors in
// order), every function, and the FuncValue, VarByName and FuncByName
// maps sorted by key, then Entry.
func dumpProgram(p *ir.Program) string {
	var b strings.Builder
	locs := func(ls []ir.Loc) {
		b.WriteByte('[')
		for i, l := range ls {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(int(l)))
		}
		b.WriteByte(']')
	}
	vars := func(vs []ir.VarID) {
		b.WriteByte('[')
		for i, v := range vs {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(int(v)))
		}
		b.WriteByte(']')
	}
	for _, v := range p.Vars {
		fmt.Fprintf(&b, "var %d %q %s fn=%d lock=%t\n", v.ID, v.Name, v.Kind, v.Fn, v.IsLock)
	}
	for _, n := range p.Nodes {
		s := n.Stmt
		fmt.Fprintf(&b, "node %d fn=%d %s dst=%d src=%d callee=%d fptr=%d args=", n.Loc, n.Fn, s.Op, s.Dst, s.Src, s.Callee, s.FPtr)
		vars(s.Args)
		fmt.Fprintf(&b, " comment=%q free=%t callloc=%d succs=", s.Comment, s.Free, n.CallLoc)
		locs(n.Succs)
		b.WriteString(" preds=")
		locs(n.Preds)
		b.WriteByte('\n')
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(&b, "func %d %q params=", f.ID, f.Name)
		vars(f.Params)
		fmt.Fprintf(&b, " ret=%d entry=%d exit=%d nodes=", f.Ret, f.Entry, f.Exit)
		locs(f.Nodes)
		b.WriteByte('\n')
	}
	fns := make([]ir.FuncID, 0, len(p.FuncValue))
	for f := range p.FuncValue {
		fns = append(fns, f)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i] < fns[j] })
	for _, f := range fns {
		fmt.Fprintf(&b, "funcvalue %d %d\n", f, p.FuncValue[f])
	}
	names := make([]string, 0, len(p.VarByName))
	for name := range p.VarByName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "varbyname %q %d\n", name, p.VarByName[name])
	}
	names = names[:0]
	for name := range p.FuncByName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "funcbyname %q %d\n", name, p.FuncByName[name])
	}
	fmt.Fprintf(&b, "entry %d\n", p.Entry)
	return b.String()
}

func dumpDigest(p *ir.Program) string {
	sum := sha256.Sum256([]byte(dumpProgram(p)))
	return hex.EncodeToString(sum[:])
}

// TestLowerGolden pins the whole lowered IR of every golden program as
// one SHA-256 of dumpProgram per program: a change to the lexer, parser,
// lowerer or IR storage must leave every variable, node, edge list and
// name map byte-identical. -update rewrites testdata/lower_golden.txt,
// only for a change meant to alter lowering.
func TestLowerGolden(t *testing.T) {
	var got strings.Builder
	for _, gs := range goldenSources(t) {
		p, err := LowerSource(gs.src)
		if err != nil {
			t.Fatalf("%s: %v", gs.name, err)
		}
		fmt.Fprintf(&got, "%s %d %d %s\n", gs.name, len(p.Vars), len(p.Nodes), dumpDigest(p))
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lowerGoldenFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(lowerGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(string(want)))
	for sc.Scan() {
		if name, rest, ok := strings.Cut(sc.Text(), " "); ok {
			wantLines[name] = rest
		}
	}
	gotText := got.String()
	for _, line := range strings.Split(strings.TrimSuffix(gotText, "\n"), "\n") {
		name, rest, _ := strings.Cut(line, " ")
		if w, ok := wantLines[name]; !ok {
			t.Errorf("%s: not in %s", name, lowerGoldenFile)
		} else if w != rest {
			t.Errorf("%s: lowered IR changed: got %s, want %s", name, rest, w)
		}
	}
	if gotText != string(want) {
		if !t.Failed() {
			t.Errorf("%s lists programs the golden set does not: got\n%s", lowerGoldenFile, gotText)
		}
	}
}
