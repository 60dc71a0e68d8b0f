package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	_ "embed"

	"bootstrap/internal/andersen"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/synth"
)

// The benchmark's one input program: the Table-1 autofs row at paper
// scale. Its Steensgaard max partition (125) is above the Andersen
// threshold (60), so all three cascade stages run, and its cold analysis
// stays under a second on a 2-CPU box.
const (
	row   = "autofs"
	scale = 1.0

	// programClusters is the program's cover size; an analysis that
	// reports another cover ran the wrong cascade.
	programClusters = 1205

	// defaultSeed's sampled answers are compared with golden.
	defaultSeed    = 0
	sampledAnswers = 128
	queryPoolSize  = 1024
)

// golden holds the default seed's sampled answers, written with pointer
// and object names so that a change of cache keys or ids cannot move it.
// It is the check that catches an FSCS change dropping facts.
//
//go:embed golden_seed0.txt
var golden string

// analysisConfig is the configuration of every workload. Mode is set
// explicitly: the zero core.Config runs ModeNone (one cluster holding
// every pointer) although Config.Mode's doc comment says the default is
// ModeAndersen, and serve.New passes the mode through unchanged.
func analysisConfig() core.Config {
	return core.Config{Mode: core.ModeAndersen}
}

// source generates the program. It is the same for every seed: the seed
// draws the ops (edits, queries) and the sampled answers. Programs
// generated from a salted row name differ in analysis cost by up to a
// quarter, which would make the seed-to-seed spread of every time
// measure the programs rather than the code (see README.md).
func source() string {
	b, ok := synth.FindBenchmark(row)
	if !ok {
		panic("synth: no Table-1 row " + row)
	}
	return synth.Generate(b, scale)
}

// query is one alias question: points-to of P, or may-alias of P and Q
// when Q is set, at the exit of function At.
type query struct {
	P, Q, At string
}

func (q query) String() string {
	if q.Q == "" {
		return fmt.Sprintf("pts %s @ %s", q.P, q.At)
	}
	return fmt.Sprintf("alias %s %s @ %s", q.P, q.Q, q.At)
}

// answer is a query's result in names: the sorted points-to set, or the
// may-alias verdict. Precise is reported, not compared: imprecision by
// structure is not a failure.
type answer struct {
	Objs    []string
	Alias   bool
	Precise bool
}

func (a answer) String() string {
	if a.Objs != nil {
		return strings.Join(a.Objs, " ")
	}
	return fmt.Sprint(a.Alias)
}

func sameAnswer(a, b answer) bool {
	if len(a.Objs) != len(b.Objs) || a.Alias != b.Alias {
		return false
	}
	for i := range a.Objs {
		if a.Objs[i] != b.Objs[i] {
			return false
		}
	}
	return true
}

// queryFunc picks the function whose exit a query on v asks about: its
// owner for a local, a seeded function for a global.
func queryFunc(prog *ir.Program, v ir.VarID, rng *rand.Rand) string {
	if fn := prog.Var(v).Fn; fn != ir.NoFunc {
		return prog.Func(fn).Name
	}
	return prog.Funcs[rng.Intn(len(prog.Funcs))].Name
}

// sampleQueries draws n points-to queries over covered pointers. The
// same seed and program give the same sample.
func sampleQueries(a *core.Analysis, seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ptrs := a.CoveredPointers()
	out := make([]query, 0, n)
	for i := 0; i < n; i++ {
		v := ptrs[rng.Intn(len(ptrs))]
		out = append(out, query{P: a.Prog.VarName(v), At: queryFunc(a.Prog, v, rng)})
	}
	return out
}

// queryPool draws the query workload's seeded mix: half points-to, half
// may-alias of two pointers of one cluster, at seeded function exits.
func queryPool(a *core.Analysis, seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	ptrs := a.CoveredPointers()
	out := make([]query, 0, n)
	for len(out) < n {
		v := ptrs[rng.Intn(len(ptrs))]
		q := query{P: a.Prog.VarName(v), At: queryFunc(a.Prog, v, rng)}
		if rng.Intn(2) == 0 {
			ids := a.ClustersOf(v)
			members := a.Clusters[ids[rng.Intn(len(ids))]].Pointers
			if len(members) < 2 {
				continue
			}
			w := members[rng.Intn(len(members))]
			if w == v {
				continue
			}
			q.Q = a.Prog.VarName(w)
		}
		out = append(out, q)
	}
	return out
}

// ask evaluates q on a through the context-first query API the server
// uses, so eager, warm and served answers are comparable.
func ask(a *core.Analysis, q query) (answer, error) {
	p, ok := a.Prog.VarByName[q.P]
	if !ok {
		return answer{}, fmt.Errorf("%s: unknown pointer", q)
	}
	fn, ok := a.Prog.FuncByName[q.At]
	if !ok {
		return answer{}, fmt.Errorf("%s: unknown function", q)
	}
	loc := a.Prog.Func(fn).Exit
	ctx := context.Background()
	if q.Q == "" {
		objs, precise := a.PointsToContext(ctx, p, loc)
		names := make([]string, len(objs))
		for i, o := range objs {
			names[i] = a.Prog.VarName(o)
		}
		sort.Strings(names)
		return answer{Objs: names, Precise: precise}, nil
	}
	w, ok := a.Prog.VarByName[q.Q]
	if !ok {
		return answer{}, fmt.Errorf("%s: unknown pointer", q)
	}
	alias, precise := a.MayAliasContext(ctx, p, w, loc)
	return answer{Alias: alias, Precise: precise}, nil
}

func askAll(a *core.Analysis, qs []query) ([]answer, error) {
	out := make([]answer, len(qs))
	for i, q := range qs {
		ans, err := ask(a, q)
		if err != nil {
			return nil, err
		}
		out[i] = ans
	}
	return out, nil
}

// digest renders sampled answers one per line, the form golden is kept
// in.
func digest(qs []query, ans []answer) string {
	var sb strings.Builder
	for i, q := range qs {
		fmt.Fprintf(&sb, "%s: %s\n", q, ans[i])
	}
	return sb.String()
}

// flowInsensitive is an independently run Andersen analysis of a fresh
// lowering of the source: every FSCS answer must be a subset of it.
type flowInsensitive struct {
	prog *ir.Program
	a    *andersen.Analysis
}

func newFlowInsensitive(src string) (*flowInsensitive, error) {
	prog, err := frontend.LowerSource(src)
	if err != nil {
		return nil, fmt.Errorf("lower for andersen reference: %w", err)
	}
	return &flowInsensitive{prog: prog, a: andersen.Analyze(prog)}, nil
}

func flowInsensitiveOf(prog *ir.Program) *flowInsensitive {
	return &flowInsensitive{prog: prog, a: andersen.Analyze(prog)}
}

// within reports an error unless ans is contained in the Andersen
// answer to q.
func (fi *flowInsensitive) within(q query, ans answer) error {
	p, ok := fi.prog.VarByName[q.P]
	if !ok {
		return fmt.Errorf("%s: pointer unknown to the andersen reference", q)
	}
	if q.Q != "" {
		w, ok := fi.prog.VarByName[q.Q]
		if !ok {
			return fmt.Errorf("%s: pointer unknown to the andersen reference", q)
		}
		if ans.Alias && !fi.a.MayAlias(p, w) {
			return fmt.Errorf("%s: may-alias true, andersen says no", q)
		}
		return nil
	}
	allowed := map[string]bool{}
	for _, o := range fi.a.PointsTo(p) {
		allowed[fi.prog.VarName(o)] = true
	}
	for _, o := range ans.Objs {
		if !allowed[o] {
			return fmt.Errorf("%s: %s is not in the andersen points-to set", q, o)
		}
	}
	return nil
}

// reference is what every op of a workload is checked against: the
// sampled queries, their answers from an eager analysis, and the
// Andersen bound.
type reference struct {
	queries []query
	answers []answer
	fi      *flowInsensitive
}

// newReference samples and answers queries on an eager analysis a of
// src and checks the cover size, the answers against the Andersen bound
// and, for the default seed, the golden digest.
func newReference(a *core.Analysis, src string, seed int64) (*reference, error) {
	fi, err := newFlowInsensitive(src)
	if err != nil {
		return nil, err
	}
	qs := sampleQueries(a, seed, sampledAnswers)
	ans, err := askAll(a, qs)
	if err != nil {
		return nil, err
	}
	for i, q := range qs {
		if err := fi.within(q, ans[i]); err != nil {
			return nil, err
		}
	}
	if len(a.Clusters) != programClusters {
		return nil, fmt.Errorf("%d clusters, want %d", len(a.Clusters), programClusters)
	}
	if seed == defaultSeed {
		if got := digest(qs, ans); got != golden {
			return nil, fmt.Errorf("default seed: sampled answers differ from golden_seed0.txt in %d of %d lines",
				diffLines(got, golden), len(qs))
		}
	}
	return &reference{queries: qs, answers: ans, fi: fi}, nil
}

func diffLines(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := max(len(al), len(bl))
	d := 0
	for i := 0; i < n; i++ {
		if i >= len(al) || i >= len(bl) || al[i] != bl[i] {
			d++
		}
	}
	return d
}

// checkAnalysis fails an eager cold or warm op: a demoted cluster, a
// different cover, or a sampled answer that differs from the reference.
func (r *reference) checkAnalysis(a *core.Analysis) error {
	for _, h := range a.Health {
		if h.Demoted {
			return fmt.Errorf("cluster %d demoted (%s)", h.ClusterID, h.Status)
		}
	}
	if len(a.Clusters) != programClusters {
		return fmt.Errorf("%d clusters, want %d", len(a.Clusters), programClusters)
	}
	for i, q := range r.queries {
		ans, err := ask(a, q)
		if err != nil {
			return err
		}
		if !sameAnswer(ans, r.answers[i]) {
			return fmt.Errorf("%s: got %q, reference %q", q, ans, r.answers[i])
		}
	}
	return nil
}
