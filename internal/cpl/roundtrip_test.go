package cpl_test

import (
	"fmt"
	"math/rand"
	"regexp"
	"testing"

	"bootstrap/internal/cpl"
	"bootstrap/internal/frontend"
	"bootstrap/internal/synth"
)

// allocSite matches abstract heap-object names, whose line:col component
// legitimately changes when the source is reformatted.
var allocSite = regexp.MustCompile(`alloc@[0-9]+:[0-9]+(#[0-9]+)?`)

// normalizeAllocs renames allocation sites to their order of appearance so
// dumps compare position-independently.
func normalizeAllocs(dump string) string {
	n := 0
	seen := map[string]string{}
	return allocSite.ReplaceAllStringFunc(dump, func(m string) string {
		if r, ok := seen[m]; ok {
			return r
		}
		n++
		r := fmt.Sprintf("alloc#%d", n)
		seen[m] = r
		return r
	})
}

// TestFormatSemanticRoundtrip: formatting a random program and lowering
// the result produces an IR identical to lowering the original — the
// formatter is semantics-preserving.
func TestFormatSemanticRoundtrip(t *testing.T) {
	cfg := synth.DefaultRandomConfig()
	cfg.Funcs = 3
	cfg.Recursion = true
	cfg.Locks = 1
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := synth.RandomSource(rng, cfg)
		f, err := cpl.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		formatted := cpl.Format(f)
		p1, err := frontend.LowerSource(src)
		if err != nil {
			t.Fatalf("seed %d: lower original: %v", seed, err)
		}
		p2, err := frontend.LowerSource(formatted)
		if err != nil {
			t.Fatalf("seed %d: lower formatted: %v\n%s", seed, err, formatted)
		}
		if d1, d2 := normalizeAllocs(p1.Dump()), normalizeAllocs(p2.Dump()); d1 != d2 {
			t.Fatalf("seed %d: IR differs after formatting\n--- original IR ---\n%s\n--- formatted IR ---\n%s",
				seed, d1, d2)
		}
	}
}

// TestFormatTable1Workload: the big calibrated workloads also roundtrip.
func TestFormatTable1Workload(t *testing.T) {
	b, _ := synth.FindBenchmark("ctrace")
	src := synth.Generate(b, 0.3)
	f, err := cpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	formatted := cpl.Format(f)
	p1, err := frontend.LowerSource(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := frontend.LowerSource(formatted)
	if err != nil {
		t.Fatalf("lower formatted: %v", err)
	}
	if p1.NumVars() != p2.NumVars() || len(p1.Nodes) != len(p2.Nodes) {
		t.Errorf("IR shape differs: %d/%d vars, %d/%d nodes",
			p1.NumVars(), p2.NumVars(), len(p1.Nodes), len(p2.Nodes))
	}
}

// TestLexAllocs: Lex sizes its token slice from the source length, so
// tokenizing a Table 1 program allocates the slice once instead of
// regrowing it as the stream lengthens.
func TestLexAllocs(t *testing.T) {
	b, ok := synth.FindBenchmark("autofs")
	if !ok {
		t.Fatal("no autofs row")
	}
	src := synth.Generate(b, 0.3)
	toks, err := cpl.Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := cpl.Lex(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Lex of %d bytes (%d tokens) made %.0f allocations, want at most 2", len(src), len(toks), allocs)
	}
}
