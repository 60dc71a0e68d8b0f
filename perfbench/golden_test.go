package main

import (
	"flag"
	"os"
	"testing"

	"bootstrap/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden_seed0.txt from the current analysis")

// TestGolden checks the default seed's sampled answers against the
// committed digest; -update rewrites it.
func TestGolden(t *testing.T) {
	src := source()
	a, err := core.AnalyzeSource(src, analysisConfig())
	if err != nil {
		t.Fatal(err)
	}
	qs := sampleQueries(a, defaultSeed, sampledAnswers)
	ans, err := askAll(a, qs)
	if err != nil {
		t.Fatal(err)
	}
	got := digest(qs, ans)
	if *update {
		if err := os.WriteFile("golden_seed0.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got != golden {
		t.Fatalf("sampled answers differ from golden_seed0.txt in %d lines", diffLines(got, golden))
	}
}
