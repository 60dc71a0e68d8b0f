// Package bootstrap is a from-scratch Go reproduction of
//
//	Vineet Kahlon, "Bootstrapping: A Technique for Scalable Flow and
//	Context-Sensitive Pointer Alias Analysis", PLDI 2008.
//
// The library analyzes programs written in CPL, a small C-like pointer
// language (internal/cpl, internal/frontend), through a cascade of
// increasingly precise pointer analyses, each bootstrapped by the previous
// one:
//
//	Steensgaard partitioning  ->  [One-Flow]  ->  Andersen clustering
//	        -> per-cluster summarization-based flow- and
//	           context-sensitive may-alias analysis (FSCS)
//
// The public facade is internal/core: parse and analyze with
// core.AnalyzeSource, then query MayAlias / MustAlias / Aliases / PointsTo.
// The paper's evaluation artifacts are regenerated by cmd/benchtab
// (Table 1; Figure 1 with -figure1; the threshold sweep with -sweep),
// which runs core's cascade once per column, and by the benchmarks in
// bench_test.go; examples/figures reproduces the illustrative Figures 2–5.
//
// See DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for paper-vs-measured results.
package bootstrap
