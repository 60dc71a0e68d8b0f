// Quickstart: analyze a small CPL program end to end with the public
// bootstrapping API and print partitions, points-to sets and alias sets.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"bootstrap/internal/core"
	"bootstrap/internal/ir"
)

const program = `
	int a, b, c;
	int *x, *y, *p;
	int **px;

	void swap() {
		int *t;
		t = x;
		x = y;
		y = t;
	}

	void main() {
		x = &a;        // x -> a
		y = &b;        // y -> b
		p = &c;        // p -> c
		px = &x;       // px -> x
		swap();        // now x -> b, y -> a
		*px = p;       // writes through px: x = p, so x -> c
	}
`

func main() {
	// One call runs the whole cascade: Steensgaard partitioning,
	// Andersen clustering of oversized partitions, and the per-cluster
	// summarization-based flow- and context-sensitive analysis.
	analysis, err := core.AnalyzeSource(program, core.Config{
		Mode:              core.ModeAndersen,
		AndersenThreshold: 60, // the paper's empirical threshold
	})
	if err != nil {
		log.Fatal(err)
	}
	prog := analysis.Prog
	exit := prog.Func(prog.Entry).Exit // "at the end of main"

	fmt.Println("== Steensgaard partitions (disjoint alias cover) ==")
	for _, part := range analysis.Steens.Partitions() {
		if len(part) < 2 {
			continue
		}
		fmt.Printf("  {%s}\n", names(prog, part))
	}

	fmt.Printf("\n== Alias cover: %d clusters ==\n", len(analysis.Clusters))
	for _, c := range analysis.Clusters {
		fmt.Printf("  %v\n", c)
	}

	// Every query takes a context first: a deadline on it degrades the
	// answer to the flow-insensitive fallback (flagged imprecise)
	// instead of waiting for a cluster to solve.
	ctx := context.Background()
	fmt.Println("\n== Flow-sensitive points-to at the end of main ==")
	for _, name := range []string{"x", "y", "p"} {
		v := prog.VarByName[name]
		objs, precise := analysis.PointsToContext(ctx, v, exit)
		fmt.Printf("  pts(%s) = {%s}  precise=%v\n", name, names(prog, objs), precise)
	}

	fmt.Println("\n== Alias queries ==")
	x, p := prog.VarByName["x"], prog.VarByName["p"]
	may, _ := analysis.MayAliasContext(ctx, x, p, exit)
	must, _ := analysis.MustAliasContext(ctx, x, p, exit)
	aliases, _ := analysis.Aliases(ctx, x, exit)
	fmt.Printf("  x may-alias p: %v   (both point to c after *px = p)\n", may)
	fmt.Printf("  x must-alias p: %v\n", must)
	fmt.Printf("  aliases(x) = {%s}\n", names(prog, aliases))
}

func names(prog *ir.Program, vs []ir.VarID) string {
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		out = append(out, prog.VarName(v))
	}
	return strings.Join(out, ", ")
}
