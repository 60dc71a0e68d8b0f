// Nullcheck: a second client of the bootstrapped analysis — the
// checker framework's flow-sensitive null/dangling-dereference pass. It
// demonstrates what flow sensitivity buys over Andersen's analysis: the
// same dereference is safe or unsafe depending on statement order,
// which a flow-insensitive points-to set cannot distinguish.
//
//	go run ./examples/nullcheck
package main

import (
	"context"
	"fmt"
	"log"

	"bootstrap/internal/check"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
)

const program = `
	int a;
	int *ok, *bad, *freed, *maybe;
	int *sink;

	void reset() { bad = null; }

	void main() {
		// Safe: null is overwritten before the dereference.
		ok = null;
		ok = &a;
		sink = *ok;

		// Bug: the helper nulls bad between assignment and use.
		bad = &a;
		reset();
		sink = *bad;

		// Bug: use after free.
		freed = malloc;
		*freed = 1;
		free(freed);
		sink = *freed;

		// Maybe: null on one branch only.
		maybe = &a;
		if (*) { maybe = null; }
		sink = *maybe;
	}
`

func main() {
	prog, err := frontend.LowerSource(program)
	if err != nil {
		log.Fatal(err)
	}
	// The pass's footprint is the dereferenced pointers: the lazy
	// analysis solves only the clusters holding one.
	passes, err := check.Select("nullcheck")
	if err != nil {
		log.Fatal(err)
	}
	analysis, err := core.AnalyzeProgram(prog, core.Config{
		Mode:   core.ModeAndersen,
		Lazy:   true,
		Demand: check.DemandFor(prog, passes),
	})
	if err != nil {
		log.Fatal(err)
	}
	rep := check.Run(context.Background(), analysis, check.Options{
		Passes: passes,
		Source: "examples/nullcheck",
	})
	fmt.Print(check.FormatText(rep))
	fmt.Println("\nnote: the dereference of `ok` is NOT reported — the")
	fmt.Println("flow-sensitive analysis sees the reassignment, which a")
	fmt.Println("flow-insensitive points-to analysis cannot.")
}
