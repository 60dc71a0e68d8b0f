package frontend

import (
	"math/rand"
	"os"
	"testing"

	"bootstrap/internal/synth"
)

// FuzzLowerSource throws arbitrary bytes at the whole front end, seeded
// like cpl's FuzzParseProgram plus the golden's hand-written shapes.
// Lowering must return an error or a program and never panic; every
// program it returns must pass Validate, have VarByName and FuncByName
// index exactly Vars and Funcs, and lower to the same full dump a second
// time.
func FuzzLowerSource(f *testing.F) {
	if driver, err := os.ReadFile("../../testdata/driver.cpl"); err == nil {
		f.Add(string(driver))
	}
	f.Add("int x;")
	f.Add("void main() { }")
	f.Add("int *p;\nvoid main() { p = malloc; free(p); *p = 1; }")
	f.Add("lock m;\nlock *l;\nvoid acquire(lock *a) { }\nvoid main() { l = &m; acquire(l); }")
	f.Add("struct node { int val; struct node *next; };\nvoid main() { }")
	f.Add("int g;\nvoid main() { if (g) { g = 1; } else { g = 2; } while (g) { g = g + 1; } }")
	f.Add("void f(int a, int b) { return; }\nvoid main() { f(1, 2); }")
	f.Add("int x; void main() { x = ((1 + 2) * 3) - -4; }")
	f.Add("void main() { ; }")
	f.Add("int")        // truncated decl
	f.Add("void main(") // truncated params
	f.Add("/* unterminated")
	f.Add("int *p;\r\n\tvoid main() {\r\n\t\tp = malloc; p = malloc;\r\n}\r\n")
	f.Add("struct S { int *f; }; void main() { { struct S s; } { struct S s; } }")
	f.Add(shapesSrc)
	f.Add(wideStructSrc)
	b, _ := synth.FindBenchmark("sock")
	f.Add(synth.Generate(b, 0.05))
	f.Add(synth.RandomSource(rand.New(rand.NewSource(1)), synth.DefaultRandomConfig()))
	if src, _, ok := synth.LockHeavyByName("lockheavy_small"); ok {
		f.Add(src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		p, err := LowerSource(src)
		if err != nil {
			if p != nil {
				t.Fatalf("LowerSource returned a program with error %v", err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("lowered program is invalid: %v", err)
		}
		if len(p.VarByName) != len(p.Vars) {
			t.Fatalf("VarByName has %d names for %d variables", len(p.VarByName), len(p.Vars))
		}
		for _, v := range p.Vars {
			if id, ok := p.VarByName[v.Name]; !ok || id != v.ID {
				t.Fatalf("VarByName[%q] = %d, %t; want %d", v.Name, id, ok, v.ID)
			}
		}
		if len(p.FuncByName) != len(p.Funcs) {
			t.Fatalf("FuncByName has %d names for %d functions", len(p.FuncByName), len(p.Funcs))
		}
		for _, fn := range p.Funcs {
			if id, ok := p.FuncByName[fn.Name]; !ok || id != fn.ID {
				t.Fatalf("FuncByName[%q] = %d, %t; want %d", fn.Name, id, ok, fn.ID)
			}
		}
		again, err := LowerSource(src)
		if err != nil {
			t.Fatalf("second lowering failed: %v", err)
		}
		if dumpProgram(again) != dumpProgram(p) {
			t.Fatal("lowering the same source twice gave different programs")
		}
	})
}
