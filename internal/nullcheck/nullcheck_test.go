package nullcheck

import (
	"context"
	"strings"
	"testing"

	"bootstrap/internal/core"
)

func check(t *testing.T, src string) (*core.Analysis, []Warning) {
	t.Helper()
	a, err := core.AnalyzeSource(src, core.Config{Mode: core.ModeSteensgaard, Workers: 1})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a, Check(context.Background(), a)
}

// warningsOn filters warnings whose pointer renders as name.
func warningsOn(a *core.Analysis, ws []Warning, name string) []Warning {
	var out []Warning
	for _, w := range ws {
		if a.Prog.VarName(w.Ptr) == name {
			out = append(out, w)
		}
	}
	return out
}

func TestNullThenDeref(t *testing.T) {
	a, ws := check(t, `
		int a; int *p; int *x;
		void main() {
			p = &a;
			p = null;
			x = *p;
		}
	`)
	got := warningsOn(a, ws, "p")
	if len(got) != 1 {
		t.Fatalf("warnings on p = %d, want 1:\n%s", len(got), FormatAll(a.Prog, ws))
	}
	if got[0].Severity != DefiniteNull {
		t.Errorf("severity = %v, want definite (the store kills &a)", got[0].Severity)
	}
}

func TestFlowSensitivityNoFalsePositive(t *testing.T) {
	a, ws := check(t, `
		int a; int *p; int *x;
		void main() {
			p = null;
			p = &a;
			x = *p;
		}
	`)
	if got := warningsOn(a, ws, "p"); len(got) != 0 {
		t.Errorf("reassigned pointer is non-null at the deref; got %s", FormatAll(a.Prog, ws))
	}
}

func TestUseAfterFree(t *testing.T) {
	a, ws := check(t, `
		void main() {
			int *p; int x;
			p = malloc;
			*p = 1;
			free(p);
			x = *p;
		}
	`)
	got := warningsOn(a, ws, "main.p")
	if len(got) != 1 {
		t.Fatalf("want exactly the post-free deref flagged; got:\n%s", FormatAll(a.Prog, ws))
	}
	if got[0].Severity != DefiniteNull {
		t.Errorf("severity = %v, want definite", got[0].Severity)
	}
}

func TestBranchMayNull(t *testing.T) {
	a, ws := check(t, `
		int a; int *p; int *x;
		void main() {
			p = &a;
			if (*) { p = null; }
			x = *p;
		}
	`)
	got := warningsOn(a, ws, "p")
	if len(got) != 1 || got[0].Severity != MayBeNull {
		t.Fatalf("want one may-null warning; got:\n%s", FormatAll(a.Prog, ws))
	}
	s := got[0].Format(a.Prog)
	if !strings.Contains(s, "may dereference") && !strings.Contains(s, "may") {
		t.Errorf("Format = %q", s)
	}
}

func TestUninitializedDeref(t *testing.T) {
	a, ws := check(t, `
		int *p; int *x;
		void main() {
			x = *p;
		}
	`)
	got := warningsOn(a, ws, "p")
	if len(got) != 1 {
		t.Fatalf("want one uninit warning; got:\n%s", FormatAll(a.Prog, ws))
	}
	if got[0].Severity != DefiniteNull || !got[0].Uninit {
		t.Errorf("want definite uninitialized; got %+v", got[0])
	}
}

func TestStoreAndTouchSites(t *testing.T) {
	a, ws := check(t, `
		int *p, *q, *r;
		void main() {
			p = null;
			*p = r;      // store through null
			q = null;
			*q = 5;      // write-through touch of null
		}
	`)
	if len(warningsOn(a, ws, "p")) != 1 {
		t.Errorf("store site not flagged:\n%s", FormatAll(a.Prog, ws))
	}
	if len(warningsOn(a, ws, "q")) != 1 {
		t.Errorf("touch site not flagged:\n%s", FormatAll(a.Prog, ws))
	}
}

func TestInterproceduralNull(t *testing.T) {
	a, ws := check(t, `
		int a;
		int *g; int *x;
		void clear() { g = null; }
		void setup() { g = &a; }
		void main() {
			setup();
			clear();
			x = *g;
		}
	`)
	got := warningsOn(a, ws, "g")
	if len(got) != 1 || got[0].Severity != DefiniteNull {
		t.Fatalf("want a definite warning through the call chain; got:\n%s", FormatAll(a.Prog, ws))
	}
}

func TestUnreachableCodeIgnored(t *testing.T) {
	a, ws := check(t, `
		int *p; int *x;
		void dead() { x = *p; }
		void main() { p = null; }
	`)
	if len(ws) != 0 {
		t.Errorf("dereferences in unreachable functions must not be reported:\n%s", FormatAll(a.Prog, ws))
	}
}

// TestPathSensitivityPrunes: the dereference sits in an arm the pointer
// constraints prove infeasible.
func TestPathSensitivityPrunes(t *testing.T) {
	a, ws := check(t, `
		int a;
		int *p, *q, *x;
		void main() {
			p = &a;
			q = p;
			if (p != q) {
				x = null;
				*x = p;
			}
		}
	`)
	if got := warningsOn(a, ws, "x"); len(got) != 0 {
		t.Errorf("deref in an infeasible arm (p must equal q) reported:\n%s", FormatAll(a.Prog, ws))
	}
}

func TestCleanProgramIsQuiet(t *testing.T) {
	a, ws := check(t, `
		int a, b;
		int *p, *q, *x;
		void main() {
			p = &a;
			q = &b;
			x = *p;
			*q = x;
		}
	`)
	if len(ws) != 0 {
		t.Errorf("clean program produced warnings:\n%s", FormatAll(a.Prog, ws))
	}
}
