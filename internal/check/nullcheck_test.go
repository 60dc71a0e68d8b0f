package check_test

import (
	"context"
	"strings"
	"testing"

	"bootstrap/internal/check"
	"bootstrap/internal/core"
)

// nullcheck runs the nullcheck pass over an eager analysis of src. A
// definite finding is an error, a possible one a warning.
func nullcheck(t *testing.T, src string) []check.Diagnostic {
	t.Helper()
	a, err := core.AnalyzeSource(src, core.Config{Mode: core.ModeSteensgaard, Workers: 1})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	diags, err := (&check.NullcheckPass{}).Run(context.Background(), a)
	if err != nil {
		t.Fatalf("nullcheck pass: %v", err)
	}
	return diags
}

// warningsOn filters the findings whose pointer renders as name.
func warningsOn(ds []check.Diagnostic, name string) []check.Diagnostic {
	var out []check.Diagnostic
	for _, d := range ds {
		if d.Subject == name {
			out = append(out, d)
		}
	}
	return out
}

// formatAll renders findings one per line, for failure messages.
func formatAll(ds []check.Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString("  " + d.Message + "\n")
	}
	return b.String()
}

func TestNullThenDeref(t *testing.T) {
	ws := nullcheck(t, `
		int a; int *p; int *x;
		void main() {
			p = &a;
			p = null;
			x = *p;
		}
	`)
	got := warningsOn(ws, "p")
	if len(got) != 1 {
		t.Fatalf("warnings on p = %d, want 1:\n%s", len(got), formatAll(ws))
	}
	if got[0].Severity != check.SeverityError {
		t.Errorf("severity = %v, want error (definite: the store kills &a)", got[0].Severity)
	}
}

func TestFlowSensitivityNoFalsePositive(t *testing.T) {
	ws := nullcheck(t, `
		int a; int *p; int *x;
		void main() {
			p = null;
			p = &a;
			x = *p;
		}
	`)
	if got := warningsOn(ws, "p"); len(got) != 0 {
		t.Errorf("reassigned pointer is non-null at the deref; got %s", formatAll(ws))
	}
}

func TestUseAfterFree(t *testing.T) {
	ws := nullcheck(t, `
		void main() {
			int *p; int x;
			p = malloc;
			*p = 1;
			free(p);
			x = *p;
		}
	`)
	got := warningsOn(ws, "main.p")
	if len(got) != 1 {
		t.Fatalf("want exactly the post-free deref flagged; got:\n%s", formatAll(ws))
	}
	if got[0].Severity != check.SeverityError {
		t.Errorf("severity = %v, want error (definite)", got[0].Severity)
	}
}

func TestBranchMayNull(t *testing.T) {
	ws := nullcheck(t, `
		int a; int *p; int *x;
		void main() {
			p = &a;
			if (*) { p = null; }
			x = *p;
		}
	`)
	got := warningsOn(ws, "p")
	if len(got) != 1 || got[0].Severity != check.SeverityWarning {
		t.Fatalf("want one may-null warning; got:\n%s", formatAll(ws))
	}
	if s := got[0].Message; !strings.Contains(s, "may dereference") {
		t.Errorf("Message = %q", s)
	}
}

func TestUninitializedDeref(t *testing.T) {
	ws := nullcheck(t, `
		int *p; int *x;
		void main() {
			x = *p;
		}
	`)
	got := warningsOn(ws, "p")
	if len(got) != 1 {
		t.Fatalf("want one uninit warning; got:\n%s", formatAll(ws))
	}
	if got[0].Severity != check.SeverityError || !strings.Contains(got[0].Message, "possibly-uninitialized") {
		t.Errorf("want definite uninitialized; got %+v", got[0])
	}
}

func TestStoreAndTouchSites(t *testing.T) {
	ws := nullcheck(t, `
		int *p, *q, *r;
		void main() {
			p = null;
			*p = r;      // store through null
			q = null;
			*q = 5;      // write-through touch of null
		}
	`)
	if len(warningsOn(ws, "p")) != 1 {
		t.Errorf("store site not flagged:\n%s", formatAll(ws))
	}
	if len(warningsOn(ws, "q")) != 1 {
		t.Errorf("touch site not flagged:\n%s", formatAll(ws))
	}
}

func TestInterproceduralNull(t *testing.T) {
	ws := nullcheck(t, `
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
	got := warningsOn(ws, "g")
	if len(got) != 1 || got[0].Severity != check.SeverityError {
		t.Fatalf("want a definite warning through the call chain; got:\n%s", formatAll(ws))
	}
}

func TestUnreachableCodeIgnored(t *testing.T) {
	ws := nullcheck(t, `
		int *p; int *x;
		void dead() { x = *p; }
		void main() { p = null; }
	`)
	if len(ws) != 0 {
		t.Errorf("dereferences in unreachable functions must not be reported:\n%s", formatAll(ws))
	}
}

// TestPathSensitivityPrunes: the dereference sits in an arm the pointer
// constraints prove infeasible.
func TestPathSensitivityPrunes(t *testing.T) {
	ws := nullcheck(t, `
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
	if got := warningsOn(ws, "x"); len(got) != 0 {
		t.Errorf("deref in an infeasible arm (p must equal q) reported:\n%s", formatAll(ws))
	}
}

func TestCleanProgramIsQuiet(t *testing.T) {
	ws := nullcheck(t, `
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
		t.Errorf("clean program produced warnings:\n%s", formatAll(ws))
	}
}
