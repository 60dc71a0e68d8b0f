package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"
)

// resetFlags restores this command's flags (not the test framework's) to
// their defaults between runs.
func resetFlags() {
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			_ = f.Value.Set(f.DefValue)
		}
	})
}

func TestRunTableSmoke(t *testing.T) {
	resetFlags()
	_ = flag.Set("rows", "sock")
	_ = flag.Set("scale", "0.05")
	_ = flag.Set("skip-monolithic", "true")
	_ = flag.Set("timings", "true")
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("table run: %v", err)
	}
	if !strings.Contains(out.String(), "Table 1") {
		t.Errorf("missing table header:\n%s", out.String())
	}
	// The skipped baseline reads "skipped" in the table and the timings,
	// never as a measured 0µs.
	if n := strings.Count(out.String(), "skipped"); n != 2 || strings.Contains(out.String(), " 0µs") {
		t.Errorf("-skip-monolithic: %d \"skipped\" columns, want 2:\n%s", n, out.String())
	}

	resetFlags()
	_ = flag.Set("rows", "nosuchbench")
	if err := run(&out); err == nil {
		t.Error("unknown row should error")
	}
}

func TestRunSweepSmoke(t *testing.T) {
	resetFlags()
	_ = flag.Set("sweep", "sock")
	_ = flag.Set("scale", "0.05")
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("sweep run: %v", err)
	}
	if !strings.Contains(out.String(), "ablation") {
		t.Errorf("missing sweep header:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "      inf ") || strings.Contains(out.String(), "1073741824") {
		t.Errorf("the no-refinement threshold should print as inf:\n%s", out.String())
	}

	resetFlags()
	_ = flag.Set("sweep", "nosuchbench")
	if err := run(&out); err == nil {
		t.Error("unknown sweep benchmark should error")
	}
}

func TestRunFigure1Smoke(t *testing.T) {
	resetFlags()
	_ = flag.Set("figure1", "autofs")
	_ = flag.Set("scale", "0.05")
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("figure run: %v", err)
	}
	for _, want := range []string{"Figure 1", "#steens", "max Steensgaard partition"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}

	_ = flag.Set("sweep", "autofs")
	if err := run(&out); err == nil {
		t.Error("-figure1 with -sweep should error, not run only one of them")
	}
}

func TestRunFigure1UnknownBench(t *testing.T) {
	resetFlags()
	_ = flag.Set("figure1", "nosuchbench")
	var out bytes.Buffer
	err := run(&out)
	if err == nil || !strings.Contains(err.Error(), "autofs") {
		t.Errorf("unknown benchmark should error and list the rows, got %v", err)
	}
}

// TestRunRejectsBadScale: a scale that is not a positive number is an
// error, not a run at some other scale under a misleading header.
func TestRunRejectsBadScale(t *testing.T) {
	for _, sc := range []string{"-1", "0", "NaN", "+Inf"} {
		resetFlags()
		_ = flag.Set("rows", "sock")
		_ = flag.Set("scale", sc)
		var out bytes.Buffer
		if err := run(&out); err == nil {
			t.Errorf("-scale %s: no error; printed:\n%s", sc, out.String())
		}
		if out.Len() != 0 {
			t.Errorf("-scale %s printed output:\n%s", sc, out.String())
		}
	}
}
