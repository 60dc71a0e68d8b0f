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

	resetFlags()
	_ = flag.Set("sweep", "nosuchbench")
	if err := run(&out); err == nil {
		t.Error("unknown sweep benchmark should error")
	}
}
