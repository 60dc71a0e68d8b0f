package check_test

import (
	"context"
	"flag"
	"os"
	"strings"
	"testing"

	"bootstrap/internal/check"
	"bootstrap/internal/core"
	"bootstrap/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/report_golden.txt from the current passes")

const reportGoldenFile = "testdata/report_golden.txt"

// goldenReports renders every pass's text report over driver.cpl,
// nullderef.cpl (the examples/nullcheck program), recursive.cpl and the
// three lockheavy presets, each under the checker-driver analysis.
func goldenReports(t *testing.T) string {
	t.Helper()
	type subject struct{ name, src string }
	var subjects []subject
	for _, path := range []string{"../../testdata/driver.cpl", "testdata/nullderef.cpl", "testdata/recursive.cpl"} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, subject{path, string(src)})
	}
	for _, w := range synth.LockHeavyWorkloads() {
		src, _ := synth.LockHeavy(w.Cfg)
		subjects = append(subjects, subject{w.Name, src})
	}
	var b strings.Builder
	for _, s := range subjects {
		passes := check.All()
		a := analyzeLazy(t, s.src, passes, core.Config{})
		if s.name == "testdata/recursive.cpl" {
			// The subject pins the checkers' fixpoints where they loop:
			// one self-recursive helper and a mutually recursive pair.
			for _, name := range []string{"drain", "ping", "pong"} {
				if !a.CallGraph.Recursive(a.Prog.FuncByName[name]) {
					t.Fatalf("%s: %s is not recursive", s.name, name)
				}
			}
		}
		rep := check.Run(context.Background(), a, check.Options{Passes: passes})
		b.WriteString("== " + s.name + "\n")
		b.WriteString(check.FormatText(rep))
	}
	return b.String()
}

// TestReportGolden pins every finding of every pass on six subjects:
// rule, severity, location, message, witnesses and fingerprint. A
// changed fingerprint un-suppresses the finding for every saved
// -baseline, so rewrite the file with -update only for a change meant
// to alter findings or their identity.
func TestReportGolden(t *testing.T) {
	got := goldenReports(t)
	if *update {
		if err := os.WriteFile(reportGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reportGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", reportGoldenFile, i+1, g, w)
		}
	}
}
