package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSplitList(t *testing.T) {
	if got := splitList(""); got != nil {
		t.Errorf("splitList(\"\") = %v", got)
	}
	got := splitList(" a, b ,,c ")
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("splitList = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("splitList[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// resetFlags restores this command's flags (not the test framework's) to
// their defaults between runs.
func resetFlags() {
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			_ = f.Value.Set(f.DefValue)
		}
	})
}

func TestRunOnDriver(t *testing.T) {
	const path = "../../testdata/driver.cpl"
	resetFlags()
	if err := run(path); err != nil {
		t.Fatalf("default run: %v", err)
	}
	resetFlags()
	for _, set := range [][2]string{
		{"partitions", "true"},
		{"clusters", "true"},
		{"stats", "true"},
		{"dump", "true"},
	} {
		resetFlags()
		if err := flag.Set(set[0], set[1]); err != nil {
			t.Fatal(err)
		}
		if err := run(path); err != nil {
			t.Fatalf("-%s run: %v", set[0], err)
		}
	}
	// Queries.
	resetFlags()
	_ = flag.Set("pts", "lp,dev.owner")
	_ = flag.Set("aliases", "lp")
	if err := run(path); err != nil {
		t.Fatalf("query run: %v", err)
	}
	// Query in a named function.
	resetFlags()
	_ = flag.Set("pts", "dev.state")
	_ = flag.Set("at", "thread_open")
	if err := run(path); err != nil {
		t.Fatalf("-at run: %v", err)
	}
	// Errors.
	resetFlags()
	_ = flag.Set("pts", "nosuchvar")
	if err := run(path); err == nil {
		t.Error("unknown variable should error")
	}
	resetFlags()
	_ = flag.Set("at", "nosuchfunc")
	_ = flag.Set("pts", "lp")
	if err := run(path); err == nil {
		t.Error("unknown function should error")
	}
	resetFlags()
	_ = flag.Set("mode", "bogus")
	if err := run(path); err == nil {
		t.Error("bad mode should error")
	}
	resetFlags()
	if err := run("../../testdata/nonexistent.cpl"); err == nil {
		t.Error("missing file should error")
	}
}

// TestRunTrace is the observability acceptance check at the binary
// level: -trace writes valid Chrome trace JSON with one span per cascade
// phase and per cluster attempt, and the outcome args cover cache hits
// (second run against a warm -cache-dir) and demotions (starved budget).
// The fallback span marks the one whole-program Andersen solve, which
// only a read runs: a healthy run without queries has none, and the
// starved run's queries, which widen through it, record exactly one.
func TestRunTrace(t *testing.T) {
	const path = "../../testdata/driver.cpl"
	dir := t.TempDir()

	collect := func(trace string, extra ...[2]string) (map[string]int, map[string]int) {
		t.Helper()
		resetFlags()
		_ = flag.Set("trace", trace)
		for _, kv := range extra {
			_ = flag.Set(kv[0], kv[1])
		}
		if err := run(path); err != nil {
			t.Fatalf("traced run: %v", err)
		}
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatalf("%s is not valid Chrome trace JSON: %v", trace, err)
		}
		names, outcomes := map[string]int{}, map[string]int{}
		for _, ev := range tr.TraceEvents {
			names[ev.Name]++
			if o, ok := ev.Args["outcome"].(string); ok {
				outcomes[o]++
			}
		}
		return names, outcomes
	}

	cacheDir := filepath.Join(dir, "cache")
	names, outcomes := collect(filepath.Join(dir, "cold.json"), [2]string{"cache-dir", cacheDir})
	for _, phase := range []string{"parse", "steensgaard", "clustering", "fscs"} {
		if names[phase] != 1 {
			t.Errorf("cold trace: %d %q phase spans, want 1", names[phase], phase)
		}
	}
	if names["fallback"] != 0 {
		t.Errorf("cold trace: %d fallback spans, want none without a query", names["fallback"])
	}
	if names["attempt"] == 0 {
		t.Error("cold trace: no attempt spans")
	}
	if outcomes["solved"] == 0 {
		t.Errorf("cold trace outcomes = %v, want solved > 0", outcomes)
	}

	_, outcomes = collect(filepath.Join(dir, "warm.json"), [2]string{"cache-dir", cacheDir})
	if outcomes["cached"] == 0 {
		t.Errorf("warm trace outcomes = %v, want cached > 0", outcomes)
	}

	names, outcomes = collect(filepath.Join(dir, "starved.json"),
		[2]string{"budget", "1"}, [2]string{"retries", "-1"}, [2]string{"pts", "lp,handler"})
	if outcomes["demoted"] == 0 {
		t.Errorf("starved trace outcomes = %v, want demoted > 0", outcomes)
	}
	if names["fallback"] != 1 {
		t.Errorf("starved trace: %d fallback spans after two widened queries, want 1", names["fallback"])
	}
}

// captureRun runs the command on path with os.Stdout redirected and
// returns what it printed there.
func captureRun(t *testing.T, path string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	var out bytes.Buffer
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(&out, r)
		close(done)
	}()
	runErr := run(path)
	os.Stdout = stdout
	w.Close()
	<-done
	r.Close()
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	return out.String()
}

// TestStatsReportsQueriedFallback: -stats reports the whole-program
// fallback as it stands after the queries, which solve it when they
// widen through it, and as not run when nothing read it.
func TestStatsReportsQueriedFallback(t *testing.T) {
	const path = "../../testdata/driver.cpl"
	resetFlags()
	_ = flag.Set("stats", "true")
	if out := captureRun(t, path); !strings.Contains(out, "andersen solver: not run") {
		t.Errorf("plain -stats should report the fallback not run:\n%s", out)
	}
	resetFlags()
	_ = flag.Set("stats", "true")
	_ = flag.Set("cluster-timeout", "1ns")
	_ = flag.Set("pts", "lp")
	out := captureRun(t, path)
	if !strings.Contains(out, "imprecise") || !strings.Contains(out, "andersen solver: passes=") {
		t.Errorf("a widened -pts query solves the fallback; -stats should report its passes:\n%s", out)
	}
}
