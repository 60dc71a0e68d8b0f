package check_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"bootstrap/internal/cache"
	"bootstrap/internal/check"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/synth"
)

// analyzeLazy builds the standard checker-driver analysis: lazy mode
// with the selected passes' union footprint as the demand predicate.
func analyzeLazy(t *testing.T, src string, passes []check.Pass, cfg core.Config) *core.Analysis {
	t.Helper()
	prog, err := frontend.LowerSource(src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	cfg.Lazy = true
	cfg.Demand = check.DemandFor(prog, passes)
	a, err := core.AnalyzeProgram(prog, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

// found reports whether some diagnostic matches the seeded bug: same
// rule, message mentioning the seeded variable.
func found(diags []check.Diagnostic, bug synth.SeededBug) bool {
	for _, d := range diags {
		if d.Rule == bug.Rule && strings.Contains(d.Message, bug.Var) {
			return true
		}
	}
	return false
}

// lockHeavyFindings is every lockheavy preset's findings count per
// rule. Recall alone cannot see a spurious extra finding; these counts
// can.
var lockHeavyFindings = map[string]map[string]int{
	"lockheavy_small":  {"deadlock": 1, "double-free": 1, "race": 6, "use-after-free": 1},
	"lockheavy_medium": {"deadlock": 1, "double-free": 2, "race": 9, "use-after-free": 2},
	"lockheavy_large":  {"deadlock": 1, "double-free": 3, "race": 12, "use-after-free": 3},
}

// TestLockHeavyRecall: every seeded bug in every lockheavy preset is
// found, the correctly-guarded parts produce no findings, and each
// rule reports exactly its pinned count.
func TestLockHeavyRecall(t *testing.T) {
	for _, w := range synth.LockHeavyWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			src, bugs := synth.LockHeavy(w.Cfg)
			passes := check.All()
			a := analyzeLazy(t, src, passes, core.Config{})
			rep := check.Run(context.Background(), a, check.Options{Passes: passes})
			diags := rep.Diagnostics()
			for _, bug := range bugs {
				if !found(diags, bug) {
					t.Errorf("seeded %s on %s not found\n%s", bug.Rule, bug.Var, check.FormatText(rep))
				}
			}
			counts := map[string]int{}
			for _, d := range diags {
				counts[d.Rule]++
			}
			if want := lockHeavyFindings[w.Name]; !reflect.DeepEqual(counts, want) {
				t.Errorf("findings per rule = %v, want %v\n%s", counts, want, check.FormatText(rep))
			}
			for _, res := range rep.Results {
				if res.Err != nil {
					t.Errorf("pass %s: %v", res.Pass, res.Err)
				}
				if res.Incomplete {
					t.Errorf("pass %s incomplete without a deadline", res.Pass)
				}
			}
			for _, d := range diags {
				if d.Rule == "race" && strings.Contains(d.Message, "race on gs") {
					t.Errorf("spurious race on a guarded counter: %s", d.Message)
				}
				if d.Rule == "null-deref" {
					t.Errorf("spurious null-deref in lockheavy: %s", d.Message)
				}
			}
		})
	}
}

// TestDeterministicFingerprints: on every lockheavy preset, two fresh
// runs over the same workload yield identical fingerprint sets, and a
// warm rerun against the same cache directory is a pure cache hit.
func TestDeterministicFingerprints(t *testing.T) {
	for _, w := range synth.LockHeavyWorkloads() {
		t.Run(w.Name, func(t *testing.T) {
			src, _ := synth.LockHeavy(w.Cfg)
			dir := t.TempDir()

			run := func() ([]string, cache.Stats) {
				c := cache.New(cache.Options{Dir: dir})
				passes := check.All()
				before := c.Stats()
				a := analyzeLazy(t, src, passes, core.Config{Cache: c})
				rep := check.Run(context.Background(), a, check.Options{Passes: passes})
				return rep.Fingerprints(), c.Stats().Sub(before)
			}

			cold, coldStats := run()
			warm, warmStats := run()
			if len(cold) == 0 {
				t.Fatal("no findings on a seeded workload")
			}
			if strings.Join(cold, ",") != strings.Join(warm, ",") {
				t.Errorf("fingerprint drift cold vs warm:\ncold: %v\nwarm: %v", cold, warm)
			}
			if coldStats.Misses == 0 {
				t.Errorf("cold run should miss the cache, stats %+v", coldStats)
			}
			if warmStats.Misses != 0 || warmStats.Hits == 0 {
				t.Errorf("warm run should be a pure cache hit, stats %+v", warmStats)
			}
		})
	}
}

// TestBaselineSuppression: a run's own SARIF baseline suppresses every
// finding of a rerun.
func TestBaselineSuppression(t *testing.T) {
	src, _ := synth.LockHeavy(synth.LockHeavyWorkloads()[0].Cfg)
	passes := check.All()
	a := analyzeLazy(t, src, passes, core.Config{})
	rep := check.Run(context.Background(), a, check.Options{Passes: passes})
	total := len(rep.Diagnostics())
	if total == 0 {
		t.Fatal("no findings to baseline")
	}

	var buf bytes.Buffer
	if err := check.WriteSARIF(&buf, rep); err != nil {
		t.Fatalf("sarif: %v", err)
	}
	baseline, err := check.ReadBaseline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if len(baseline) != total {
		t.Fatalf("baseline has %d fingerprints, want %d (collision?)", len(baseline), total)
	}

	rep2 := check.Run(context.Background(), a, check.Options{Passes: check.All(), Baseline: baseline})
	if n := len(rep2.Diagnostics()); n != 0 {
		t.Errorf("baseline left %d findings:\n%s", n, check.FormatText(rep2))
	}
	suppressed := 0
	for _, res := range rep2.Results {
		suppressed += res.Suppressed
	}
	if suppressed != total {
		t.Errorf("suppressed %d, want %d", suppressed, total)
	}
}

// TestSARIFShape validates the SARIF 2.1.0 required fields on a real
// report.
func TestSARIFShape(t *testing.T) {
	src, _ := synth.LockHeavy(synth.LockHeavyWorkloads()[0].Cfg)
	passes := check.All()
	a := analyzeLazy(t, src, passes, core.Config{})
	rep := check.Run(context.Background(), a, check.Options{Passes: passes, Source: "lockheavy_small.cpl"})

	var buf bytes.Buffer
	if err := check.WriteSARIF(&buf, rep); err != nil {
		t.Fatalf("sarif: %v", err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if v := log["version"]; v != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", v)
	}
	if _, ok := log["$schema"].(string); !ok {
		t.Error("missing $schema")
	}
	runs, ok := log["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs = %v, want one run", log["runs"])
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "aliaslint" {
		t.Errorf("driver name = %v", driver["name"])
	}
	rules := driver["rules"].([]any)
	if len(rules) == 0 {
		t.Error("no rules in driver metadata")
	}
	results, ok := run["results"].([]any)
	if !ok || len(results) == 0 {
		t.Fatal("no results")
	}
	ruleIDs := map[string]bool{}
	for _, r := range rules {
		ruleIDs[r.(map[string]any)["id"].(string)] = true
	}
	for _, raw := range results {
		res := raw.(map[string]any)
		if !ruleIDs[res["ruleId"].(string)] {
			t.Errorf("result ruleId %v not declared in driver rules", res["ruleId"])
		}
		switch res["level"] {
		case "note", "warning", "error":
		default:
			t.Errorf("bad level %v", res["level"])
		}
		if res["message"].(map[string]any)["text"] == "" {
			t.Error("empty message text")
		}
		locs := res["locations"].([]any)
		phys := locs[0].(map[string]any)["physicalLocation"].(map[string]any)
		if phys["artifactLocation"].(map[string]any)["uri"] != "lockheavy_small.cpl" {
			t.Errorf("artifact uri = %v", phys["artifactLocation"])
		}
		if phys["region"].(map[string]any)["startLine"].(float64) < 1 {
			t.Error("startLine must be 1-based")
		}
		fps := res["partialFingerprints"].(map[string]any)
		if fps[check.FingerprintKey] == "" {
			t.Error("missing partial fingerprint")
		}
	}
}

// sarifInvocation writes rep as SARIF and returns the log's one
// invocation and the whole log.
func sarifInvocation(t *testing.T, rep *check.Report) (map[string]any, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := check.WriteSARIF(&buf, rep); err != nil {
		t.Fatalf("sarif: %v", err)
	}
	var log struct {
		Runs []struct {
			Invocations []map[string]any `json:"invocations"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Invocations) != 1 {
		t.Fatalf("want one run with one invocation, got %s", buf.Bytes())
	}
	return log.Runs[0].Invocations[0], buf.Bytes()
}

// TestSARIFInvocation: the SARIF log says whether every pass completed.
// A complete run is executionSuccessful with no notifications; under a
// one-nanosecond pass deadline every pass is named by a warning, and a
// failed pass by an error. ReadBaseline reads a log with the invocation
// and one without alike.
func TestSARIFInvocation(t *testing.T) {
	src, _ := synth.LockHeavy(synth.LockHeavyWorkloads()[0].Cfg)
	passes := check.All()
	a := analyzeLazy(t, src, passes, core.Config{})

	complete := check.Run(context.Background(), a, check.Options{Passes: passes})
	inv, raw := sarifInvocation(t, complete)
	if inv["executionSuccessful"] != true {
		t.Errorf("complete run: executionSuccessful = %v, want true", inv["executionSuccessful"])
	}
	if n, ok := inv["toolExecutionNotifications"]; ok {
		t.Errorf("complete run: notifications %v, want none", n)
	}

	// A log from before the invocation was written: the same log without it.
	var old map[string]any
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	delete(old["runs"].([]any)[0].(map[string]any), "invocations")
	oldRaw, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	fromNew, err := check.ReadBaseline(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("baseline (new log): %v", err)
	}
	fromOld, err := check.ReadBaseline(bytes.NewReader(oldRaw))
	if err != nil {
		t.Fatalf("baseline (old log): %v", err)
	}
	if len(fromNew) == 0 || !reflect.DeepEqual(fromNew, fromOld) {
		t.Errorf("baselines differ: new log %d fingerprints, old log %d", len(fromNew), len(fromOld))
	}

	late := check.Run(context.Background(), a, check.Options{Passes: passes, PassTimeout: time.Nanosecond})
	inv, _ = sarifInvocation(t, late)
	if inv["executionSuccessful"] != false {
		t.Errorf("out-deadlined run: executionSuccessful = %v, want false", inv["executionSuccessful"])
	}
	notes, _ := inv["toolExecutionNotifications"].([]any)
	if len(notes) != len(late.Results) {
		t.Fatalf("out-deadlined run: %d notifications, want one per pass (%d)", len(notes), len(late.Results))
	}
	for i, raw := range notes {
		n := raw.(map[string]any)
		pass := late.Results[i].Pass
		if n["level"] != "warning" || n["properties"].(map[string]any)["pass"] != pass ||
			!strings.Contains(n["message"].(map[string]any)["text"].(string), pass) {
			t.Errorf("notification %d = %v, want a warning naming pass %s", i, n, pass)
		}
	}

	failed := &check.Report{Results: []check.Result{complete.Results[0], {Pass: "broken", Err: errors.New("boom")}}}
	inv, _ = sarifInvocation(t, failed)
	notes, _ = inv["toolExecutionNotifications"].([]any)
	if inv["executionSuccessful"] != false || len(notes) != 1 {
		t.Fatalf("failed pass: invocation %v, want one notification", inv)
	}
	if n := notes[0].(map[string]any); n["level"] != "error" || n["properties"].(map[string]any)["pass"] != "broken" {
		t.Errorf("failed pass: notification %v, want an error naming pass broken", n)
	}
}

// TestPassDeadline: an expired pass deadline yields an incomplete (but
// not failed) result and never blocks the run.
func TestPassDeadline(t *testing.T) {
	src, _ := synth.LockHeavy(synth.LockHeavyWorkloads()[1].Cfg)
	passes := check.All()
	a := analyzeLazy(t, src, passes, core.Config{})
	rep := check.Run(context.Background(), a, check.Options{Passes: passes, PassTimeout: time.Nanosecond})
	for _, res := range rep.Results {
		if !res.Incomplete {
			t.Errorf("pass %s: want incomplete under a 1ns deadline", res.Pass)
		}
	}
}

// TestSelect covers the pass registry surface.
func TestSelect(t *testing.T) {
	all, err := check.Select("all")
	if err != nil || len(all) != len(check.All()) {
		t.Fatalf("Select(all) = %d passes, err %v", len(all), err)
	}
	two, err := check.Select("lockset, uaf")
	if err != nil || len(two) != 2 {
		t.Fatalf("Select(lockset, uaf) = %v, err %v", two, err)
	}
	if _, err := check.Select("nosuch"); err == nil {
		t.Fatal("Select(nosuch) should fail")
	}
	if _, ok := check.Lookup("deadlock"); !ok {
		t.Fatal("Lookup(deadlock) should succeed")
	}
}
