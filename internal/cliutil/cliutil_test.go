package cliutil

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bootstrap/internal/core"
)

func TestParseMode(t *testing.T) {
	cases := map[string]core.Mode{
		"none": core.ModeNone, "steensgaard": core.ModeSteensgaard,
		"steens": core.ModeSteensgaard, "andersen": core.ModeAndersen,
		"syntactic": core.ModeSyntactic,
	}
	for s, want := range cases {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode should reject unknown modes")
	}
}

func TestLadderRetries(t *testing.T) {
	for in, want := range map[int]int{-3: -1, 0: -1, 1: 1, 4: 4} {
		if got := LadderRetries(in); got != want {
			t.Errorf("LadderRetries(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestAnalysisFlagsConfig(t *testing.T) {
	var af AnalysisFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	af.Register(fs)
	dir := t.TempDir()
	err := fs.Parse([]string{
		"-mode", "steensgaard", "-threshold", "12", "-workers", "3",
		"-budget", "500", "-retries", "0",
		"-cache-dir", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := af.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != core.ModeSteensgaard || cfg.AndersenThreshold != 12 ||
		cfg.Workers != 3 || cfg.ClusterBudget != 500 {
		t.Errorf("config fields not mapped: %+v", cfg)
	}
	if cfg.Retries != -1 {
		t.Errorf("Retries = %d, want -1 (flag 0 means demote immediately)", cfg.Retries)
	}
	if cfg.Cache == nil {
		t.Error("cache-dir should create a cache")
	}

	af.Workers = -1
	if _, err := af.Config(); err == nil {
		t.Error("negative -workers should error")
	}
	af.Workers = 0
	if _, err := af.Config(); err != nil {
		t.Errorf("-workers 0 means GOMAXPROCS: %v", err)
	}

	af.Budget = -1
	if _, err := af.Config(); err == nil {
		t.Error("negative -budget should error")
	}
	af.Budget = 0
	if _, err := af.Config(); err != nil {
		t.Errorf("-budget 0 means unlimited: %v", err)
	}

	af.Mode = "bogus"
	if _, err := af.Config(); err == nil {
		t.Error("bad mode should error")
	}
}

func TestObsFlagsDisabled(t *testing.T) {
	var of ObsFlags
	sess, err := of.Start()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Tracer != nil || sess.Metrics != nil || sess.MetricsAddr() != "" {
		t.Errorf("disabled flags should produce a nil tracer and metrics: %+v", sess)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestObsFlagsTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	of := ObsFlags{Trace: filepath.Join(dir, "out.json"), MetricsAddr: "127.0.0.1:0"}
	sess, err := of.Start()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Tracer == nil || sess.Metrics == nil {
		t.Fatal("tracer and metrics should be live")
	}
	sess.Metrics.Counter("cliutil_test_total", "test counter").Add(7)
	sess.Tracer.Start("phase", "t", 0).End()

	addr := sess.MetricsAddr()
	if addr == "" {
		t.Fatal("server should have bound an address")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "cliutil_test_total 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(of.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"traceEvents"`) {
		t.Errorf("trace file is not a Chrome trace envelope:\n%s", data)
	}
}

func TestObsFlagsBadProfile(t *testing.T) {
	of := ObsFlags{Profile: "bogus"}
	if _, err := of.Start(); err == nil {
		t.Error("unknown profile kind should error")
	}
}

func TestObsFlagsMemProfile(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	of := ObsFlags{Profile: "mem"}
	sess, err := of.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat("mem.pprof"); err != nil || fi.Size() == 0 {
		t.Errorf("mem.pprof not written: %v", err)
	}
}
