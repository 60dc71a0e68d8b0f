// Package cliutil holds the flag surface shared by the repo's binaries
// (bootstrap, benchtab, clusterfig): the analysis-configuration flags
// that build a core.Config, and the observability flags (-trace,
// -metrics-addr, -profile) with the session plumbing behind them. Each
// binary registers the groups it needs on its own FlagSet, so a new
// shared flag lands in every command at once.
package cliutil

import (
	"flag"
	"fmt"
	"time"

	"bootstrap/internal/cache"
	"bootstrap/internal/core"
	"bootstrap/internal/dist"
)

// AnalysisFlags is the cascade-configuration flag group: everything a
// binary needs to build a core.Config. Zero value + Register = ready.
type AnalysisFlags struct {
	Mode       string
	Threshold  int
	UseOneFlow bool
	Workers    int
	Budget     int64

	RunTimeout     time.Duration
	ClusterTimeout time.Duration
	Retries        int

	CacheDir      string
	SteensPrecise bool
}

// Register installs the analysis flags on fs.
func (f *AnalysisFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Mode, "mode", "andersen", "clustering mode: none|steensgaard|andersen|syntactic")
	fs.IntVar(&f.Threshold, "threshold", 0, "Andersen threshold (0 = default 60)")
	fs.BoolVar(&f.UseOneFlow, "oneflow", false, "insert the One-Flow cascade stage")
	fs.IntVar(&f.Workers, "workers", 0, "parallel cluster workers (0 = GOMAXPROCS)")
	fs.Int64Var(&f.Budget, "budget", 0, "per-cluster work budget (0 = unlimited)")

	fs.DurationVar(&f.RunTimeout, "timeout", 0, "whole-run wall-clock deadline; on expiry remaining clusters degrade to the flow-insensitive fallback (0 = none)")
	fs.DurationVar(&f.ClusterTimeout, "cluster-timeout", 0, "per-cluster wall-clock deadline, the paper's 15-minute analogue (0 = none)")
	fs.IntVar(&f.Retries, "retries", 1, "degradation-ladder retries per failed cluster, each halving budget and condition width (0 = demote immediately)")

	fs.StringVar(&f.CacheDir, "cache-dir", "", "directory for the persistent per-cluster result cache; warm re-runs import unchanged clusters instead of re-solving (results identical)")
	fs.BoolVar(&f.SteensPrecise, "steens-precise", false, "oversharing-resistant Steensgaard: write-only sinks join source partitions via an overlay instead of unifying them (smaller max partition; sound, may be more precise)")
}

// DistFlags is the distributed-execution flag group shared by
// bootstrap, benchtab and aliaswork: shard count, binning policy and
// lease TTL. Zero value + Register = ready; Shards == 0 (or 1 with the
// other flags untouched) means single-process execution.
type DistFlags struct {
	Shards   int
	Binning  string
	LeaseTTL time.Duration
}

// Register installs the distributed-execution flags on fs.
func (f *DistFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Shards, "shards", 0, "distribute the eager per-cluster solve across N worker processes (0 = single-process)")
	fs.StringVar(&f.Binning, "binning", string(dist.BinningSteal), "cluster-to-shard policy: steal (greedy bins + work stealing) or greedy (the paper's static bins)")
	fs.DurationVar(&f.LeaseTTL, "lease-ttl", 0, "work-item lease duration before a silent worker's cluster is re-issued (0 = default 5s)")
}

// Enabled reports whether the flags request distributed execution.
func (f *DistFlags) Enabled() bool { return f.Shards > 0 }

// Options builds the dist.RunOptions the flags describe. cacheDir is
// the shared result-cache directory ("" = a run-scoped temp dir).
func (f *DistFlags) Options(cacheDir string) (dist.RunOptions, error) {
	binning, err := dist.ParseBinning(f.Binning)
	if err != nil {
		return dist.RunOptions{}, err
	}
	return dist.RunOptions{
		Shards:   f.Shards,
		Binning:  binning,
		LeaseTTL: f.LeaseTTL,
		CacheDir: cacheDir,
	}, nil
}

// ParseMode maps a -mode flag value to a core.Mode.
func ParseMode(s string) (core.Mode, error) {
	switch s {
	case "none":
		return core.ModeNone, nil
	case "steensgaard", "steens":
		return core.ModeSteensgaard, nil
	case "andersen":
		return core.ModeAndersen, nil
	case "syntactic":
		return core.ModeSyntactic, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// LadderRetries maps a -retries flag value to core.Config.Retries, where
// the config's 0 means "use the default" and negative disables retries.
func LadderRetries(n int) int {
	if n <= 0 {
		return -1 // demote on the first failure
	}
	return n
}

// Config builds the core.Config the flags describe, creating the result
// cache when -cache-dir was given.
func (f *AnalysisFlags) Config() (core.Config, error) {
	m, err := ParseMode(f.Mode)
	if err != nil {
		return core.Config{}, err
	}
	if f.Workers < 0 {
		return core.Config{}, fmt.Errorf("-workers %d: want 0 (GOMAXPROCS) or more", f.Workers)
	}
	cfg := core.Config{
		Mode:              m,
		AndersenThreshold: f.Threshold,
		UseOneFlow:        f.UseOneFlow,
		Workers:           f.Workers,
		ClusterBudget:     f.Budget,
		ClusterTimeout:    f.ClusterTimeout,
		RunTimeout:        f.RunTimeout,
		Retries:           LadderRetries(f.Retries),
		SteensPrecise:     f.SteensPrecise,
	}
	if f.CacheDir != "" {
		cfg.Cache = cache.New(cache.Options{Dir: f.CacheDir})
	}
	return cfg, nil
}
