// Package dist shards the eager per-cluster FSCS stage of one analysis
// across OS processes — the paper's third scalability prong (its
// simulated 5-machine binning) made real.
//
// The architecture leans on two earlier layers instead of inventing a
// data plane:
//
//   - core.BuildPlan is deterministic: every process that lowers the
//     same source under the same knobs computes the same alias cover
//     with the same cluster IDs. Work items are therefore bare cluster
//     IDs; nothing else needs to move.
//   - The content-addressed result cache (package cache) is the entire
//     result-exchange medium: a worker that solves a cluster publishes
//     the engine's exported state into the shared cache directory under
//     the cluster's slice fingerprint, and the coordinator's merge pass
//     (core.AnalyzeFromPlan over the same cache) imports it bit-for-bit
//     (Theorem 6). A result that never arrives — lost worker, expired
//     lease, failed store — is simply solved locally by the merge pass
//     through the ordinary retry-then-demote ladder, so worker loss can
//     degrade throughput but never correctness.
//
// The coordinator serves a claim/complete/renew lease queue over a
// local HTTP endpoint. Clusters are pre-binned with the paper's static
// greedy heuristic; in the default work-stealing mode a worker whose
// home bin runs dry steals from the fullest remaining bin, which is
// what beats static binning when cluster solve times are skewed (the
// measured comparison lives in BENCH_shard.json).
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"bootstrap/internal/cache"
	"bootstrap/internal/core"
)

// protocolVersion is hashed into every manifest fingerprint: a
// coordinator and worker from different builds of the protocol can
// never exchange work.
const protocolVersion = "bootstrap-dist/v1"

// Binning names the cluster-to-shard assignment policy.
type Binning string

const (
	// BinningSteal seeds shards with the greedy bins but lets an idle
	// worker steal pending clusters from the fullest remaining bin —
	// dynamic load balance (the default).
	BinningSteal Binning = "steal"
	// BinningGreedy is the paper's static policy: each shard owns
	// exactly its greedy bin, idle or not.
	BinningGreedy Binning = "greedy"
)

// ParseBinning validates a -binning flag value.
func ParseBinning(s string) (Binning, error) {
	switch Binning(s) {
	case BinningSteal, BinningGreedy:
		return Binning(s), nil
	}
	return "", fmt.Errorf("unknown binning %q (want steal or greedy)", s)
}

// WireConfig is the subset of core.Config a worker needs to rebuild the
// coordinator's exact plan and engine parameters: every field that shapes
// results. Worker count, cache and observability are local choices and
// stay off the wire.
type WireConfig struct {
	Mode              string        `json:"mode"`
	AndersenThreshold int           `json:"andersen_threshold"`
	UseOneFlow        bool          `json:"use_one_flow,omitempty"`
	MaxCond           int           `json:"max_cond,omitempty"`
	ClusterBudget     int64         `json:"cluster_budget,omitempty"`
	ClusterTimeout    time.Duration `json:"cluster_timeout,omitempty"`
	Retries           int           `json:"retries,omitempty"`
	SteensPrecise     bool          `json:"steens_precise,omitempty"`
}

// WireFromConfig extracts the wire subset of a config.
func WireFromConfig(cfg core.Config) WireConfig {
	return WireConfig{
		Mode:              cfg.Mode.String(),
		AndersenThreshold: cfg.AndersenThreshold,
		UseOneFlow:        cfg.UseOneFlow,
		MaxCond:           cfg.MaxCond,
		ClusterBudget:     cfg.ClusterBudget,
		ClusterTimeout:    cfg.ClusterTimeout,
		Retries:           cfg.Retries,
		SteensPrecise:     cfg.SteensPrecise,
	}
}

// ToConfig rebuilds the core.Config a worker solves under. Workers run
// one engine at a time (per-cluster parallelism lives in the shard
// fanout, not inside a worker), and the shared cache directory is the
// result channel.
func (w WireConfig) ToConfig(cacheDir string) (core.Config, error) {
	var mode core.Mode
	switch w.Mode {
	case "none":
		mode = core.ModeNone
	case "steensgaard":
		mode = core.ModeSteensgaard
	case "andersen":
		mode = core.ModeAndersen
	case "syntactic":
		mode = core.ModeSyntactic
	default:
		return core.Config{}, fmt.Errorf("dist: unknown mode %q", w.Mode)
	}
	cfg := core.Config{
		Mode:              mode,
		AndersenThreshold: w.AndersenThreshold,
		UseOneFlow:        w.UseOneFlow,
		MaxCond:           w.MaxCond,
		ClusterBudget:     w.ClusterBudget,
		ClusterTimeout:    w.ClusterTimeout,
		Retries:           w.Retries,
		SteensPrecise:     w.SteensPrecise,
		Workers:           1,
	}
	if cacheDir != "" {
		cfg.Cache = cache.New(cache.Options{Dir: cacheDir})
	}
	return cfg, nil
}

// Fingerprint is the front-end identity a worker must reproduce before
// it may claim work: protocol version, the exact source text, and the
// result-shaping knobs. Claiming with a mismatched fingerprint is a
// protocol error — it would solve the wrong clusters under the wrong
// parameters.
func Fingerprint(source string, wc WireConfig) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00", protocolVersion, len(source))
	h.Write([]byte(source))
	fmt.Fprintf(h, "\x00%+v", wc)
	return hex.EncodeToString(h.Sum(nil))
}

// Item is one unit of distributable work: a cluster of the shared plan.
type Item struct {
	Cluster int `json:"cluster"`
	Size    int `json:"size"` // pointer count, the greedy heuristic's weight
	Bin     int `json:"bin"`  // home shard under the greedy binning
}

// Manifest is what a joining worker downloads once: the work list, the
// binning policy, the knobs, and where results go.
type Manifest struct {
	Fingerprint string     `json:"fingerprint"`
	Shards      int        `json:"shards"`
	Binning     Binning    `json:"binning"`
	LeaseTTLMS  int64      `json:"lease_ttl_ms"`
	CacheDir    string     `json:"cache_dir"`
	Config      WireConfig `json:"config"`
	Items       []Item     `json:"items"`
}

// Claim/complete/renew wire bodies. Leases are opaque increasing IDs;
// a stale lease (expired and re-issued) is rejected so a zombie worker
// can never complete an item out from under its successor.
type (
	JoinRequest struct {
		Worker string `json:"worker"`
		// Fingerprint echoes the manifest fingerprint the worker
		// recomputed locally; a mismatch refuses the join.
		Fingerprint string `json:"fingerprint"`
	}
	JoinResponse struct {
		Shard int `json:"shard"`
	}
	ClaimRequest struct {
		Worker string `json:"worker"`
		Shard  int    `json:"shard"`
	}
	ClaimResponse struct {
		// Status: "work" (an item is leased to you), "wait" (everything
		// is leased out; retry after RetryMS), "done" (queue drained).
		Status  string `json:"status"`
		Cluster int    `json:"cluster,omitempty"`
		Lease   int64  `json:"lease,omitempty"`
		TTLMS   int64  `json:"ttl_ms,omitempty"`
		Stolen  bool   `json:"stolen,omitempty"`
		RetryMS int64  `json:"retry_ms,omitempty"`
	}
	CompleteRequest struct {
		Worker  string `json:"worker"`
		Lease   int64  `json:"lease"`
		Cluster int    `json:"cluster"`
		// BusyNS is the CPU time the worker spent solving the cluster
		// (rusage delta) — the machine-independent cost the speedup and
		// utilization columns are computed from.
		BusyNS int64 `json:"busy_ns"`
		// Outcome is the cluster's ClusterHealth outcome word
		// (solved/cached/demoted) as observed by the worker.
		Outcome string `json:"outcome"`
		// Stored reports whether the worker published the result into
		// the shared cache (false for demoted or store-failed solves —
		// the merge pass then solves locally).
		Stored bool `json:"stored"`
	}
	RenewRequest struct {
		Worker string `json:"worker"`
		Lease  int64  `json:"lease"`
	}
	// Ack is the generic success body; errors use plain HTTP statuses.
	Ack struct {
		OK bool `json:"ok"`
	}
)

// claimWait is how long a worker is told to sleep when every pending
// item is leased out.
const claimWait = 25 * time.Millisecond
