package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"bootstrap/internal/andersen"
	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/fscs"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
	"bootstrap/internal/steens"
)

// HealthStatus is the final disposition of one cluster under the
// fault-tolerant scheduler.
type HealthStatus uint8

const (
	// HealthOK: the first attempt completed within budget and deadline.
	HealthOK HealthStatus = iota
	// HealthRetried: an attempt blew its budget or deadline, but a
	// degradation-ladder retry (halved MaxCond and budget) completed.
	HealthRetried
	// HealthRecovered: an attempt panicked; the panic was isolated and a
	// ladder retry completed.
	HealthRecovered
	// HealthExhausted: the final attempt ran out of work budget; the
	// cluster is demoted to the flow-insensitive fallback.
	HealthExhausted
	// HealthTimedOut: the final attempt hit its wall-clock deadline (or
	// the whole-run deadline expired); demoted to the fallback.
	HealthTimedOut
	// HealthDegraded: the final attempt panicked or failed with an
	// unexpected engine error; demoted to the fallback.
	HealthDegraded
)

var healthNames = [...]string{"ok", "retried", "recovered", "exhausted", "timed-out", "degraded"}

func (s HealthStatus) String() string {
	if int(s) < len(healthNames) {
		return healthNames[s]
	}
	return fmt.Sprintf("status(%d)", s)
}

// ClusterHealth reports how one cluster's FSCS engine fared: the final
// status, how many ladder attempts ran, the wall-clock spent across them,
// and — for failures — the captured error and panic stack.
type ClusterHealth struct {
	ClusterID int
	Status    HealthStatus
	Attempts  int
	Elapsed   time.Duration
	// Err is the last attempt's failure: fscs.ErrBudget (wrapped) on
	// exhaustion, a context error on deadline/cancellation, a synthesized
	// error for panics. Nil when the final attempt succeeded.
	Err error
	// Stack is the captured stack trace of the last panicked attempt.
	Stack string
	// Cached reports that the engine was imported from Config.Cache
	// instead of solved: the cluster's fingerprint hit a stored result
	// (bit-for-bit identical to a fresh solve, per Theorem 6).
	Cached bool
	// Demoted reports that no engine survived: queries on this cluster's
	// pointers answer from the flow-insensitive Andersen fallback (still
	// sound, flow-insensitively precise).
	Demoted bool
}

// Outcome is the one-word disposition used by traces and metrics:
// "cached" (imported from the result cache), "demoted" (fell back to the
// flow-insensitive answer) or "solved" (an engine ran to completion).
func (h ClusterHealth) Outcome() string {
	switch {
	case h.Cached:
		return "cached"
	case h.Demoted:
		return "demoted"
	default:
		return "solved"
	}
}

// defaultRetries is the degradation ladder's default: one retry with
// halved MaxCond and budget before demotion.
const defaultRetries = 1

func ladderRetries(n int) int {
	switch {
	case n < 0:
		return 0
	case n == 0:
		return defaultRetries
	default:
		return n
	}
}

// ctxErr reports ctx's failure, treating an already-passed deadline as
// exceeded even when the context's timer has not fired yet — keeps
// nanosecond (test) deadlines deterministic.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// runAttempt builds and runs one engine, converting a panic anywhere in
// engine construction or the worklist loops into an error plus captured
// stack — the isolation boundary that keeps one broken cluster from
// taking down the whole analysis.
func runAttempt(prog *ir.Program, cg *callgraph.Graph, sa *steens.Analysis,
	c *cluster.Cluster, opts []fscs.Option) (eng *fscs.Engine, err error, stack string) {
	defer func() {
		if r := recover(); r != nil {
			eng = nil
			err = fmt.Errorf("core: cluster %d engine panicked: %v", c.ID, r)
			stack = string(debug.Stack())
		}
	}()
	eng = fscs.NewEngine(prog, cg, sa, c, opts...)
	return eng, eng.Run(), ""
}

// RunCluster runs one cluster's FSCS engine under the fault-tolerant
// degradation ladder: each attempt gets cfg.ClusterTimeout of wall clock
// (the paper's 15-minute analogue) and cfg.ClusterBudget tuples; on
// budget exhaustion, deadline or panic the cluster is retried with halved
// MaxCond and budget (cfg.Retries times, default one), and after the last
// failure it is demoted — the returned engine is nil and callers must
// answer its queries from the flow-insensitive fallback. ctx cancels the
// remaining attempts (nil means background). fallback may be nil.
func RunCluster(ctx context.Context, prog *ir.Program, cg *callgraph.Graph, sa *steens.Analysis,
	c *cluster.Cluster, fallback *andersen.Analysis, cfg Config) (*fscs.Engine, ClusterHealth) {
	if ctx == nil {
		ctx = context.Background()
	}
	worker := obs.WorkerFrom(ctx)
	tid := obs.WorkerTID(worker)
	sp := cfg.Tracer.Start("cluster", fmt.Sprintf("cluster-%d", c.ID), tid).
		Arg("cluster", c.ID).Arg("size", c.Size()).Arg("worker", worker)
	eng, h := runLadder(ctx, prog, cg, sa, c, fallback, cfg, tid)
	sp.Arg("attempts", h.Attempts).
		Arg("status", h.Status.String()).
		Arg("outcome", h.Outcome()).
		End()
	recordClusterMetrics(cfg.Metrics, c, h)
	return eng, h
}

// recordClusterMetrics books one finished cluster into the registry.
func recordClusterMetrics(m *obs.Metrics, c *cluster.Cluster, h ClusterHealth) {
	if m == nil {
		return
	}
	m.Counter("bootstrap_clusters_"+h.Outcome()+"_total",
		"clusters by final outcome (solved, cached, demoted)").Add(1)
	if h.Attempts > 1 {
		m.Counter("bootstrap_ladder_retries_total",
			"degradation-ladder retry attempts across all clusters").Add(int64(h.Attempts - 1))
	}
	m.Histogram("bootstrap_cluster_solve_seconds",
		"wall-clock per cluster across all ladder attempts", obs.SecondsBuckets).
		Observe(h.Elapsed.Seconds())
	m.Histogram("bootstrap_cluster_size_pointers",
		"pointers per scheduled cluster", obs.SizeBuckets).
		Observe(float64(c.Size()))
}

// runLadder is RunCluster's body: the cache probe plus the degradation
// ladder itself, emitting attempt and cache spans on the worker's track.
func runLadder(ctx context.Context, prog *ir.Program, cg *callgraph.Graph, sa *steens.Analysis,
	c *cluster.Cluster, fallback *andersen.Analysis, cfg Config, tid int) (*fscs.Engine, ClusterHealth) {
	tr := cfg.Tracer
	budget := cfg.ClusterBudget
	maxCond := maxCondOrDefault(cfg.MaxCond)
	attempts := 1 + ladderRetries(cfg.Retries)
	h := ClusterHealth{ClusterID: c.ID}
	start := time.Now()

	// Consult the result cache before paying for a solve. The fingerprint
	// covers everything the engine's result can depend on (slice, reachable
	// CFG skeletons, Steensgaard structure, precision knobs), so a hit
	// imports the stored summaries and value sets directly. Armed fault
	// injection bypasses the cache: injected behavior is attempt-local by
	// design. A plan with nothing armed (a live server whose chaos mode is
	// off) leaves caching on.
	var cn *cache.Canon
	useCache := cfg.Cache != nil && !cfg.Faults.Active()
	if useCache {
		psp := tr.Start("cache", "cache.probe", tid).Arg("cluster", c.ID)
		cn = cache.NewCanon(prog, sa, cg, c, cache.Params{MaxCond: maxCond, Budget: budget})
		data, ok := cfg.Cache.Get(cn.Key())
		psp.Arg("hit", ok).End()
		if ok {
			isp := tr.Start("cache", "cache.import", tid).
				Arg("cluster", c.ID).Arg("bytes", len(data))
			eng, err := fscs.ImportEngine(prog, cg, sa, c, cn, data,
				fscs.WithFallback(fallback),
				fscs.WithBudget(budget),
				fscs.WithMaxCond(maxCond),
				fscs.WithMetrics(cfg.Metrics))
			isp.Arg("ok", err == nil).End()
			if err == nil {
				h.Status = HealthOK
				h.Cached = true
				h.Elapsed = time.Since(start)
				return eng, h
			}
			// Undecodable payload: demote the hit to a miss and solve.
			cfg.Cache.Corrupt(cn.Key())
		}
	}
	anyPanic := false     // some attempt panicked
	lastPanicked := false // the most recent attempt panicked
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctxErr(ctx); err != nil {
			// The whole run is cancelled or out of time: don't burn
			// retries on a deadline that can never be met.
			h.Err = err
			lastPanicked = false
			break
		}
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if cfg.ClusterTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, cfg.ClusterTimeout)
		}
		opts := []fscs.Option{
			fscs.WithFallback(fallback),
			fscs.WithBudget(budget),
			fscs.WithMaxCond(maxCond),
			fscs.WithContext(attemptCtx),
			fscs.WithMetrics(cfg.Metrics),
		}
		if cfg.Faults != nil {
			if hook := cfg.Faults.Hook(c.ID); hook != nil {
				opts = append(opts, fscs.WithHook(hook))
			}
		}
		asp := tr.Start("cluster", "attempt", tid).
			Arg("cluster", c.ID).Arg("attempt", attempt).
			Arg("budget", budget).Arg("max_cond", maxCond)
		eng, err, stack := runAttempt(prog, cg, sa, c, opts)
		cancel()
		if err == nil {
			asp.Arg("ok", true).End()
		} else {
			asp.Arg("ok", false).Arg("error", err.Error()).End()
		}
		h.Attempts = attempt + 1
		if err == nil {
			// The solve is complete: shed the attempt's context and fault
			// hook so later query-driven computation on this engine cannot
			// abort on the long-dead attempt deadline (or trip a fault
			// that was injected into the solve).
			eng.Detach()
			h.Err = nil
			h.Elapsed = time.Since(start)
			switch {
			case attempt == 0:
				h.Status = HealthOK
				// Only a clean first attempt is stored: retried engines ran
				// with halved knobs, and the fingerprint keys the originals.
				if useCache {
					if payload, ok := eng.ExportState(cn); ok {
						ssp := tr.Start("cache", "cache.store", tid).
							Arg("cluster", c.ID).Arg("bytes", len(payload))
						cfg.Cache.Put(cn.Key(), payload)
						ssp.End()
					}
				}
			case anyPanic:
				h.Status = HealthRecovered
			default:
				h.Status = HealthRetried
			}
			return eng, h
		}
		h.Err = err
		lastPanicked = stack != ""
		if lastPanicked {
			h.Stack = stack
			anyPanic = true
		}
		// Walk down the ladder: the retry runs cheaper, trading condition
		// width and budget for a chance to finish.
		if budget > 1 {
			budget /= 2
		}
		if maxCond > 1 {
			maxCond /= 2
		}
	}
	// Every attempt failed (or the run deadline expired first): demote
	// permanently to the flow-insensitive answer.
	h.Elapsed = time.Since(start)
	h.Demoted = true
	switch {
	case lastPanicked:
		h.Status = HealthDegraded
	case errors.Is(h.Err, fscs.ErrBudget):
		h.Status = HealthExhausted
	case errors.Is(h.Err, context.DeadlineExceeded) || errors.Is(h.Err, context.Canceled):
		h.Status = HealthTimedOut
	default:
		h.Status = HealthDegraded
	}
	return nil, h
}
