// Package serve is the alias-query daemon: it loads a program once and
// answers MayAlias / PointsTo / Lockset queries over HTTP/JSON, solving
// clusters lazily on first touch through the bootstrapped cascade.
//
// The package is the robustness layer between the analysis and the
// network:
//
//   - Single-flight solves: N concurrent cold queries on one cluster
//     trigger exactly one solve (core.EnsureCluster); the rest wait.
//   - Per-query deadlines with graceful degradation: a query whose
//     deadline expires mid-solve answers at Andersen precision, tagged
//     degraded:true — never an error, never a hang.
//   - Bounded admission: cold queries beyond the configured queue depth
//     are shed with 429 + Retry-After; warm queries (all clusters
//     already solved) bypass the queue entirely.
//   - Snapshot isolation: POST /reload analyzes the new program off to
//     the side and atomically swaps it in; in-flight queries finish on
//     the old snapshot, failed reloads leave the old one serving.
//   - Lifecycle: /healthz, /readyz, graceful drain, panic-isolated
//     handlers.
package serve

import (
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bootstrap/internal/cache"
	"bootstrap/internal/core"
	"bootstrap/internal/faults"
	"bootstrap/internal/obs"
)

// Config configures a Server. The zero value is usable: lazy analysis
// with an in-memory result cache, a 2s query deadline, a queue depth of
// 64 and GOMAXPROCS concurrent solves.
type Config struct {
	// Analysis is the underlying core configuration. The server forces
	// Lazy mode (engines solve at query time), clears Demand (the cover
	// must span every pointer a client may ask about) and, when no cache
	// is set, installs a process-local in-memory result cache so reloads
	// of similar programs start warm.
	Analysis core.Config

	// QueryTimeout is the per-query deadline (default 2s). A request may
	// lower it via timeout_ms but never raise it.
	QueryTimeout time.Duration

	// QueueDepth bounds how many cold queries may be waiting for a solve
	// slot before the server sheds load with 429 (0 defaults to 64;
	// negative means no queue at all — shed whenever no slot is free).
	QueueDepth int

	// MaxSolves bounds how many cluster solves run concurrently
	// (default GOMAXPROCS). Warm queries are not counted.
	MaxSolves int

	// DrainTimeout bounds graceful shutdown (default 10s); exported so
	// cmd/aliasd and tests share one knob.
	DrainTimeout time.Duration

	// EditTimeout bounds each POST /edit batch's incremental re-solve
	// (default 15s; a request may lower it via timeout_ms). On expiry the
	// batch is rejected with 422 and the old snapshot keeps serving; the
	// other batches of its group still land.
	EditTimeout time.Duration

	// Regen, when non-nil, lets POST /reload regenerate the program
	// without shipping source over the wire: cmd/aliasd re-reads the
	// program file, or re-synthesizes the -synth workload salted by the
	// request's variant number. A reload body with explicit source
	// bypasses it.
	Regen func(variant int) (desc, src string, err error)

	// AllowChaos mounts POST /chaos, letting clients arm deterministic
	// fault injection (solve faults, latency spikes, reload pauses) on a
	// live server. Off by default: chaos is opt-in at boot, and without
	// it injection is permanently off.
	AllowChaos bool

	Metrics *obs.Metrics
	Tracer  *obs.Tracer
}

// queryLanes is how many trace tracks per-query spans hash over.
const queryLanes = 8

// Server is the daemon: an http.Handler plus the snapshot/admission
// machinery behind it. Create with New, publish a first snapshot with
// Load, then serve Handler().
type Server struct {
	cfg  Config
	acfg core.Config // the forced-lazy analysis config snapshots use

	plan *faults.Plan          // solve-time fault plan (shared with acfg.Faults)
	inj  *faults.ServeInjector // serve-side faults; nil without AllowChaos

	snap     atomic.Pointer[Snapshot]
	reloadMu sync.Mutex // serializes swap() and edit application; queries never take it

	// Edit coalescing: concurrent POST /edit batches queue here; whoever
	// holds reloadMu drains the queue and publishes one snapshot for all
	// of them (see edit.go).
	editMu sync.Mutex
	editQ  []*editWaiter

	// Live subscriptions (GET /subscribe) and the recent-query ring the
	// invalidation events are derived from (see stream.go).
	subMu sync.Mutex
	subs  map[*subscriber]struct{}
	ring  queryRing

	handlerOnce sync.Once
	handler     http.Handler

	draining atomic.Bool
	waiting  atomic.Int64  // cold queries queued for admission right now
	solveSem chan struct{} // bounds concurrent cluster solves
	lane     atomic.Int64  // round-robin trace lane

	// coldEWMA tracks recent cold-query latency (microseconds) to give
	// shed clients an honest Retry-After.
	coldEWMA atomic.Int64

	mQueries     *obs.Counter
	mWarm        *obs.Counter
	mCold        *obs.Counter
	mDegraded    *obs.Counter
	mShed        *obs.Counter
	mReloads     *obs.Counter
	mReloadFail  *obs.Counter
	mPanics      *obs.Counter
	mEdits       *obs.Counter
	mEditFail    *obs.Counter
	mEditFellTo  *obs.Counter
	mCoalesced   *obs.Counter
	mInvalidated *obs.Counter
	hQuery       *obs.Histogram
	hCold        *obs.Histogram
	hEdit        *obs.Histogram
}

// New builds a Server from cfg. It does not load a program: call Load
// (or serve /reload) to publish the first snapshot; until then /readyz
// reports 503 and queries fail with 503.
func New(cfg Config) *Server {
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 2 * time.Second
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = 64
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	if cfg.MaxSolves <= 0 {
		cfg.MaxSolves = runtime.GOMAXPROCS(0)
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.EditTimeout <= 0 {
		cfg.EditTimeout = 15 * time.Second
	}

	acfg := cfg.Analysis
	acfg.Lazy = true
	acfg.Demand = nil
	acfg.Metrics = cfg.Metrics
	acfg.Tracer = cfg.Tracer
	if acfg.Cache == nil {
		acfg.Cache = cache.New(cache.Options{})
	}
	if acfg.ClusterTimeout <= 0 {
		// Bound each ladder attempt: a cluster the deadline abandoned
		// should still land (for future queries) in bounded time.
		acfg.ClusterTimeout = 2 * cfg.QueryTimeout
	}

	s := &Server{cfg: cfg, subs: map[*subscriber]struct{}{}}
	if cfg.AllowChaos {
		// One mutable plan for the server's lifetime: /chaos re-arms it
		// under live traffic. While nothing is armed, Plan.Active() is
		// false and the result cache stays on.
		if acfg.Faults != nil {
			s.plan = acfg.Faults
		} else {
			s.plan = faults.NewPlan()
			acfg.Faults = s.plan
		}
		s.inj = faults.NewServeInjector()
	}
	s.acfg = acfg
	s.solveSem = make(chan struct{}, cfg.MaxSolves)

	if m := cfg.Metrics; m != nil {
		s.mQueries = m.Counter("aliasd_queries_total", "alias queries served")
		s.mWarm = m.Counter("aliasd_queries_warm_total", "queries that bypassed admission (all clusters solved)")
		s.mCold = m.Counter("aliasd_queries_cold_total", "queries that needed at least one cluster solve")
		s.mDegraded = m.Counter("aliasd_degraded_total", "queries answered at fallback precision")
		s.mShed = m.Counter("aliasd_shed_total", "cold queries rejected with 429 (queue full)")
		s.mReloads = m.Counter("aliasd_reloads_total", "successful snapshot swaps")
		s.mReloadFail = m.Counter("aliasd_reload_failures_total", "rejected reloads (old snapshot kept serving)")
		s.mPanics = m.Counter("aliasd_handler_panics_total", "handler panics recovered into 500s")
		s.mEdits = m.Counter("aliasd_edits_total", "edit batches applied")
		s.mEditFail = m.Counter("aliasd_edit_failures_total", "rejected edit batches (snapshot unchanged)")
		s.mEditFellTo = m.Counter("aliasd_edit_fallbacks_total", "edit batches that fell back to full reanalysis")
		s.mCoalesced = m.Counter("aliasd_edits_coalesced_total", "edit batches processed by another batch's leader")
		s.mInvalidated = m.Counter("aliasd_invalidations_total", "invalidation events pushed to subscribers")
		s.hQuery = m.Histogram("aliasd_query_seconds", "query latency, all queries", obs.SecondsBuckets)
		s.hCold = m.Histogram("aliasd_cold_query_seconds", "query latency, cold queries", obs.SecondsBuckets)
		s.hEdit = m.Histogram("aliasd_edit_seconds", "edit batch latency (resolve + incremental re-solve)", obs.SecondsBuckets)
		m.GaugeFunc("aliasd_subscribers", "live /subscribe connections",
			func() float64 {
				s.subMu.Lock()
				defer s.subMu.Unlock()
				return float64(len(s.subs))
			})
		m.GaugeFunc("aliasd_queue_waiting", "cold queries waiting for admission",
			func() float64 { return float64(s.waiting.Load()) })
		m.GaugeFunc("aliasd_snapshot", "serving snapshot id (0 = none)",
			func() float64 {
				if sn := s.snap.Load(); sn != nil {
					return float64(sn.ID)
				}
				return 0
			})
		m.GaugeFunc("aliasd_ready", "1 when serving and not draining",
			func() float64 {
				if s.Ready() {
					return 1
				}
				return 0
			})
	}
	for i := 0; i < queryLanes; i++ {
		cfg.Tracer.NameThread(obs.QueryTID(i), "query-lane")
	}
	return s
}

// Snapshot returns the serving snapshot (nil before the first Load).
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Ready reports whether the server would pass /readyz: it has a
// snapshot and is not draining.
func (s *Server) Ready() bool { return s.snap.Load() != nil && !s.draining.Load() }

// BeginDrain flips the server into draining: /readyz turns 503 (so load
// balancers stop routing here) and new queries are refused while
// in-flight ones finish. The HTTP listener's own Shutdown completes the
// drain; BeginDrain is idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// admission verdicts for one cold query.
type admitVerdict uint8

const (
	admitOK      admitVerdict = iota // got a solve slot; caller must release()
	admitShed                        // queue full: shed with 429
	admitExpired                     // deadline hit while queued: degrade, don't solve
)

// admitCold runs the bounded admission queue for one cold query. With a
// free solve slot it admits immediately. Otherwise the query waits —
// but only if fewer than QueueDepth queries are already waiting (else
// shed) and only until ctx expires (then the query proceeds without a
// slot and answers degraded; EnsureCluster under an expired context
// returns the fallback without starting work).
func (s *Server) admitCold(done <-chan struct{}) (release func(), v admitVerdict) {
	select {
	case s.solveSem <- struct{}{}:
		return func() { <-s.solveSem }, admitOK
	default:
	}
	if int(s.waiting.Load()) >= s.cfg.QueueDepth {
		return nil, admitShed
	}
	s.waiting.Add(1)
	defer s.waiting.Add(-1)
	select {
	case s.solveSem <- struct{}{}:
		return func() { <-s.solveSem }, admitOK
	case <-done:
		return nil, admitExpired
	}
}

// retryAfter estimates how long a shed client should back off: the
// queue's expected drain time from recent cold-latency EWMA, clamped to
// [1s, 30s].
func (s *Server) retryAfter() time.Duration {
	ewma := time.Duration(s.coldEWMA.Load()) * time.Microsecond
	if ewma <= 0 {
		ewma = s.cfg.QueryTimeout
	}
	waves := (s.waiting.Load() + int64(s.cfg.QueueDepth)) / int64(s.cfg.MaxSolves)
	d := ewma * time.Duration(waves+1)
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// observeCold folds one cold-query latency into the EWMA (alpha 0.2).
func (s *Server) observeCold(elapsed time.Duration) {
	us := elapsed.Microseconds()
	old := s.coldEWMA.Load()
	if old == 0 {
		s.coldEWMA.Store(us)
		return
	}
	s.coldEWMA.Store(old + (us-old)/5)
}

// Chaos arms (or disarms) fault injection from a ChaosRequest. It is
// the programmatic face of POST /chaos; tests call it directly.
func (s *Server) Chaos(req ChaosRequest) {
	if s.plan != nil {
		var f faults.Fault
		switch req.SolveFaultKind {
		case "panic":
			f.Kind = faults.Panic
		case "slow":
			f.Kind = faults.Slow
			f.Delay = time.Duration(req.SolveSlowMS) * time.Millisecond
		case "budget":
			f.Kind = faults.Budget
		}
		f.Attempts = req.FaultAttempts
		if req.SolveFaultEvery > 0 && f.Kind != faults.None {
			s.plan.EveryNth(req.SolveFaultEvery, f)
		} else {
			s.plan.EveryNth(0, faults.Fault{})
		}
	}
	s.inj.SetLatency(req.LatencyEvery, time.Duration(req.LatencyMS)*time.Millisecond)
	s.inj.SetReloadPause(time.Duration(req.ReloadPauseMS) * time.Millisecond)
}

// ChaosArmed reports whether any injection is currently armed.
func (s *Server) ChaosArmed() bool {
	return s.plan.Active() || s.inj.ReloadPause() > 0 || s.inj.LatencyArmed()
}

var _ http.Handler = (*Server)(nil) // ServeHTTP delegates to Handler(); see handlers.go
