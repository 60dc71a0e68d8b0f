package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bootstrap/internal/check"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
)

// Snapshot is one immutable loaded program plus its (lazily solved)
// analysis. The server publishes snapshots through an atomic pointer;
// every request loads the pointer exactly once and works against that
// snapshot for its whole lifetime, so a concurrent reload can never hand
// a request half of one program and half of another. Old snapshots stay
// valid until their last in-flight query returns, then the collector
// reclaims them.
type Snapshot struct {
	// ID increases by one per successful load; it is echoed in every
	// response so clients (and the torn-snapshot chaos test) can tell
	// which program answered.
	ID   int64
	Desc string
	Prog *ir.Program
	A    *core.Analysis

	// Checker runs are snapshot-scoped and memoized per pass name: the
	// first request for a pass starts its run, and later requests (and
	// requests that time out waiting) share it. POST /v1/lockset and
	// POST /check {"pass":"lockset"} read the same run.
	checkMu   sync.Mutex
	checkRuns map[string]*checkRun
}

// checkRun is one memoized (snapshot, pass) checker execution.
type checkRun struct {
	done chan struct{}
	rep  *check.Report
}

// buildSnapshot parses, lowers and analyzes src in the server's lazy
// configuration. Any error — parse, lowering, validation, analysis —
// leaves the server's current snapshot untouched.
func (s *Server) buildSnapshot(ctx context.Context, id int64, desc, src string) (*Snapshot, error) {
	prog, err := frontend.LowerSource(src)
	if err != nil {
		return nil, fmt.Errorf("load %q: %w", desc, err)
	}
	a, err := core.AnalyzeProgramContext(ctx, prog, s.acfg)
	if err != nil {
		return nil, fmt.Errorf("analyze %q: %w", desc, err)
	}
	return &Snapshot{
		ID:        id,
		Desc:      desc,
		Prog:      prog,
		A:         a,
		checkRuns: map[string]*checkRun{},
	}, nil
}

// Load analyzes src and publishes it as the first snapshot. It is the
// boot-time counterpart of Reload (no old snapshot to protect).
func (s *Server) Load(ctx context.Context, desc, src string) (*Snapshot, error) {
	return s.swap(ctx, desc, src)
}

// Reload analyzes src and, only on success, atomically swaps it in as
// the serving snapshot. In-flight queries keep answering from the
// snapshot they started on; queries that arrive after the swap see the
// new program. A failed reload is reported to the caller and leaves the
// old snapshot serving — reload is all-or-nothing.
//
// Reloads are serialized: concurrent calls run one at a time, each
// against the then-current snapshot ID.
func (s *Server) Reload(ctx context.Context, desc, src string) (*Snapshot, error) {
	sn, err := s.swap(ctx, desc, src)
	if err != nil {
		s.mReloadFail.Add(1)
		return nil, err
	}
	s.mReloads.Add(1)
	return sn, nil
}

func (s *Server) swap(ctx context.Context, desc, src string) (*Snapshot, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	var oldID int64
	if old := s.snap.Load(); old != nil {
		oldID = old.ID
	}
	sn, err := s.buildSnapshot(ctx, oldID+1, desc, src)
	if err != nil {
		return nil, err
	}
	// Chaos hook: widen the window between "new snapshot fully built"
	// and "new snapshot published". Queries running in this window must
	// still answer entirely from the old snapshot.
	if d := s.inj.ReloadPause(); d > 0 {
		time.Sleep(d)
	}
	s.snap.Store(sn)
	// A different program answers from here on: every remembered query
	// answer is stale, and subscribers need the new anchor.
	s.invalidateAllQueries(sn.ID)
	s.publishEvent(StreamEvent{
		Type: "snapshot", Snapshot: sn.ID,
		Clusters: len(sn.A.Clusters), Reloaded: true,
	})
	return sn, nil
}

// CheckPass runs one named checker pass against this snapshot, at most
// once per (snapshot, pass): the first request starts the run, later
// requests share it, and a request whose ctx expires first gets
// ready=false while the run continues for future callers.
func (sn *Snapshot) CheckPass(ctx context.Context, s *Server, pass check.Pass) (*check.Report, bool) {
	sn.checkMu.Lock()
	run, ok := sn.checkRuns[pass.Name()]
	if !ok {
		run = &checkRun{done: make(chan struct{})}
		sn.checkRuns[pass.Name()] = run
		go sn.computeCheck(s, pass, run)
	}
	sn.checkMu.Unlock()
	select {
	case <-run.done:
		return run.rep, true
	case <-ctx.Done():
		return nil, false
	}
}

func (sn *Snapshot) computeCheck(s *Server, pass check.Pass, run *checkRun) {
	defer close(run.done)
	// Pre-solve only the pass's footprint clusters (demand-driven: lock
	// pointers for lockset/deadlock, dereferenced pointers for
	// nullcheck/uaf), each solve holding one solve-semaphore slot so
	// checker warmup shares capacity fairly with cold user queries.
	pred := pass.Footprint(sn.Prog)
	var wg sync.WaitGroup
	for _, c := range sn.A.Clusters {
		if sn.A.ClusterSolved(c.ID) {
			continue
		}
		needed := false
		for _, p := range c.Pointers {
			if pred(sn.Prog.Var(p)) {
				needed = true
				break
			}
		}
		if !needed {
			continue
		}
		wg.Add(1)
		s.solveSem <- struct{}{}
		go func(id int) {
			defer wg.Done()
			defer func() { <-s.solveSem }()
			sn.A.EnsureCluster(context.Background(), id)
		}(c.ID)
	}
	wg.Wait()

	run.rep = check.Run(context.Background(), sn.A, check.Options{
		Passes:   []check.Pass{pass},
		Source:   sn.Desc,
		Snapshot: sn.ID,
		Tracer:   s.cfg.Tracer,
		Metrics:  s.cfg.Metrics,
	})
}
