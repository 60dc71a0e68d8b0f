// Command aliasd is the alias-query daemon: it loads a CPL program (or a
// synthesized Table 1 workload) once, bootstraps the cascade lazily, and
// serves MayAlias / PointsTo / Lockset queries over HTTP/JSON. Clusters
// solve on first touch; repeat queries are answered from solved engines
// in microseconds.
//
// Usage:
//
//	aliasd [flags] program.cpl
//	aliasd -synth autofs -synth-scale 0.12 [flags]
//
// Endpoints (see internal/serve):
//
//	POST /v1/mayalias {"p":"x","q":"y","at":"main"}
//	POST /v1/pointsto {"p":"x"}
//	POST /check       {"pass":"lockset"}  run a checker pass (lockset,
//	                  deadlock, nullcheck, uaf) against the live snapshot;
//	                  findings carry aliaslint fingerprints + snapshot id
//	POST /v1/lockset  {}  the lockset pass's /check answer, from the same run
//	GET  /v1/info     GET /v1/vars
//	POST /reload      {"source": "..."} or {"variant": 3} (re-reads the
//	                  program file / re-synthesizes the workload)
//	POST /edit        {"edits":[{"action":"replace","loc":41,...}]} apply
//	                  an edit batch incrementally: only dirty clusters
//	                  re-solve, the rest of the snapshot is reused
//	GET  /subscribe   SSE stream of snapshot/cluster/invalidate events
//	POST /chaos       (with -chaos) arm deterministic fault injection
//	GET  /healthz     GET /readyz
//	GET  /metrics     /debug/vars  /debug/pprof/*  (with -trace/-metrics flags or by default registry)
//
// Robustness: queries carry a deadline (-query-timeout) and degrade to
// the flow-insensitive answer instead of erroring; cold queries beyond
// -queue-depth waiting are shed with 429 + Retry-After; /reload swaps
// program snapshots atomically under live traffic; SIGTERM drains
// gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bootstrap/internal/cliutil"
	"bootstrap/internal/obs"
	"bootstrap/internal/serve"
	"bootstrap/internal/synth"
)

var (
	analysisFlags cliutil.AnalysisFlags
	obsFlags      cliutil.ObsFlags

	addr         = flag.String("addr", "127.0.0.1:7411", "address to serve the query API on")
	synthName    = flag.String("synth", "", "serve a synthesized Table 1 workload (e.g. autofs) instead of a program file")
	synthScale   = flag.Float64("synth-scale", 0.12, "scale factor for -synth (1.0 = paper-sized)")
	queryTimeout = flag.Duration("query-timeout", 2*time.Second, "per-query deadline; on expiry the answer degrades to the flow-insensitive fallback")
	editTimeout  = flag.Duration("edit-timeout", 15*time.Second, "per-edit-batch deadline for POST /edit; on expiry the batch is rejected and the old snapshot keeps serving")
	queueDepth   = flag.Int("queue-depth", 64, "cold queries allowed to wait for a solve slot before shedding with 429")
	maxSolves    = flag.Int("max-solves", 0, "concurrent cluster solves (0 = GOMAXPROCS)")
	drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound after SIGTERM/SIGINT")
	chaos        = flag.Bool("chaos", false, "mount POST /chaos for runtime fault injection (latency spikes, solve faults, reload pauses)")
)

func init() {
	analysisFlags.Register(flag.CommandLine)
	obsFlags.Register(flag.CommandLine)
}

// onListen, when non-nil, receives the bound listen address — tests use
// it with -addr 127.0.0.1:0 to find the ephemeral port.
var onListen func(net.Addr)

func main() {
	flag.Parse()
	if (*synthName == "") == (flag.NArg() != 1) {
		fmt.Fprintln(os.Stderr, "usage: aliasd [flags] program.cpl | aliasd -synth <name> [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), nil); err != nil {
		fmt.Fprintln(os.Stderr, "aliasd:", err)
		os.Exit(1)
	}
}

// variantSource salts a synthesized program with variant k: extra
// globals plus a function wiring them up, so successive reloads really
// produce different programs (new variables, new partitions) while the
// base workload's queries keep their meaning.
func variantSource(src string, k int) string {
	if k <= 0 {
		return src
	}
	return src + fmt.Sprintf(
		"\nint chaos_obj_%d;\nint *chaos_ptr_%d;\nvoid chaos_variant_%d() {\n\tchaos_ptr_%d = &chaos_obj_%d;\n}\n",
		k, k, k, k, k)
}

// loadSource resolves the program the daemon serves: a synthesized
// workload (salted by variant) or the program file re-read from disk.
func loadSource(path string, variant int) (desc, src string, err error) {
	if *synthName != "" {
		if src, _, ok := synth.LockHeavyByName(*synthName); ok {
			desc = "synth:" + *synthName
			if variant > 0 {
				desc = fmt.Sprintf("%s+v%d", desc, variant)
			}
			return desc, variantSource(src, variant), nil
		}
		b, ok := synth.FindBenchmark(*synthName)
		if !ok {
			return "", "", fmt.Errorf("unknown -synth benchmark %q", *synthName)
		}
		desc = fmt.Sprintf("synth:%s@%.2g", *synthName, *synthScale)
		if variant > 0 {
			desc = fmt.Sprintf("%s+v%d", desc, variant)
		}
		return desc, variantSource(synth.Generate(b, *synthScale), variant), nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", "", err
	}
	desc = path
	if variant > 0 {
		desc = fmt.Sprintf("%s+v%d", path, variant)
	}
	return desc, variantSource(string(raw), variant), nil
}

// run boots the daemon and serves until SIGTERM/SIGINT (or stop closes,
// in tests). It returns after the graceful drain.
func run(path string, stop <-chan struct{}) (err error) {
	acfg, err := analysisFlags.Config()
	if err != nil {
		return err
	}
	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()

	// The daemon always has a metrics registry — /metrics is part of its
	// own API surface — and shares it with the -metrics-addr debug
	// server when that flag is on.
	metrics := sess.Metrics
	if metrics == nil {
		metrics = obs.NewMetrics()
	}

	s := serve.New(serve.Config{
		Analysis:     acfg,
		QueryTimeout: *queryTimeout,
		EditTimeout:  *editTimeout,
		QueueDepth:   *queueDepth,
		MaxSolves:    *maxSolves,
		DrainTimeout: *drainTimeout,
		AllowChaos:   *chaos,
		Metrics:      metrics,
		Tracer:       sess.Tracer,
		Regen:        func(variant int) (string, string, error) { return loadSource(path, variant) },
	})

	desc, src, err := loadSource(path, 0)
	if err != nil {
		return err
	}
	t0 := time.Now()
	sn, err := s.Load(context.Background(), desc, src)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	fmt.Printf("aliasd: serving %s on http://%s (%d vars, %d clusters, loaded in %v)\n",
		sn.Desc, ln.Addr(), sn.Prog.NumVars(), len(sn.A.Clusters), time.Since(t0).Round(time.Millisecond))

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)

	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case got := <-sig:
		fmt.Printf("aliasd: %v, draining (timeout %v)\n", got, *drainTimeout)
	case <-stop:
		fmt.Printf("aliasd: stop requested, draining (timeout %v)\n", *drainTimeout)
	}
	// Graceful drain: readiness flips off (load balancers stop routing),
	// in-flight requests finish, then the listener closes.
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("aliasd: drained")
	return nil
}
