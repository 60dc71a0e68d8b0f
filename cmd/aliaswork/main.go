// Command aliaswork is a standalone shard worker for the distributed
// eager solve: point it at a coordinator (bootstrap -shards serves one,
// and so does any process embedding dist.NewCoordinator) and it joins
// the fleet, claims clusters, solves them with the full cascade engine,
// and publishes results through the shared content-addressed cache
// until the queue drains.
//
// Usage:
//
//	aliaswork -coordinator http://127.0.0.1:7777 [-name w1]
//
// The coordinator URL may also come from the BOOTSTRAP_DIST_WORKER
// environment variable — the same contract under which bootstrap
// re-execs itself as workers — so aliaswork works both as a
// hand-started second terminal and as a drop-in spawned child.
//
// Exit status: 0 when the queue drained, 1 on protocol or analysis
// errors, 7 when an injected kill fault fired (test fleets only).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"bootstrap/internal/dist"
)

var (
	coordinator = flag.String("coordinator", "", "coordinator base URL (http://host:port); defaults to $BOOTSTRAP_DIST_WORKER")
	name        = flag.String("name", "", "worker name in leases and reports (default: derived from the PID)")
	verbose     = flag.Bool("v", false, "print the worker's claim/steal summary on exit")
)

func main() {
	dist.MaybeWorker() // env-spawned mode: never returns when armed
	flag.Parse()
	url := *coordinator
	if url == "" {
		url = os.Getenv("BOOTSTRAP_DIST_WORKER")
	}
	if url == "" {
		fmt.Fprintln(os.Stderr, "usage: aliaswork -coordinator http://host:port")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(url, *name, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "aliaswork:", err)
		os.Exit(1)
	}
}

// run is the worker session: join, drain, optionally summarize.
func run(url, name string, verbose bool) error {
	stats, err := dist.RunWorker(context.Background(), dist.WorkerOptions{
		Coordinator: url,
		Name:        name,
	})
	if err != nil {
		return err
	}
	if verbose {
		fmt.Printf("aliaswork: shard=%d claimed=%d stolen=%d completed=%d busy=%dns\n",
			stats.Shard, stats.Claimed, stats.Stolen, stats.Completed, stats.BusyNS)
	}
	return nil
}
