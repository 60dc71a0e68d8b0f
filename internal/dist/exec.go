package dist

import (
	"context"
	"fmt"
	"os"
	"os/exec"

	"bootstrap/internal/faults"
)

// Env vars that flip a re-exec'd binary into worker mode. Spawned
// workers are the same binary as the coordinator (bootstrap, or a test
// binary whose TestMain calls MaybeWorker) re-exec'd with workerEnv set
// — no second binary to ship, and the worker is guaranteed to be the
// same build.
const (
	workerEnv = "BOOTSTRAP_DIST_WORKER" // coordinator URL; presence selects worker mode
	nameEnv   = "BOOTSTRAP_DIST_NAME"   // optional worker name override

	// killEnv arms a faults.Kill in the worker: "cluster,afterTuples".
	// A negative cluster arms the kill globally (the first cluster this
	// worker attempts dies). Test-only: this is how the lease-expiry e2e
	// kills a real worker process at a deterministic solve position.
	killEnv = "BOOTSTRAP_DIST_KILL"
)

// MaybeWorker checks the environment and, when this process was
// spawned as a shard worker, runs the worker loop and exits — it never
// returns in that case. Call it first thing in main() of any binary
// that spawns workers via SpawnWorkers.
func MaybeWorker() {
	url := os.Getenv(workerEnv)
	if url == "" {
		return
	}
	opts := WorkerOptions{Coordinator: url, Name: os.Getenv(nameEnv)}
	if spec := os.Getenv(killEnv); spec != "" {
		var clusterID int
		var after int64
		if _, err := fmt.Sscanf(spec, "%d,%d", &clusterID, &after); err == nil {
			f := faults.Fault{Kind: faults.Kill, AfterTuples: after}
			if clusterID < 0 {
				opts.Faults = faults.NewPlan().EveryNth(1, f)
			} else {
				opts.Faults = faults.NewPlan().Set(clusterID, f)
			}
		}
	}
	if _, err := RunWorker(context.Background(), opts); err != nil {
		fmt.Fprintf(os.Stderr, "dist worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// SpawnWorkers re-execs this binary n times in worker mode against the
// coordinator at url. Extra env entries ("K=V") are appended — the
// kill-fault e2e uses this to arm exactly one worker. Returns the
// running commands; Wait on them (or don't — the coordinator's lease
// expiry owns failure handling either way).
func SpawnWorkers(n int, url string, extraEnv ...string) ([]*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("dist: cannot re-exec: %w", err)
	}
	cmds := make([]*exec.Cmd, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(),
			workerEnv+"="+url,
			fmt.Sprintf("%s=worker-%d", nameEnv, i),
		)
		cmd.Env = append(cmd.Env, extraEnv...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, c := range cmds {
				c.Process.Kill()
			}
			return nil, fmt.Errorf("dist: spawn worker %d: %w", i, err)
		}
		cmds = append(cmds, cmd)
	}
	return cmds, nil
}

func pid() int { return os.Getpid() }
