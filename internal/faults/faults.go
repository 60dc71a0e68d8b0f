// Package faults provides deterministic fault injection for the
// per-cluster FSCS scheduler. A Plan maps cluster IDs to faults; the
// scheduler installs the plan's hook into each engine attempt (via
// fscs.WithHook), so panics, slowness and forced budget exhaustion fire
// at exact worklist positions instead of depending on wall-clock timing.
// This is what makes the fault-tolerance layer testable without flaky
// sleeps: a panic always happens on the same tuple of the same cluster.
package faults

import (
	"fmt"
	"sync"
	"time"

	"bootstrap/internal/fscs"
)

// Kind selects what a fault does when it fires.
type Kind uint8

const (
	// None is the zero fault; it never fires.
	None Kind = iota
	// Panic panics inside the engine's worklist loop, simulating an
	// engine bug. The scheduler must recover it into a cluster failure.
	Panic
	// Slow sleeps Delay on every charged tuple, simulating a cluster that
	// is too expensive to finish before its wall-clock deadline.
	Slow
	// Budget aborts the engine with an error wrapping fscs.ErrBudget,
	// simulating budget exhaustion regardless of the configured budget.
	Budget
)

var kindNames = [...]string{"none", "panic", "slow", "budget"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Fault describes one injected failure.
type Fault struct {
	Kind Kind
	// AfterTuples arms the fault only once the engine has processed this
	// many worklist tuples (0 = fire on the first tuple).
	AfterTuples int64
	// Delay is the per-tuple sleep of a Slow fault.
	Delay time.Duration
	// Attempts bounds how many engine attempts the fault fires on: 0
	// means every attempt (the cluster can only be demoted), n > 0 means
	// only the first n attempts (so a ladder retry recovers).
	Attempts int
}

type state struct {
	f        Fault
	attempts int // engine attempts handed a hook so far
}

// Plan is a set of per-cluster faults, plus an optional global every-Nth
// fault that fires across clusters. The zero value is unusable; use
// NewPlan. A Plan is safe for concurrent use by the scheduler's workers,
// and may be re-armed while analyses that hold it are running — that is
// how a long-lived server turns chaos on and off under live traffic.
type Plan struct {
	mu        sync.Mutex
	byCluster map[int]*state

	// Global every-Nth fault: fires on every nth Hook request (counted
	// in arrival order across all clusters) that has no per-cluster
	// fault of its own.
	nth      int
	nthFault Fault
	nthCount int64
}

// NewPlan returns an empty fault plan.
func NewPlan() *Plan { return &Plan{byCluster: map[int]*state{}} }

// Set arms a fault for one cluster, replacing any previous fault for it.
// It returns the plan for chaining.
func (p *Plan) Set(clusterID int, f Fault) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.byCluster[clusterID] = &state{f: f}
	return p
}

// EveryNth arms a global fault: every nth Hook request (counted in
// arrival order across all clusters) whose cluster has no fault of its
// own receives f. n <= 0 disarms. The counter restarts on each call, so
// re-arming under live traffic stays deterministic. Returns the plan for
// chaining.
func (p *Plan) EveryNth(n int, f Fault) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nth, p.nthFault, p.nthCount = n, f, 0
	return p
}

// Active reports whether any fault is currently armed — per-cluster or
// global. Nil plans are inactive. The scheduler bypasses the result
// cache exactly while the plan is active, so a disarmed plan costs
// nothing.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.nth > 0 && p.nthFault.Kind != None {
		return true
	}
	for _, st := range p.byCluster {
		if st.f.Kind != None {
			return true
		}
	}
	return false
}

// Hook returns the engine hook for the next attempt on clusterID, or nil
// when the cluster has no (remaining) fault. Each call counts as one
// attempt against Fault.Attempts.
func (p *Plan) Hook(clusterID int) fscs.Hook {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.byCluster[clusterID]
	if !ok || st.f.Kind == None {
		if p.nth > 0 && p.nthFault.Kind != None {
			p.nthCount++
			if p.nthCount%int64(p.nth) == 0 {
				return hookFor(clusterID, p.nthFault)
			}
		}
		return nil
	}
	st.attempts++
	if st.f.Attempts > 0 && st.attempts > st.f.Attempts {
		return nil // fault spent: this attempt runs clean
	}
	return hookFor(clusterID, st.f)
}

// hookFor builds the engine hook that makes f fire.
func hookFor(clusterID int, f Fault) fscs.Hook {
	return func(tuples int64) error {
		if tuples <= f.AfterTuples {
			return nil
		}
		switch f.Kind {
		case Panic:
			panic(fmt.Sprintf("faults: injected panic in cluster %d at tuple %d", clusterID, tuples))
		case Slow:
			time.Sleep(f.Delay)
		case Budget:
			return fmt.Errorf("faults: injected exhaustion in cluster %d: %w", clusterID, fscs.ErrBudget)
		}
		return nil
	}
}

// Attempts reports how many engine attempts have been handed a hook for
// clusterID — i.e. how often the scheduler (re)tried it.
func (p *Plan) Attempts(clusterID int) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.byCluster[clusterID]; ok {
		return st.attempts
	}
	return 0
}
