package faults

import (
	"errors"
	"testing"
	"time"

	"bootstrap/internal/fscs"
)

func TestPlanHookSelectsCluster(t *testing.T) {
	p := NewPlan().Set(3, Fault{Kind: Budget})
	if p.Hook(1) != nil {
		t.Error("cluster without a fault should get no hook")
	}
	h := p.Hook(3)
	if h == nil {
		t.Fatal("faulted cluster should get a hook")
	}
	if err := h(1); !errors.Is(err, fscs.ErrBudget) {
		t.Errorf("budget fault = %v, want wrapped fscs.ErrBudget", err)
	}
}

func TestAfterTuplesArming(t *testing.T) {
	p := NewPlan().Set(0, Fault{Kind: Budget, AfterTuples: 2})
	h := p.Hook(0)
	if err := h(1); err != nil {
		t.Errorf("tuple 1: %v, want nil (fault armed after 2)", err)
	}
	if err := h(2); err != nil {
		t.Errorf("tuple 2: %v, want nil", err)
	}
	if err := h(3); err == nil {
		t.Error("tuple 3 should trip the fault")
	}
}

func TestAttemptsSpendTheFault(t *testing.T) {
	p := NewPlan().Set(7, Fault{Kind: Budget, Attempts: 1})
	if h := p.Hook(7); h == nil {
		t.Fatal("first attempt should be faulted")
	}
	if h := p.Hook(7); h != nil {
		t.Error("second attempt should run clean (fault spent)")
	}
	if got := p.Attempts(7); got != 2 {
		t.Errorf("Attempts = %d, want 2", got)
	}
}

func TestPanicFault(t *testing.T) {
	p := NewPlan().Set(0, Fault{Kind: Panic})
	h := p.Hook(0)
	defer func() {
		if recover() == nil {
			t.Error("panic fault should panic")
		}
	}()
	_ = h(1)
}

func TestSlowFault(t *testing.T) {
	p := NewPlan().Set(0, Fault{Kind: Slow, Delay: 5 * time.Millisecond})
	h := p.Hook(0)
	start := time.Now()
	if err := h(1); err != nil {
		t.Errorf("slow fault returned %v", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Error("slow fault should sleep")
	}
}

func TestNilPlanSafe(t *testing.T) {
	var p *Plan
	if p.Hook(0) != nil || p.Attempts(0) != 0 {
		t.Error("nil plan should inject nothing")
	}
}
