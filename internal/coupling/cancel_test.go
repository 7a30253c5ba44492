package coupling

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestRunContextCancelBetweenSteps cancels the context from the OnStep
// hook after the first step: the run must stop at the next step boundary
// on every rank and return ctx.Err().
func TestRunContextCancelBetweenSteps(t *testing.T) {
	m := testMesh(t)
	cfg := fastCfg()
	cfg.FluidRanks = 4
	cfg.Steps = 6
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var steps atomic.Int32
	cfg.OnStep = func(step int) {
		steps.Add(1)
		if step == 0 {
			cancel()
		}
	}
	res, err := RunContext(ctx, m, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run must not return a result")
	}
	// The cancel lands during step 0's OnStep; the world agrees to stop
	// at the next boundary, so exactly one step ran.
	if got := steps.Load(); got != 1 {
		t.Fatalf("ran %d steps after cancel, want 1", got)
	}
}

// TestRunContextCancelCoupled exercises the world-level agreement across
// the fluid and particle groups: both must stop at the same boundary.
func TestRunContextCancelCoupled(t *testing.T) {
	m := testMesh(t)
	cfg := fastCfg()
	cfg.Mode = Coupled
	cfg.FluidRanks = 3
	cfg.ParticleRanks = 2
	cfg.Steps = 6
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.OnStep = func(step int) {
		if step == 1 {
			cancel()
		}
	}
	if _, err := RunContext(ctx, m, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextPreCancelled: a context cancelled before the run starts
// must stop it before any step executes.
func TestRunContextPreCancelled(t *testing.T) {
	m := testMesh(t)
	cfg := fastCfg()
	cfg.FluidRanks = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	cfg.OnStep = func(int) { ran = true }
	if _, err := RunContext(ctx, m, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("a pre-cancelled context must not execute any step")
	}
}

// TestRunContextBackgroundUnchanged pins that an uncancellable context
// takes the zero-overhead path and produces the exact same virtual-time
// result as Run — and so does a live cancellable context that is never
// cancelled: both kinds share one step loop and one set of collectives.
func TestRunContextBackgroundUnchanged(t *testing.T) {
	m := testMesh(t)
	cfg := fastCfg()
	cfg.FluidRanks = 4
	a, err := RunContext(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, ctx := range map[string]context.Context{"Background": context.Background(), "WithCancel": live} {
		b, err := RunContext(ctx, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Makespan != b.Makespan || a.Injected != b.Injected {
			t.Fatalf("RunContext(%s) diverged: makespan %g vs %g", name, a.Makespan, b.Makespan)
		}
		if a.Trace.MaxClock() != b.Trace.MaxClock() {
			t.Fatalf("RunContext(%s): trace clocks diverged", name)
		}
	}
}

// TestOnStepFiresEveryStep pins the OnStep contract: called once per
// completed step, in order, by world rank 0.
func TestOnStepFiresEveryStep(t *testing.T) {
	m := testMesh(t)
	cfg := fastCfg()
	cfg.FluidRanks = 4
	cfg.Steps = 3
	var got []int
	cfg.OnStep = func(step int) { got = append(got, step) }
	if _, err := RunContext(context.Background(), m, cfg); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("OnStep sequence %v, want [0 1 2]", got)
	}
}
