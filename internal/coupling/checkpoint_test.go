package coupling

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/simmpi"
)

// runInterrupted executes cfg with checkpointing on and cancels it from
// the OnStep hook at cancelAt, returning the checkpoint path. The cancel
// lands after a capture boundary, so a matching snapshot exists.
func runInterrupted(t *testing.T, cfg RunConfig, every, cancelAt int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg.Checkpoint = &checkpoint.Plan{Every: every, Path: path,
		OnError: func(err error) { t.Errorf("checkpoint error: %v", err) }}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prev := cfg.OnStep
	cfg.OnStep = func(step int) {
		if prev != nil {
			prev(step)
		}
		if step == cancelAt {
			cancel()
		}
	}
	m := testMesh(t)
	if _, err := RunContext(ctx, m, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	return path
}

// resumeAndCompare finishes the interrupted run from its checkpoint and
// pins the result against the uninterrupted reference: identical trace
// render, particle counters and makespan.
func resumeAndCompare(t *testing.T, cfg RunConfig, path string, ref *RunResult) {
	t.Helper()
	cfg.OnStep = nil
	cfg.Checkpoint = &checkpoint.Plan{Path: path, Resume: true,
		OnError: func(err error) { t.Errorf("resume error: %v", err) }}
	m := testMesh(t)
	res, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Trace.Render(100, 0), ref.Trace.Render(100, 0); got != want {
		t.Fatalf("resumed trace render differs from uninterrupted run:\n--- resumed\n%s--- reference\n%s", got, want)
	}
	if res.Makespan != ref.Makespan {
		t.Fatalf("makespan %v != %v", res.Makespan, ref.Makespan)
	}
	if res.Injected != ref.Injected || res.Deposited != ref.Deposited ||
		res.Exited != ref.Exited || res.ActiveEnd != ref.ActiveEnd {
		t.Fatalf("counters (%d,%d,%d,%d) != (%d,%d,%d,%d)",
			res.Injected, res.Deposited, res.Exited, res.ActiveEnd,
			ref.Injected, ref.Deposited, ref.Exited, ref.ActiveEnd)
	}
}

// resumeCut is one interrupted-run shape: checkpoint every `every`
// steps, die right after step cancelAt's boundary, resume at
// resumeWorkers workers per rank.
type resumeCut struct {
	name                           string
	every, cancelAt, resumeWorkers int
}

// resumeCuts is the mode's original hand-picked cut at two resume worker
// counts, then a cut at EVERY step boundary (Every = 1, dying after step
// 0 … steps-2; the final boundary takes no checkpoint), alternating the
// resume worker count.
func resumeCuts(steps, every, cancelAt int) []resumeCut {
	cuts := []resumeCut{
		{"workers1", every, cancelAt, 1},
		{"workers4", every, cancelAt, 4},
	}
	for k := 0; k <= steps-2; k++ {
		cuts = append(cuts, resumeCut{fmt.Sprintf("boundary%d", k), 1, k, []int{1, 4}[k%2]})
	}
	return cuts
}

// testResumeDeterminism kills cfg's run at each cut, resumes it, and
// requires the finished run to be indistinguishable from one that was
// never interrupted — including when the resumed run uses a different
// worker count (the fingerprint deliberately ignores WorkersPerRank;
// results are bit-identical at any worker count).
func testResumeDeterminism(t *testing.T, cfg RunConfig, cuts []resumeCut) {
	ref, err := Run(testMesh(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cuts {
		t.Run(c.name, func(t *testing.T) {
			cfg := cfg
			path := runInterrupted(t, cfg, c.every, c.cancelAt)
			cfg.WorkersPerRank = c.resumeWorkers
			resumeAndCompare(t, cfg, path, ref)
		})
	}
}

// TestResumeDeterminismSynchronous: the byte-identical resume pin where
// every rank carries both roles.
func TestResumeDeterminismSynchronous(t *testing.T) {
	cfg := fastCfg()
	cfg.FluidRanks = 4
	cfg.Steps = 6
	cfg.InjectEvery = 2
	// Hand-picked cut: checkpoint after step 1, die during step 2.
	testResumeDeterminism(t, cfg, resumeCuts(cfg.Steps, 2, 2))
}

// TestResumeDeterminismCoupled: the same pin across the fluid/particle
// split, where resume must also replay the velocity shipments.
func TestResumeDeterminismCoupled(t *testing.T) {
	cfg := fastCfg()
	cfg.Mode = Coupled
	cfg.FluidRanks = 3
	cfg.ParticleRanks = 2
	cfg.Steps = 6
	cfg.InjectEvery = 2
	// Hand-picked cut: checkpoint after steps 1 and 3, die during step 3.
	testResumeDeterminism(t, cfg, resumeCuts(cfg.Steps, 2, 3))
}

// TestResumeSkipsMismatchedSnapshot: a snapshot from a different
// configuration must be reported and ignored — the run starts fresh and
// still produces the correct result.
func TestResumeSkipsMismatchedSnapshot(t *testing.T) {
	cfg := fastCfg()
	cfg.FluidRanks = 4
	cfg.Steps = 4
	path := runInterrupted(t, cfg, 2, 2)

	other := cfg
	other.Seed = 99 // different trajectory, different fingerprint
	ref, err := Run(testMesh(t), other)
	if err != nil {
		t.Fatal(err)
	}
	var mismatches atomic.Int32
	other.OnStep = nil
	other.Checkpoint = &checkpoint.Plan{Path: path, Resume: true,
		OnError: func(err error) {
			if errors.Is(err, checkpoint.ErrMismatch) {
				mismatches.Add(1)
			} else {
				t.Errorf("unexpected checkpoint error: %v", err)
			}
		}}
	res, err := Run(testMesh(t), other)
	if err != nil {
		t.Fatal(err)
	}
	if mismatches.Load() == 0 {
		t.Fatal("fingerprint mismatch was not reported")
	}
	if res.Trace.Render(100, 0) != ref.Trace.Render(100, 0) {
		t.Fatal("fresh-start run after mismatch differs from plain run")
	}
}

// TestCheckpointProviderFromContext: with no plan on the config, the run
// must pick one up from the context provider — the service layer's path.
func TestCheckpointProviderFromContext(t *testing.T) {
	dir := t.TempDir()
	prov := &checkpoint.DirProvider{Dir: dir, Base: "job", Every: 1}
	ctx := checkpoint.ContextWithProvider(context.Background(), prov)
	cfg := fastCfg()
	cfg.FluidRanks = 4
	cfg.Steps = 3
	if _, err := RunContext(ctx, testMesh(t), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "job.ckpt")); err != nil {
		t.Fatalf("provider-driven checkpoint missing: %v", err)
	}
}

// TestFaultPlanSurfacesStall: a dropped migration receive under a
// watchdog must fail the run with the typed stall error instead of
// hanging — the fault path the service retries on.
func TestFaultPlanSurfacesStall(t *testing.T) {
	cfg := fastCfg()
	cfg.FluidRanks = 4
	cfg.Steps = 4
	cfg.Watchdog = 200 * time.Millisecond
	cfg.FaultPlan = &simmpi.FaultPlan{Rules: []simmpi.FaultRule{
		{Rank: 1, Op: simmpi.FaultCollective, Tag: -1, Step: 2, Nth: 1, Action: simmpi.FaultDrop},
	}}
	_, err := Run(testMesh(t), cfg)
	var stall *simmpi.ErrRankStalled
	if !errors.As(err, &stall) {
		t.Fatalf("err = %v, want *simmpi.ErrRankStalled", err)
	}
	if stall.Step != 2 {
		t.Fatalf("stall at step %d, want 2", stall.Step)
	}
}
