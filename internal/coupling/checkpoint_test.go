package coupling

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/navierstokes"
	"repro/internal/particles"
	"repro/internal/simmpi"
	"repro/internal/trace"
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
	res, err := RunContext(context.Background(), m, cfg)
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
// fastCfg's serial assembly is bit-identical at any worker count).
func testResumeDeterminism(t *testing.T, cfg RunConfig, cuts []resumeCut) {
	ref, err := RunContext(context.Background(), testMesh(t), cfg)
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
	ref, err := RunContext(context.Background(), testMesh(t), other)
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
	res, err := RunContext(context.Background(), testMesh(t), other)
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

// TestCheckpointProviderFromEnv: with no plan on the config, the run
// must pick one up from the context Env's provider — the service layer's
// path — and an explicit plan on the config wins over the provider.
func TestCheckpointProviderFromEnv(t *testing.T) {
	dir := t.TempDir()
	prov := &checkpoint.DirProvider{Dir: dir, Base: "job", Every: 1}
	ctx := WithEnv(context.Background(), Env{Checkpoints: prov})
	cfg := fastCfg()
	cfg.FluidRanks = 4
	cfg.Steps = 3
	if _, err := RunContext(ctx, testMesh(t), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "job.ckpt")); err != nil {
		t.Fatalf("provider-driven checkpoint missing: %v", err)
	}

	explicit := filepath.Join(t.TempDir(), "explicit.ckpt")
	cfg.Checkpoint = &checkpoint.Plan{Path: explicit, Every: 1}
	if _, err := RunContext(ctx, testMesh(t), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(explicit); err != nil {
		t.Fatalf("config plan lost to the Env provider: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "job.2.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("Env provider handed out a plan despite the config's: %v", err)
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
	_, err := RunContext(context.Background(), testMesh(t), cfg)
	var stall *simmpi.ErrRankStalled
	if !errors.As(err, &stall) {
		t.Fatalf("err = %v, want *simmpi.ErrRankStalled", err)
	}
	if stall.Step != 2 {
		t.Fatalf("stall at step %d, want 2", stall.Step)
	}
}

// TestEnvWatchdogReachesRun: a run with no watchdog of its own takes
// the Env's, so a dropped collective fails with the typed stall error
// instead of hanging; a set RunConfig.Watchdog wins over the Env's hour.
func TestEnvWatchdogReachesRun(t *testing.T) {
	for _, c := range []struct{ cfg, env time.Duration }{
		{0, 200 * time.Millisecond},
		{200 * time.Millisecond, time.Hour},
	} {
		cfg := fastCfg()
		cfg.FluidRanks = 4
		cfg.Steps = 4
		cfg.Watchdog = c.cfg
		cfg.FaultPlan = &simmpi.FaultPlan{Rules: []simmpi.FaultRule{
			{Rank: 1, Op: simmpi.FaultCollective, Tag: -1, Step: 2, Nth: 1, Action: simmpi.FaultDrop},
		}}
		ctx := WithEnv(context.Background(), Env{Watchdog: c.env})
		m := testMesh(t)
		done := make(chan error, 1)
		go func() {
			_, err := RunContext(ctx, m, cfg)
			done <- err
		}()
		select {
		case err := <-done:
			var stall *simmpi.ErrRankStalled
			if !errors.As(err, &stall) {
				t.Fatalf("cfg %v env %v: err = %v, want *simmpi.ErrRankStalled", c.cfg, c.env, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("cfg %v env %v: the dropped collective hung the run", c.cfg, c.env)
		}
	}
}

// TestCheckpointViewDroppedAfterSave: a boundary capture points the
// snapshot at the rank's live solver and tracker state without copying
// it, the file carries that state, and once rank 0 has written the
// file the snapshot holds no slice of it, so a particle store that
// grows later is not pinned.
func TestCheckpointViewDroppedAfterSave(t *testing.T) {
	m := testMesh(t)
	cfg := fastCfg()
	cfg.FluidRanks = 1
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg.Checkpoint = &checkpoint.Plan{Every: 1, Path: path,
		OnError: func(err error) { t.Errorf("checkpoint error: %v", err) }}
	rms, err := buildPartition(m, m.DualByNode(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	world, d, pools, err := newWorld(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closePools(pools)
	_, snap, _ := cfg.prepCheckpoint(m, 1)
	saver := &ckptSaver{plan: cfg.Checkpoint, snap: snap, cfg: &cfg}
	rt := trace.NewTrace(1).Ranks[0]
	var (
		ns      *navierstokes.Solver
		tk      *particles.Tracker
		aliased bool
	)
	err = world.Run(func(r *simmpi.Rank) {
		var err error
		if ns, err = navierstokes.NewSolver(m, rms[0], r.Comm, pools[0], cfg.NS, cfg.Cost, rt); err != nil {
			panic(err)
		}
		if _, err := ns.Step(); err != nil {
			panic(err)
		}
		tk = particles.NewTracker(m, rms[0].Elems, cfg.Species, cfg.Fluid)
		injected := particles.InjectAtInletCollectiveAt(r.Comm, tk, cfg.NumParticles, cfg.Seed, 0, cfg.NS.InletVelocityAt(0))
		captureRank(snap, 0, ns, tk, rt, injected, d)
		rs := &snap.Ranks[0]
		aliased = &rs.Solver.U[0][0] == &ns.U[0][0] && &rs.Solver.P[0] == &ns.P[0] &&
			&rs.Solver.SGS[0] == &ns.SGS[0] && &rs.Particles.Pos[0] == &tk.Active.Pos[0] &&
			&rs.Particles.ID[0] == &tk.Active.ID[0]
		saver.save(0, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !aliased {
		t.Error("capture copied the live state instead of pointing at it")
	}
	for i, rs := range snap.Ranks {
		s, p := rs.Solver, rs.Particles
		if s.U[0] != nil || s.U[1] != nil || s.U[2] != nil || s.P != nil || s.SGS != nil ||
			p.ID != nil || p.Pos != nil || p.Vel != nil || p.Acc != nil || p.Elem != nil {
			t.Errorf("rank %d: snapshot still holds state slices after the save", i)
		}
	}
	got, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rs := got.Ranks[0]
	if !reflect.DeepEqual(rs.Solver.U, ns.U) || !reflect.DeepEqual(rs.Solver.SGS, ns.SGS) ||
		!reflect.DeepEqual(rs.Particles.Pos, tk.Active.Pos) || !reflect.DeepEqual(rs.Particles.ID, tk.Active.ID) {
		t.Error("saved file does not carry the rank's live state")
	}
}

// TestCheckpointWriteFailureKeepsRun: a checkpoint whose stream fails
// is reported through the plan's OnError and leaves no temporary file,
// the next boundary's checkpoint is written, and the run's results are
// those of a run without checkpoints.
func TestCheckpointWriteFailureKeepsRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail writes with")
	}
	cfg := fastCfg()
	cfg.FluidRanks = 2
	cfg.Steps = 4
	ref, err := RunContext(context.Background(), testMesh(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Writes through <path>.tmp land on /dev/full and fail with ENOSPC,
	// so the first checkpoint's stream breaks. The failed save removes
	// the link, and later boundaries write normally.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
		t.Fatal(err)
	}
	var reported []error
	cfg.Checkpoint = &checkpoint.Plan{Every: 1, Path: path,
		OnError: func(err error) { reported = append(reported, err) }}
	res, err := RunContext(context.Background(), testMesh(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reported) != 1 || !errors.Is(reported[0], syscall.ENOSPC) {
		t.Fatalf("reported %v, want one ENOSPC", reported)
	}
	if _, err := os.Lstat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind (lstat err = %v)", err)
	}
	if s, err := checkpoint.Load(path); err != nil || s.Step != int64(cfg.Steps-2) {
		t.Fatalf("last checkpoint: %v, want step %d", err, cfg.Steps-2)
	}
	if res.Trace.Render(100, 0) != ref.Trace.Render(100, 0) || res.Makespan != ref.Makespan ||
		res.Injected != ref.Injected || res.Deposited != ref.Deposited ||
		res.Exited != ref.Exited || res.ActiveEnd != ref.ActiveEnd {
		t.Fatal("a failed checkpoint changed the run's results")
	}
}
