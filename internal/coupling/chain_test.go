package coupling

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
)

// runInterruptedChain is runInterrupted with a generation chain: Keep
// generations are rotated, so after two capture boundaries both path
// and path+".1" exist.
func runInterruptedChain(t *testing.T, cfg RunConfig, every, cancelAt, keep int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg.Checkpoint = &checkpoint.Plan{Every: every, Path: path, Keep: keep,
		OnError: func(err error) { t.Errorf("checkpoint error: %v", err) }}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.OnStep = func(step int) {
		if step == cancelAt {
			cancel()
		}
	}
	m := testMesh(t)
	if _, err := RunContext(ctx, m, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	for _, p := range []string{path, checkpoint.GenPath(path, 1)} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("generation missing after interrupt: %v", err)
		}
	}
	return path
}

// flipByte corrupts the file's fingerprint region so the header CRC
// fails on the next load.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[17] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// resumeChain finishes the run from whatever the chain at path yields,
// tolerating corruption reports (they are the point of these tests).
func resumeChain(t *testing.T, cfg RunConfig, path string) *RunResult {
	t.Helper()
	cfg.OnStep = nil
	var reports []error
	cfg.Checkpoint = &checkpoint.Plan{Path: path, Resume: true, Keep: 2,
		OnError: func(err error) { reports = append(reports, err) }}
	res, err := RunContext(context.Background(), testMesh(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("corrupt generation was skipped silently; want an OnError report")
	}
	for _, rerr := range reports {
		var ce *checkpoint.ErrCorrupt
		if !errors.As(rerr, &ce) {
			t.Fatalf("unexpected resume report: %v", rerr)
		}
	}
	return res
}

// assertSameRun pins res against ref: identical trace render, makespan
// and particle counters — the repo's byte-identical resume contract.
func assertSameRun(t *testing.T, res, ref *RunResult) {
	t.Helper()
	if got, want := res.Trace.Render(100, 0), ref.Trace.Render(100, 0); got != want {
		t.Fatalf("trace render differs:\n--- got\n%s--- want\n%s", got, want)
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

// TestResumeChainCorruptNewest: flip a byte in the newest generation of
// an interrupted run. The resume must quarantine it, fall back one
// generation, and still finish byte-identical to an uninterrupted run —
// a corrupt checkpoint costs one capture interval, not the run.
func TestResumeChainCorruptNewest(t *testing.T) {
	cfg := fastCfg()
	cfg.FluidRanks = 4
	cfg.Steps = 6
	cfg.InjectEvery = 2
	ref, err := RunContext(context.Background(), testMesh(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Captures after steps 1 and 3 rotate into a two-deep chain; the
	// cancel lands during step 4.
	path := runInterruptedChain(t, cfg, 2, 4, 2)
	flipByte(t, path)

	res := resumeChain(t, cfg, path)
	assertSameRun(t, res, ref)
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt newest generation not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("quarantined file still at its original path: %v", err)
	}
}

// TestResumeChainAllCorrupt: with every generation corrupt, the run
// degrades to a fresh start — same result as never having checkpointed
// — and the evidence stays on disk as *.corrupt files.
func TestResumeChainAllCorrupt(t *testing.T) {
	cfg := fastCfg()
	cfg.FluidRanks = 4
	cfg.Steps = 6
	cfg.InjectEvery = 2
	ref, err := RunContext(context.Background(), testMesh(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := runInterruptedChain(t, cfg, 2, 4, 2)
	flipByte(t, path)
	flipByte(t, checkpoint.GenPath(path, 1))

	res := resumeChain(t, cfg, path)
	assertSameRun(t, res, ref)
	for _, p := range []string{path, checkpoint.GenPath(path, 1)} {
		if _, err := os.Stat(p + ".corrupt"); err != nil {
			t.Fatalf("%s not quarantined: %v", p, err)
		}
	}
}
