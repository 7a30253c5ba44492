package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), code
}

// With no flags the single run uses respira's stated defaults: a
// synchronous 4-rank run of 3 steps injecting 1000 particles.
func TestDefaultSingleRun(t *testing.T) {
	out, errb, code := runCLI(t)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, want := range []string{"mesh: nodes=", "injected=1000 ", "Matrix assembly"} {
		if !strings.Contains(out, want) {
			t.Fatalf("default run output missing %q:\n%s", want, out)
		}
	}
}

// -particles 0 is a fluid-only run, not the default count.
func TestZeroParticles(t *testing.T) {
	out, errb, code := runCLI(t, "-steps", "1", "-particles", "0")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "injected=0 deposited=0 exited=0 active=0") {
		t.Fatalf("-particles 0 injected particles:\n%s", out)
	}
}

// A sweep axis flag switches to the dosage sweep: one table row per
// grid point.
func TestSweep(t *testing.T) {
	out, errb, code := runCLI(t, "-steps", "1", "-particles", "50", "-sweep-d", "2.5e-6,10e-6", "-sweep-q", "0.9", "-sweep-g", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, want := range []string{"d=2.5um q=0.9 g=1", "d=10um q=0.9 g=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep table missing row %q:\n%s", want, out)
		}
	}
}

// Every bad flag exits 2 before any simulation work, with the same
// rules POST /jobs applies to its options.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-ranks", "0"},
		{"-steps", "-1"},
		{"-particles", "-1"},
		{"-threads", "0"},
		{"-gens", "0"},
		{"-mode", "warp"},
		{"-strategy", "yolo"},
		{"-inflow", "whoosh"},
		{"-sweep-d", "-1"},
		{"-sweep-q", "0"},
		{"-sweep-g", "2,0"},
		{"-fluid", "0"},
		{"-parts", "0"},
		{"-ranks-per-node", "-1"},
		{"-inject-every", "-1"},
		{"-checkpoint-every", "0"},
		{"-checkpoint-keep", "0"},
		{"-watchdog", "-1s"},
		{"-ranks", "x"},
		{"-nosuch"},
		{"stray"},
	} {
		out, _, code := runCLI(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out != "" {
			t.Errorf("%v: ran before rejecting:\n%s", args, out)
		}
	}
}

// -verify scrubs a directory offline: a checkpoint the CLI wrote passes,
// and a corrupted one exits 1.
func TestVerify(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	if _, errb, code := runCLI(t, "-steps", "2", "-particles", "100", "-checkpoint", ckpt, "-checkpoint-every", "1"); code != 0 {
		t.Fatalf("checkpointed run: exit %d: %s", code, errb)
	}
	out, errb, code := runCLI(t, "-verify", dir)
	if code != 0 || !strings.Contains(out, "ok") || !strings.Contains(out, "run.ckpt") {
		t.Fatalf("clean verify: exit %d\n%s%s", code, out, errb)
	}
	f, err := os.OpenFile(ckpt, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("garbage"), 40); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out, _, code = runCLI(t, "-verify", dir)
	if code != 1 || !strings.Contains(out, "corrupt") {
		t.Fatalf("corrupt verify: exit %d\n%s", code, out)
	}
}
