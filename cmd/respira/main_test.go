package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/scenario"
)

// runCLI runs `respira args...` as main does, minus the exit.
func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := respira(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), err
}

// Every subcommand shares one exit rule: -h is 0, and an unknown flag, a
// stray argument or a bad value is 2 before anything reaches stdout.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{nil, 2},
		{[]string{"nosuch"}, 2},
		{[]string{"run", "-h"}, 0},
		{[]string{"run", "-nosuch"}, 2},
		{[]string{"run", "stray"}, 2},
		{[]string{"run", "-steps", "0"}, 2},
		{[]string{"fig", "-h"}, 0},
		{[]string{"fig", "-nosuch"}, 2},
		{[]string{"fig", "table1"}, 2},
		{[]string{"fig", "-width", "0"}, 2},
		{[]string{"fig", "-format", "xml"}, 2},
		{[]string{"serve", "-h"}, 0},
		{[]string{"serve", "-nosuch"}, 2},
		{[]string{"serve", "stray"}, 2},
		{[]string{"serve", "-checkpoint-every", "0"}, 2},
		{[]string{"trace", "-h"}, 0},
		{[]string{"trace", "-nosuch"}, 2},
		{[]string{"trace", "stray"}, 2},
		{[]string{"trace", "-gens", "0"}, 2},
		{[]string{"verify", "-h"}, 0},
		{[]string{"verify", "-nosuch", dir}, 2},
		{[]string{"verify", dir, "stray"}, 2},
		{[]string{"verify"}, 2},
	} {
		out, _, err := runCLI(t, tc.args...)
		if code := exitCode(err); code != tc.want {
			t.Errorf("%q: exit %d (%v), want %d", tc.args, code, err, tc.want)
		}
		if out != "" {
			t.Errorf("%q: wrote to stdout:\n%s", tc.args, out)
		}
	}
}

// Each ParamsSpec key has exactly one flag name, the same in every
// subcommand that binds it.
func TestOverridesCoverParamsSpec(t *testing.T) {
	names := map[string]string{}
	typ := reflect.TypeOf(scenario.ParamsSpec{})
	for i := 0; i < typ.NumField(); i++ {
		key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		o, ok := overrides[key]
		if !ok {
			t.Errorf("ParamsSpec key %q has no override flag", key)
			continue
		}
		if prev, dup := names[o.name]; dup {
			t.Errorf("flag -%s spells both %q and %q", o.name, prev, key)
		}
		names[o.name] = key
	}
	if len(overrides) != typ.NumField() {
		t.Errorf("%d override flags for %d ParamsSpec keys", len(overrides), typ.NumField())
	}
}

// With no flags the single run uses respira's stated defaults: a
// synchronous 4-rank run of 3 steps injecting 1000 particles.
func TestDefaultSingleRun(t *testing.T) {
	out, errb, err := runCLI(t, "run")
	if code := exitCode(err); code != 0 {
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
	out, errb, err := runCLI(t, "run", "-steps", "1", "-particles", "0")
	if code := exitCode(err); code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "injected=0 deposited=0 exited=0 active=0") {
		t.Fatalf("-particles 0 injected particles:\n%s", out)
	}
}

// Every bad flag exits 2 before any simulation work, with the same
// rules POST /jobs applies to its options.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-ranks", "0"},
		{"run", "-steps", "-1"},
		{"run", "-particles", "-1"},
		{"run", "-threads", "0"},
		{"run", "-gens", "0"},
		{"run", "-mode", "warp"},
		{"run", "-strategy", "yolo"},
		{"run", "-inflow", "whoosh"},
		{"fig", "-exp", "sweep", "-sweep-d", "-1"},
		{"fig", "-exp", "sweep", "-sweep-q", "0"},
		{"fig", "-exp", "sweep", "-sweep-g", "2,0"},
		{"run", "-mode", "coupled", "-ranks", "0"},
		{"run", "-mode", "coupled", "-particle-ranks", "0"},
		{"run", "-particle-ranks", "1"},
		{"run", "-ranks-per-node", "-1"},
		{"run", "-inject-every", "-1"},
		{"run", "-checkpoint-every", "0"},
		{"run", "-checkpoint-keep", "0"},
		{"run", "-watchdog", "-1s"},
		{"run", "-ranks", "x"},
		{"run", "-nosuch"},
		{"run", "stray"},
	} {
		out, _, err := runCLI(t, args...)
		if code := exitCode(err); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out != "" {
			t.Errorf("%v: ran before rejecting:\n%s", args, out)
		}
	}
}

// serve validates every flag, in a fixed order, before it opens a
// listener: -addr is unusable, so a flag set that passed would fail
// with exit 1 instead.
func TestServeBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-capacity", "-1"},
		{"-queue", "-1"},
		{"-workers", "0"},
		{"-ttl", "0s"},
		{"-telemetry-max-runs", "-1"},
		{"-retries", "-1"},
		{"-checkpoint-every", "0"},
		{"-checkpoint-keep", "0"},
		{"-watchdog", "-1s"},
		{"-deadline", "-1s"},
		{"-drain-timeout", "-1s"},
		{"-nosuch"},
		{"stray"},
	} {
		out, _, err := runCLI(t, append([]string{"serve", "-addr", "256.0.0.1:0"}, args...)...)
		if code := exitCode(err); code != 2 {
			t.Errorf("%v: exit %d (%v), want 2", args, code, err)
		}
		if out != "" {
			t.Errorf("%v: wrote to stdout:\n%s", args, out)
		}
	}
	// Three bad flags: the same one is reported first every time.
	var first string
	for i := 0; i < 8; i++ {
		_, _, err := runCLI(t, "serve", "-retries", "-1", "-checkpoint-keep", "0", "-queue", "-1")
		if err == nil {
			t.Fatal("bad flags accepted")
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("run %d reported %q, run 0 %q", i, err, first)
		}
	}
	if !strings.Contains(first, "queue") {
		t.Fatalf("first reported error %q, want the -queue check", first)
	}
}

// verify scrubs a directory offline: a checkpoint run wrote passes, and
// a corrupted one exits 1.
func TestVerify(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	if _, errb, err := runCLI(t, "run", "-steps", "2", "-particles", "100", "-checkpoint", ckpt, "-checkpoint-every", "1"); err != nil {
		t.Fatalf("checkpointed run: exit %d: %s", exitCode(err), errb)
	}
	out, errb, err := runCLI(t, "verify", dir)
	if code := exitCode(err); code != 0 || !strings.Contains(out, "ok") || !strings.Contains(out, "run.ckpt") {
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
	out, _, err = runCLI(t, "verify", dir)
	if code := exitCode(err); code != 1 || !strings.Contains(out, "corrupt") {
		t.Fatalf("corrupt verify: exit %d\n%s", code, out)
	}
}
