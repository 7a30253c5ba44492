package coupling

import (
	"context"
	"testing"

	"repro/internal/navierstokes"
)

// breathingCfg is a synchronous run with a sinusoidal inlet waveform and
// a fresh particle release every step — the breathing-cycle workload.
func breathingCfg(steps int) RunConfig {
	cfg := fastCfg()
	cfg.FluidRanks = 4
	cfg.Steps = steps
	cfg.NumParticles = 200
	cfg.InjectEvery = 1
	cfg.NS.Inflow = navierstokes.BreathingWaveform{
		Period: 2 * float64(steps) * cfg.NS.Props.Dt,
	}
	return cfg
}

func TestBreathingDeterministicAcrossWorkers(t *testing.T) {
	// The breathing-cycle run (time-dependent inlet + per-step releases)
	// must be bit-identical whatever the worker count: simulation time
	// comes from the step index (not accumulation), and every release is
	// seeded by step. Makespan and particle fates must match exactly.
	m := testMesh(t)
	var ref *RunResult
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := breathingCfg(3)
		cfg.WorkersPerRank = workers
		res, err := RunContext(context.Background(), m, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Makespan != ref.Makespan {
			t.Fatalf("workers=%d: makespan %v != %v", workers, res.Makespan, ref.Makespan)
		}
		if res.Injected != ref.Injected || res.Deposited != ref.Deposited ||
			res.Exited != ref.Exited || res.ActiveEnd != ref.ActiveEnd {
			t.Fatalf("workers=%d: particle fates (%d,%d,%d,%d) != (%d,%d,%d,%d)",
				workers, res.Injected, res.Deposited, res.Exited, res.ActiveEnd,
				ref.Injected, ref.Deposited, ref.Exited, ref.ActiveEnd)
		}
	}
}

func TestInjectEveryReleasesEachPeriod(t *testing.T) {
	m := testMesh(t)

	// Single bolus: one release at step 0.
	cfg := breathingCfg(4)
	cfg.InjectEvery = 0
	bolus, err := RunContext(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Every step: four releases of the same size.
	cfg = breathingCfg(4)
	cfg.InjectEvery = 1
	every, err := RunContext(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Every other step: releases at steps 0 and 2.
	cfg = breathingCfg(4)
	cfg.InjectEvery = 2
	alt, err := RunContext(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if every.Injected != 4*bolus.Injected {
		t.Fatalf("inject-every-1 injected %d, want 4x bolus %d", every.Injected, bolus.Injected)
	}
	if alt.Injected != 2*bolus.Injected {
		t.Fatalf("inject-every-2 injected %d, want 2x bolus %d", alt.Injected, bolus.Injected)
	}
}

func TestBreathingWaveformChangesOutcome(t *testing.T) {
	// The waveform must actually reach the solver and the injector: a
	// breathing run and a steady run cannot share a virtual makespan
	// trace AND deposit identically by construction — compare the flow
	// fields via the makespan and injected velocities via particle fate.
	m := testMesh(t)
	cfg := breathingCfg(3)
	breathing, err := RunContext(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	steady := breathingCfg(3)
	steady.NS.Inflow = nil
	ref, err := RunContext(context.Background(), m, steady)
	if err != nil {
		t.Fatal(err)
	}
	if breathing.Injected != ref.Injected {
		t.Fatalf("waveform changed injection counts: %d vs %d", breathing.Injected, ref.Injected)
	}
	same := breathing.Deposited == ref.Deposited && breathing.Exited == ref.Exited &&
		breathing.ActiveEnd == ref.ActiveEnd && breathing.Makespan == ref.Makespan
	if same {
		t.Fatal("breathing waveform produced a run indistinguishable from steady inflow")
	}
}
