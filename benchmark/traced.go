package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/navierstokes"
)

// runOwnDriverLeg runs the workload's simulation through the benchmark's
// own step driver. The "own" leg only needs the step clock; the "traced"
// leg turns the spans into per-layer metrics, writes them out, and then
// times each layer's kernels on the state the run left behind.
func runOwnDriverLeg(w *workload, spec legSpec) (*legResult, error) {
	cfg, err := legConfig(w, spec)
	if err != nil {
		return nil, err
	}
	traced := spec.Leg == legTraced
	t0 := time.Now()
	m, err := mesh.GenerateAirway(cfg.Mesh)
	if err != nil {
		return nil, err
	}
	meshS := time.Since(t0).Seconds()
	tr, err := runTraced(m, cfg, traced)
	if err != nil {
		return nil, err
	}
	res := &legResult{Attempted: 1, Layer: map[string]float64{}}
	res.TotalS = time.Since(t0).Seconds()
	for _, t := range tr.stepEndS {
		res.StepEndS = append(res.StepEndS, t+meshS)
	}
	res.SetupS = res.StepEndS[0]
	res.Injected, res.Deposited, res.Exited, res.Active = tr.injected, tr.deposited, tr.exited, tr.active
	res.check("particles_conserved", tr.injected == tr.deposited+tr.exited+tr.active,
		"injected %d != deposited %d + exited %d + active %d", tr.injected, tr.deposited, tr.exited, tr.active)
	if !traced {
		return res, nil
	}

	spanMetrics(w, spec, tr, cfg.Run.Steps, cfg.Run.NS, res)
	path := filepath.Join(spec.OutDir, "trace_"+w.name+".json")
	if w.service {
		// trace_service_jobs.json holds the client-side spans of the HTTP
		// loop; this is the trace of what one of its jobs simulates.
		path = filepath.Join(spec.OutDir, "trace_"+w.name+".job.json")
	}
	if err := writeTraceFile(path, w.name, fmt.Sprintf("%s-seed%d", w.name, spec.Seed), tr.recs); err != nil {
		return nil, err
	}
	if err := layerKernels(m, cfg, tr, spec.Seed, spec.sizing(), res.Layer); err != nil {
		return nil, fmt.Errorf("layer kernels: %w", err)
	}
	return res, nil
}

// spanMetrics folds the spans of a traced run into the per-layer numbers
// that come from inside the step loop, and runs the traced-run checks.
func spanMetrics(w *workload, spec legSpec, tr *tracedRun, steps int, ns navierstokes.Config, res *legResult) {
	out := res.Layer
	var selfByKind [numSpanKinds]float64 // ns, spans inside a step only
	var loopWall, waitNS, waitMax float64
	var calls int
	particleWall := make([]float64, 0, len(tr.recs))
	newSolverMS := 0.0
	for rank, rec := range tr.recs {
		self := selfTimes(rec.spans)
		inStep := make([]bool, len(rec.spans))
		var rankWait, rankParticles float64
		for i, s := range rec.spans {
			inStep[i] = s.Kind == spanStep || (s.Parent >= 0 && inStep[s.Parent])
			if s.Kind == spanNewSolver {
				newSolverMS = max(newSolverMS, float64(s.End-s.Start)/1e6)
			}
			if !inStep[i] {
				continue
			}
			selfByKind[s.Kind] += float64(self[i])
			switch s.Kind {
			case spanStep:
				loopWall += float64(s.End - s.Start)
			case spanMPIWait:
				rankWait += float64(s.End - s.Start)
				calls++
			case spanTrackerStep:
				rankParticles += float64(s.End - s.Start)
			}
		}
		waitNS += rankWait
		waitMax = max(waitMax, rankWait)
		if tr.particleRanks == 0 || rank >= tr.fluidRanks {
			particleWall = append(particleWall, rankParticles)
		}
	}
	n := float64(steps)
	particleRanks := float64(len(particleWall))
	work := 0.0
	for _, u := range tr.work {
		work += float64(u)
	}

	out["navierstokes.newsolver_ms"] = newSolverMS
	out["navierstokes.step_self_ms"] = selfByKind[spanSolverStep] / (n * float64(tr.fluidRanks)) / 1e6
	var momIters, presIters, capped int
	resMax := 0.0
	converged := true
	for _, st := range tr.stats {
		momIters += st.MomentumIters
		presIters += st.PressureIters
		atCap := st.PressureIters >= ns.MaxIterPressure
		if atCap {
			capped++
		}
		resMax = max(resMax, st.PressureRes)
		if st.MomentumRes > 10*ns.TolMomentum || (st.PressureRes > 10*ns.TolPressure && !atCap) {
			converged = false
		}
	}
	out["navierstokes.momentum_iters_per_step"] = float64(momIters) / n
	out["navierstokes.pressure_iters_per_step"] = float64(presIters) / n
	out["navierstokes.pressure_capped_ratio"] = float64(capped) / n
	out["navierstokes.pressure_residual_max"] = resMax

	out["simmpi.blocking_calls_per_step"] = float64(calls) / n
	out["simmpi.wait_share"] = waitNS / loopWall
	out["simmpi.wait_ms_per_step_max"] = waitMax / n / 1e6

	particlesSelf := selfByKind[spanTrackerStep] + selfByKind[spanInject] + selfByKind[spanMigrate]
	out["particles.step_ns_per_particle"] = selfByKind[spanTrackerStep] / max(work, 1)
	out["particles.inject_ns_per_particle"] = selfByKind[spanInject] / float64(max(tr.injected, 1))
	out["particles.migrate_self_ms_per_step"] = selfByKind[spanMigrate] / (n * particleRanks) / 1e6
	out["particles.migrated_per_step"] = float64(tr.migrated) / n
	out["particles.finalized_per_step"] = float64(tr.finalized) / n
	out["particles.work_units_per_step"] = work / n
	out["particles.load_balance_ln"] = metrics.LoadBalance(particleWall)

	out["dlb.lends_per_step"] = float64(tr.dlb.Lends) / n
	peak := tr.workers
	for _, v := range tr.dlb.PeakWorkers {
		peak = max(peak, v)
	}
	out["dlb.peak_workers"] = float64(peak)
	out["partition.edge_cut"] = float64(tr.edgeCut)
	out["partition.imbalance"] = tr.imbalance

	covered := selfByKind[spanSolverStep] + waitNS + particlesSelf
	out["harness.span_coverage_ratio"] = covered / loopWall
	out["harness.spans"] = 0
	for _, rec := range tr.recs {
		out["harness.spans"] += float64(len(rec.spans))
	}

	res.check("steps_converged_or_capped", converged, "a step left the solver tolerances without hitting the pressure iteration cap")
	res.check("spans_cover_loop", covered/loopWall >= 0.9, "navierstokes+simmpi+particles self time is %.3f of the traced loop wall", covered/loopWall)
	if !spec.Quick {
		rel := abs(tr.maxVelocity-w.refMaxVelocity) / w.refMaxVelocity
		res.check("max_velocity_matches_reference", rel <= w.maxVelocityTol,
			"max velocity %.12g, reference %.12g (relative %.3g > %.0e)", tr.maxVelocity, w.refMaxVelocity, rel, w.maxVelocityTol)
	}
	out["navierstokes.max_velocity"] = tr.maxVelocity
	if w.name == "particle_bolus" && !spec.Quick {
		share := selfByKind[spanTrackerStep] / particlesSelf
		res.check("tracker_step_is_particle_share", share >= 0.9, "particles.step_ns_per_particle x work is %.3f of the particle layer's self time", share)
	}
}
