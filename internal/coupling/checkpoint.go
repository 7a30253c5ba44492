// Checkpoint capture and resume for the two run modes. Capture happens
// at step boundaries only — every rank points the snapshot at its live
// state and rank 0 streams the file between two world barriers while
// every other rank is parked, strictly off the step loop's hot path
// (the same discipline as telemetry recording).
package coupling

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/dlb"
	"repro/internal/mesh"
	"repro/internal/navierstokes"
	"repro/internal/particles"
	"repro/internal/trace"
)

// fingerprint identifies the deterministic inputs of a run. A snapshot
// resumes only under an identical fingerprint; anything that changes the
// simulated trajectory belongs here. WorkersPerRank and DLB are
// deliberately absent: with serial or coloring assembly results are
// bit-identical at any worker count, so a resumed run may rebalance
// differently. Atomic and multidep assembly add conflicting scatters in
// scheduling order, so on more than one worker they repeat only to
// rounding, resumed or not.
func (cfg *RunConfig) fingerprint(m *mesh.Mesh) string {
	wf := "steady"
	if cfg.NS.Inflow != nil {
		wf = cfg.NS.Inflow.String()
	}
	return fmt.Sprintf("v1 mode=%s f=%d p=%d steps=%d particles=%d every=%d seed=%d d=%g rho=%g dt=%g inlet=%g,%g,%g wf=%s mesh=%d/%d",
		cfg.Mode, cfg.FluidRanks, cfg.ParticleRanks, cfg.Steps, cfg.NumParticles, cfg.InjectEvery, cfg.Seed,
		cfg.Species.Diameter, cfg.Species.Density, cfg.NS.Props.Dt,
		cfg.NS.InletVelocity.X, cfg.NS.InletVelocity.Y, cfg.NS.InletVelocity.Z, wf,
		m.NumNodes(), m.NumElems())
}

// prepCheckpoint resolves the run's checkpoint plan into a resume
// snapshot (when one exists and matches) and the snapshot that boundary
// captures fill.
// Restore problems are reported to the plan and degrade to a fresh
// start — a checkpoint must never be able to brick its run.
func (cfg *RunConfig) prepCheckpoint(m *mesh.Mesh, size int) (resume, snap *checkpoint.Snapshot, startStep int) {
	ck := cfg.Checkpoint
	if ck == nil || ck.Path == "" {
		return nil, nil, 0
	}
	fp := cfg.fingerprint(m)
	if ck.Resume {
		// Walk the generation chain newest-first: corrupt generations are
		// quarantined and skipped, so a flipped bit in the newest snapshot
		// costs one checkpoint interval instead of the whole run.
		if s := ck.LoadResume(fp, size); s != nil {
			resume = s
			startStep = int(s.Step) + 1
		}
	}
	if ck.Every > 0 {
		snap = checkpoint.New(fp, size)
	}
	return resume, snap, startStep
}

// ckptSaver coordinates boundary captures inside the rank body.
type ckptSaver struct {
	plan *checkpoint.Plan
	snap *checkpoint.Snapshot // nil disables capture
	cfg  *RunConfig
}

// due reports whether a snapshot is captured after the given step. The
// final step is skipped: the run is about to complete and delete its
// checkpoint anyway.
func (s *ckptSaver) due(step int) bool {
	return s.snap != nil && (step+1)%s.plan.Every == 0 && step+1 < s.cfg.Steps
}

// save is rank 0's half of the capture: stamp the boundary metadata,
// write the file, and drop the rank sections' views of live state.
// Runs between two barriers, so every rank's state is quiescent and
// the views are valid. Errors go to the plan's observer, never the run.
func (s *ckptSaver) save(step int, stepClocks []float64) {
	s.snap.Step = int64(step)
	s.snap.SimTime = s.cfg.simTimeAt(step)
	s.snap.StepClocks = append(s.snap.StepClocks[:0], stepClocks...)
	s.plan.Report(s.plan.Write(s.snap))
	// Past the second barrier the views go stale, and holding them would
	// pin a particle store that later grows.
	for i := range s.snap.Ranks {
		s.snap.Ranks[i].Solver = checkpoint.SolverState{}
		s.snap.Ranks[i].Particles = checkpoint.ParticleState{}
	}
}

// captureRank points snap.Ranks[id] at the rank's live solver and
// tracker state (no copy; valid until the next step) and copies its
// trace columns; ns and tk may each be nil (coupled mode's split roles).
func captureRank(snap *checkpoint.Snapshot, id int, ns *navierstokes.Solver, tk *particles.Tracker, rt *trace.RankTracer, injected int, d *dlb.DLB) {
	rs := &snap.Ranks[id]
	rs.HasSolver = ns != nil
	if ns != nil {
		ns.CaptureState(&rs.Solver)
	}
	rs.HasParticles = tk != nil
	if tk != nil {
		tk.CaptureState(&rs.Particles)
	}
	captureTrace(rt, &rs.Trace)
	rs.Injected = int64(injected)
	rs.Workers = int64(d.WorkersOf(id))
}

// restoreRank loads rank id's state out of a resume snapshot into the
// freshly constructed solver/tracker. Shape mismatches panic: the
// fingerprint matched, so they indicate a corrupt snapshot, and the
// world treats the panic as a fatal run error.
func restoreRank(resume *checkpoint.Snapshot, id int, ns *navierstokes.Solver, tk *particles.Tracker, rt *trace.RankTracer, injected *int, d *dlb.DLB) {
	rs := &resume.Ranks[id]
	if rs.HasSolver != (ns != nil) || rs.HasParticles != (tk != nil) {
		panic(fmt.Sprintf("coupling: checkpoint rank %d role mismatch", id))
	}
	if ns != nil {
		if err := ns.RestoreState(&rs.Solver); err != nil {
			panic(err)
		}
	}
	if tk != nil {
		if err := tk.RestoreState(&rs.Particles); err != nil {
			panic(err)
		}
	}
	restoreTrace(rt, &rs.Trace)
	*injected = int(rs.Injected)
	d.RestoreTarget(id, int(rs.Workers))
}

// captureTrace copies a rank timeline column-wise into dst, reusing its
// slices.
func captureTrace(rt *trace.RankTracer, dst *checkpoint.TraceState) {
	ev := rt.Events()
	dst.Phases = dst.Phases[:0]
	dst.Starts = dst.Starts[:0]
	dst.Ends = dst.Ends[:0]
	for _, e := range ev {
		dst.Phases = append(dst.Phases, uint8(e.Phase))
		dst.Starts = append(dst.Starts, e.Start)
		dst.Ends = append(dst.Ends, e.End)
	}
}

// restoreTrace rebuilds a rank timeline from its captured columns; the
// tracer clock resumes at the last event's end, so the continued
// timeline renders byte-identical to an uninterrupted one.
func restoreTrace(rt *trace.RankTracer, src *checkpoint.TraceState) {
	ev := make([]trace.Event, len(src.Phases))
	for i := range ev {
		ev[i] = trace.Event{Phase: trace.Phase(src.Phases[i]), Start: src.Starts[i], End: src.Ends[i]}
	}
	rt.RestoreEvents(ev)
}
