package navierstokes

import (
	"fmt"

	"repro/internal/checkpoint"
)

// CaptureState points dst at the solver's live cross-step state; it
// copies nothing. The view is valid only while the solver is parked at
// a step boundary (the checkpoint barrier pair): the next Step
// overwrites what it references. Uold is intentionally omitted: Step
// overwrites it from U before reading it, so it carries no information
// across a step boundary. The matrices, preconditioners and workspaces
// are rebuilt identically by NewSolver and need no capture.
func (s *Solver) CaptureState(dst *checkpoint.SolverState) {
	dst.StepIndex = int64(s.stepIndex)
	dst.U = s.U
	dst.P = s.P
	dst.SGS = s.SGS
}

// RestoreState loads a captured state into a freshly constructed solver
// for the same mesh and partition; lengths must match exactly.
func (s *Solver) RestoreState(src *checkpoint.SolverState) error {
	for c := 0; c < 3; c++ {
		if len(src.U[c]) != len(s.U[c]) {
			return fmt.Errorf("navierstokes: restore U[%d]: have %d nodes, snapshot %d", c, len(s.U[c]), len(src.U[c]))
		}
	}
	if len(src.P) != len(s.P) {
		return fmt.Errorf("navierstokes: restore P: have %d nodes, snapshot %d", len(s.P), len(src.P))
	}
	if len(src.SGS) != len(s.SGS) {
		return fmt.Errorf("navierstokes: restore SGS: have %d elems, snapshot %d", len(s.SGS), len(src.SGS))
	}
	for c := 0; c < 3; c++ {
		copy(s.U[c], src.U[c])
	}
	copy(s.P, src.P)
	copy(s.SGS, src.SGS)
	s.stepIndex = int(src.StepIndex)
	return nil
}
