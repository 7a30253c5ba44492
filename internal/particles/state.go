package particles

import (
	"fmt"

	"repro/internal/checkpoint"
)

// CaptureState points dst at the tracker's live population and copies
// its fate counters; the population itself is not copied. The view is
// valid only while the tracker is parked at a step boundary (the
// checkpoint barrier pair): the next Step, release or migration
// mutates or reallocates what it references. It must be called after
// migration: the lost list is transient within a step (Migrate
// consumes it) and is not captured.
func (t *Tracker) CaptureState(dst *checkpoint.ParticleState) {
	if len(t.lost) != 0 {
		panic("particles: CaptureState with pending lost particles (capture only at step boundaries)")
	}
	s := t.Active
	dst.ID, dst.Elem = s.ID, s.Elem
	dst.Pos, dst.Vel, dst.Acc = s.Pos, s.Vel, s.Acc
	dst.Deposited = int64(t.DepositedCount)
	dst.Exited = int64(t.ExitedCount)
	dst.WorkUnits = t.WorkUnits
	dst.NextID = t.nextID
}

// RestoreState replaces the tracker's population and counters with a
// captured state.
func (t *Tracker) RestoreState(src *checkpoint.ParticleState) error {
	n := len(src.ID)
	if len(src.Pos) != n || len(src.Vel) != n || len(src.Acc) != n || len(src.Elem) != n {
		return fmt.Errorf("particles: restore: inconsistent snapshot (%d ids, %d/%d/%d vectors, %d elems)",
			n, len(src.Pos), len(src.Vel), len(src.Acc), len(src.Elem))
	}
	s := t.Active
	s.ID = append(s.ID[:0], src.ID...)
	s.Elem = append(s.Elem[:0], src.Elem...)
	s.Pos = append(s.Pos[:0], src.Pos...)
	s.Vel = append(s.Vel[:0], src.Vel...)
	s.Acc = append(s.Acc[:0], src.Acc...)
	t.lost = t.lost[:0]
	t.DepositedCount = int(src.Deposited)
	t.ExitedCount = int(src.Exited)
	t.WorkUnits = src.WorkUnits
	t.nextID = src.NextID
	return nil
}
