package coupling

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/simmpi"
)

// TestInjectedErrorAbortsRun: an injected rank error ends the whole run
// promptly and typed, with or without a watchdog — in synchronous mode
// from a collective, and in coupled mode from either side of the
// fluid/particle split, where the peers are parked on a velocity
// shipment or a migration that never comes. The watchdog plays no part:
// the failing rank aborts the world.
func TestInjectedErrorAbortsRun(t *testing.T) {
	cases := []struct {
		name       string
		mode       Mode
		f, p       int
		rule       simmpi.FaultRule
		rank, step int
	}{
		{"sync-collective", Synchronous, 4, 0,
			simmpi.FaultRule{Rank: 1, Op: simmpi.FaultCollective, Tag: -1, Step: 2, Nth: 1, Action: simmpi.FaultErr}, 1, 2},
		{"coupled-velocity-send", Coupled, 2, 2,
			simmpi.FaultRule{Rank: 0, Op: simmpi.FaultSend, Tag: tagVelocity, Step: 1, Nth: 1, Action: simmpi.FaultErr}, 0, 1},
		{"coupled-migrate-recv", Coupled, 2, 2,
			simmpi.FaultRule{Rank: 3, Op: simmpi.FaultRecv, Tag: tagMigrate, Step: 1, Nth: 1, Action: simmpi.FaultErr}, 3, 1},
	}
	m := testMesh(t)
	for _, c := range cases {
		for _, wd := range []time.Duration{0, 10 * time.Second} {
			t.Run(fmt.Sprintf("%s/watchdog=%v", c.name, wd), func(t *testing.T) {
				cfg := fastCfg()
				cfg.Mode = c.mode
				cfg.FluidRanks, cfg.ParticleRanks = c.f, c.p
				cfg.Steps = 4
				cfg.Watchdog = wd
				cfg.FaultPlan = &simmpi.FaultPlan{Rules: []simmpi.FaultRule{c.rule}}
				done := make(chan error, 1)
				start := time.Now()
				go func() {
					_, err := RunContext(context.Background(), m, cfg)
					done <- err
				}()
				var err error
				select {
				case err = <-done:
				case <-time.After(time.Minute):
					t.Fatal("the injected error hung the run")
				}
				if el := time.Since(start); el > 5*time.Second {
					t.Errorf("run took %v to fail, want < 5s", el)
				}
				var fe *simmpi.FaultError
				if !errors.As(err, &fe) {
					t.Fatalf("err = %v, want *simmpi.FaultError", err)
				}
				if fe.Rank != c.rank || fe.Step != c.step {
					t.Fatalf("fault at rank %d step %d, want rank %d step %d", fe.Rank, fe.Step, c.rank, c.step)
				}
			})
		}
	}
}
