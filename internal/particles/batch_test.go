package particles

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mesh"
	"repro/internal/tasking"
)

// newmarkStepRef is the scalar one-particle-at-a-time Newmark/Ganser
// step the lane-batched kernel replaced, kept verbatim as the oracle
// (its own Stokes cut-off and correlation included, so it also pins the
// reynolds/ganserCdRe helpers). It reports how many lagged-drag
// iterations ran and whether the convergence test ever passed.
func newmarkStepRef(st *NewmarkState, f FluidProps, p Props, uf mesh.Vec3, dt float64) (iters int, converged bool) {
	dragCoef := func(rel mesh.Vec3) float64 {
		re := f.Rho * p.Diameter * rel.Norm() / f.Mu
		const tiny = 1e-12
		cdRe := 24.0
		if re >= tiny {
			cdRe = (24/re*(1+0.1118*math.Exp(ganserExp*math.Log(re))) + 0.4305/(1+3305/re)) * re
		}
		return math.Pi / 8 * f.Mu * p.Diameter * cdRe
	}
	mass := p.Mass()
	grav := GravityForce(f, p).Add(BuoyancyForce(f, p))
	a0 := st.Acc
	v1 := st.Vel
	for it := 0; it < 8; it++ {
		iters++
		c := dragCoef(uf.Sub(v1))
		// v1 (1 + dt*C/(2m)) = v0 + dt/2*a0 + dt/(2m)*(C*uf + G)
		rhs := st.Vel.Add(a0.Scale(dt / 2)).Add(uf.Scale(c).Add(grav).Scale(dt / (2 * mass)))
		v1New := rhs.Scale(1 / (1 + dt*c/(2*mass)))
		if v1New.Sub(v1).Norm() <= 1e-12*(1+v1New.Norm()) {
			v1 = v1New
			converged = true
			break
		}
		v1 = v1New
	}
	rel := uf.Sub(v1)
	drag := rel.Scale(dragCoef(rel))
	a1 := drag.Add(GravityForce(f, p)).Add(BuoyancyForce(f, p)).Scale(1 / mass)
	st.Pos = st.Pos.Add(st.Vel.Scale(dt)).Add(a0.Add(a1).Scale(dt * dt / 4))
	st.Vel = v1
	st.Acc = a1
	return iters, converged
}

// laneCase is one particle handed to the kernel: its state and the fluid
// velocity at its position.
type laneCase struct {
	st NewmarkState
	uf mesh.Vec3
}

// stepBlock advances cases (at most newmarkLanes of them) through one
// kernel call and returns the resulting states in lane order.
func stepBlock(cases []laneCase, f FluidProps, p Props, dt float64) []NewmarkState {
	k := newmarkConstsFor(f, p, dt)
	var b newmarkBlock
	for l, c := range cases {
		b.pos[l], b.vel[l], b.acc[l], b.uf[l] = c.st.Pos, c.st.Vel, c.st.Acc, c.uf
	}
	newmarkStepLanes(&b, len(cases), &k)
	out := make([]NewmarkState, len(cases))
	for l := range out {
		out[l] = NewmarkState{Pos: b.pos[l], Vel: b.vel[l], Acc: b.acc[l]}
	}
	return out
}

func stateBits(s NewmarkState) [9]uint64 {
	var out [9]uint64
	for i, v := range [9]float64{s.Pos.X, s.Pos.Y, s.Pos.Z, s.Vel.X, s.Vel.Y, s.Vel.Z, s.Acc.X, s.Acc.Y, s.Acc.Z} {
		out[i] = math.Float64bits(v)
	}
	return out
}

// checkAgainstRef asserts that every lane of the batched result carries
// the bits the scalar oracle produces for that particle alone.
func checkAgainstRef(t *testing.T, label string, cases []laneCase, f FluidProps, p Props, dt float64) {
	t.Helper()
	got := stepBlock(cases, f, p, dt)
	for l, c := range cases {
		want := c.st
		newmarkStepRef(&want, f, p, c.uf, dt)
		if stateBits(got[l]) != stateBits(want) {
			t.Fatalf("%s: lane %d of %d: batched %+v, scalar reference %+v (not bit-identical)",
				label, l, len(cases), got[l], want)
		}
	}
}

func randVec(rng *rand.Rand, scale float64) mesh.Vec3 {
	return mesh.Vec3{X: scale * rng.NormFloat64(), Y: scale * rng.NormFloat64(), Z: scale * rng.NormFloat64()}
}

// randCase draws a particle whose slip speed spans the Stokes to Newton
// regimes (log-uniform over twelve decades), so a block mixes lanes that
// converge after different numbers of iterations.
func randCase(rng *rand.Rand) laneCase {
	vel := randVec(rng, 2)
	slip := randVec(rng, 1).Normalize().Scale(math.Pow(10, -9+12*rng.Float64()))
	return laneCase{
		st: NewmarkState{Pos: randVec(rng, 0.1), Vel: vel, Acc: randVec(rng, 50)},
		uf: vel.Add(slip),
	}
}

var (
	batchSpecies = []Props{{Diameter: 1e-6, Density: 1000}, {Diameter: 10e-6, Density: 1000}, {Diameter: 100e-6, Density: 2500}}
	batchDts     = []float64{1e-5, 1e-4, 1e-3}
)

// TestBatchMatchesScalarReferenceEveryFill: for every block fill 1..8 a
// seeded random block is bit-identical, lane by lane, to the scalar
// reference (missing lanes are born frozen and never read).
func TestBatchMatchesScalarReferenceEveryFill(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := AirAt20C()
	for fill := 1; fill <= newmarkLanes; fill++ {
		for trial := 0; trial < 300; trial++ {
			cases := make([]laneCase, fill)
			for l := range cases {
				cases[l] = randCase(rng)
			}
			p := batchSpecies[rng.Intn(len(batchSpecies))]
			dt := batchDts[rng.Intn(len(batchDts))]
			checkAgainstRef(t, fmt.Sprintf("fill %d trial %d", fill, trial), cases, f, p, dt)
		}
	}
}

// TestBatchLanesFreezeIndependently builds one block whose lanes sit
// below the Stokes cut-off (zero and sub-cut-off slip), converge after
// different iteration counts, and run to the 8-iteration cap without
// converging — and checks it in every rotation, so each kind of lane is
// frozen while every other kind is still live beside it.
func TestBatchLanesFreezeIndependently(t *testing.T) {
	f := AirAt20C()
	p := aerosol()
	const dt = 1e-4
	v0 := mesh.Vec3{X: 0.1, Y: -0.2, Z: -1}
	var cases []laneCase
	for _, slip := range []float64{0, 1e-15, 1e-6, 1e-3, 0.05, 1, 30, 1000} {
		cases = append(cases, laneCase{
			st: NewmarkState{Pos: mesh.Vec3{Z: 0.01}, Vel: v0, Acc: mesh.Vec3{Z: -9}},
			uf: v0.Add(mesh.Vec3{X: slip}),
		})
	}
	stokes, capped := 0, 0
	iterCounts := map[int]bool{}
	for _, c := range cases {
		if ReynoldsP(f, p, c.uf.Sub(c.st.Vel)) < 1e-12 {
			stokes++
		}
		st := c.st
		iters, converged := newmarkStepRef(&st, f, p, c.uf, dt)
		if !converged {
			capped++
		}
		iterCounts[iters] = true
	}
	if stokes < 2 || capped < 1 || len(iterCounts) < 4 {
		t.Fatalf("block does not cover the branches: %d Stokes lanes, %d capped lanes, iteration counts %v",
			stokes, capped, iterCounts)
	}
	for rot := range cases {
		rotated := append(append([]laneCase(nil), cases[rot:]...), cases[:rot]...)
		checkAgainstRef(t, fmt.Sprintf("rotation %d", rot), rotated, f, p, dt)
	}
}

// TestBatchPoisonedLaneStaysInItsLane: lanes are independent. In a
// seeded random sweep over uf, Vel, Acc, dt and species, one lane carries
// a NaN or an infinity; it runs to the iteration cap, and every other
// lane's bits equal both its solo (one-lane) result and the scalar
// reference.
func TestBatchPoisonedLaneStaysInItsLane(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := AirAt20C()
	poisons := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 600; trial++ {
		fill := 2 + rng.Intn(newmarkLanes-1)
		cases := make([]laneCase, fill)
		for l := range cases {
			cases[l] = randCase(rng)
		}
		bad := rng.Intn(fill)
		poison := poisons[rng.Intn(len(poisons))]
		c := &cases[bad]
		field := []*mesh.Vec3{&c.uf, &c.st.Vel, &c.st.Acc}[rng.Intn(3)]
		*[]*float64{&field.X, &field.Y, &field.Z}[rng.Intn(3)] = poison

		p := batchSpecies[rng.Intn(len(batchSpecies))]
		dt := batchDts[rng.Intn(len(batchDts))]
		got := stepBlock(cases, f, p, dt)
		for l, c := range cases {
			if l == bad {
				// x-x is 0 for a finite x and NaN otherwise.
				sum := got[l].Pos.Add(got[l].Vel).Add(got[l].Acc)
				if d := sum.Sub(sum); d.X+d.Y+d.Z == 0 {
					t.Fatalf("trial %d: poisoned lane %d came out finite: %+v", trial, l, got[l])
				}
				continue
			}
			solo := c.st
			NewmarkStep(&solo, f, p, c.uf, dt)
			ref := c.st
			newmarkStepRef(&ref, f, p, c.uf, dt)
			if stateBits(got[l]) != stateBits(solo) || stateBits(solo) != stateBits(ref) {
				t.Fatalf("trial %d: lane %d beside poisoned lane %d: batched %+v, solo %+v, reference %+v",
					trial, l, bad, got[l], solo, ref)
			}
		}
	}
}

// TestBatchTrackerStepMatchesScalarSweep runs Tracker.Step over
// populations that are smaller than, equal to and just past one block
// and one shard, serially and on pools of 1/2/4/8 workers, against a
// particle-at-a-time sweep of the scalar reference: state bits, element
// hints and the survivor/lost split must all agree.
func TestBatchTrackerStepMatchesScalarSweep(t *testing.T) {
	m := airway(t, 1)
	field := swirlField(m)
	const dt = 2e-4
	for _, n := range []int{1, 7, 8, 9, 255, 256, 257, 513} {
		for _, workers := range []int{0, 1, 2, 4, 8} {
			tr := NewTracker(m, nil, aerosol(), AirAt20C())
			if workers > 0 {
				pool := tasking.NewPool(workers)
				defer pool.Close()
				tr.SetPool(pool)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for i, pos := range releaseCandidates(m, 2*n+64, 9, mesh.Vec3{Z: -1}) {
				if elem, ok := tr.Loc.Locate(pos, -1); ok && tr.Active.Len() < n {
					// Scattered initial velocities: slip, and so the
					// iteration count, differs from lane to lane.
					tr.adopt(i, pos, randVec(rng, 0.5).Add(mesh.Vec3{Z: -1}), elem, 9)
				}
			}
			if tr.Active.Len() != n {
				t.Fatalf("seeded %d particles, want %d", tr.Active.Len(), n)
			}
			for step := 0; step < 6; step++ {
				before := tr.Active.Clone()
				tr.Step(dt, field)
				lost := tr.TakeLost()
				kept := 0
				for i := 0; i < before.Len(); i++ {
					want := before.At(i)
					uf := tr.Loc.InterpolateIDW(int(want.Elem), want.Pos, field)
					newmarkStepRef(&want.NewmarkState, tr.Fluid, tr.Species, uf, dt)
					var got Particle
					if elem, ok := tr.Loc.Locate(want.Pos, want.Elem); ok {
						want.Elem = elem
						if kept >= tr.Active.Len() {
							t.Fatalf("n=%d workers=%d step %d: particle %d should have survived", n, workers, step, want.ID)
						}
						got = tr.Active.At(kept)
						kept++
					} else {
						want.Elem = -1
						if len(lost) == 0 {
							t.Fatalf("n=%d workers=%d step %d: particle %d should have been lost", n, workers, step, want.ID)
						}
						got, lost = lost[0], lost[1:]
					}
					if got.ID != want.ID || got.Elem != want.Elem || stateBits(got.NewmarkState) != stateBits(want.NewmarkState) {
						t.Fatalf("n=%d workers=%d step %d: got %+v, scalar sweep %+v (not bit-identical)",
							n, workers, step, got, want)
					}
				}
				if kept != tr.Active.Len() || len(lost) != 0 {
					t.Fatalf("n=%d workers=%d step %d: %d survivors and %d lost unaccounted for",
						n, workers, step, tr.Active.Len()-kept, len(lost))
				}
			}
		}
	}
}

// BenchmarkTrackerStepBatched reports the serial tracker sweep per
// particle-step where the lane-batched Newmark/Ganser kernel earns its
// keep: BenchmarkTrackerStep sits in a uniform downdraft, where every lane
// converges at once, while here particles slip through a swirling field
// at Re_p ~ 0.5, so each lane iterates its lagged drag through Log and
// Exp a handful of times. Every op replays the same step from a restored
// snapshot of particles known to survive it, so nothing is lost and the
// sweep allocates nothing.
func BenchmarkTrackerStepBatched(b *testing.B) {
	cfg := mesh.DefaultAirwayConfig()
	cfg.Generations, cfg.NTheta, cfg.NAxial = 2, 8, 4
	m, err := mesh.GenerateAirway(cfg)
	if err != nil {
		b.Fatal(err)
	}
	swirl := swirlField(m)
	nodal := make([]mesh.Vec3, m.NumNodes())
	for nd := range nodal {
		nodal[nd] = swirl(int32(nd))
	}
	field := func(nd int32) mesh.Vec3 { return nodal[nd] }
	const dt = 1e-4
	tr := NewTracker(m, nil, aerosol(), AirAt20C())
	tr.InjectAtInlet(4000, 3, mesh.Vec3{Z: -1})
	snapshot := tr.Active.Clone()
	tr.Step(dt, field)
	lost := map[int64]bool{}
	for _, p := range tr.TakeLost() {
		lost[p.ID] = true
	}
	snapshot.Compact(func(i int) bool { return !lost[snapshot.ID[i]] })
	step := func() {
		tr.Active.CopyFrom(snapshot)
		tr.Step(dt, field)
	}
	for i := 0; i < 10; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if tr.Active.Len() != snapshot.Len() {
		b.Fatalf("%d of %d survivors lost on replay", snapshot.Len()-tr.Active.Len(), snapshot.Len())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*snapshot.Len()), "ns/particle-step")
}
