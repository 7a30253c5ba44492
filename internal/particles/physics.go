// Package particles implements the Lagrangian particle transport of the
// paper's CFPD simulation: Newton's second law (eq. 3) with drag, gravity
// and buoyancy forces (eqs. 4-6), the particle Reynolds number and
// Ganser's drag coefficient correlation (eqs. 7-8), Newmark time
// integration, element search over the hybrid airway mesh, injection
// through the nasal/inlet orifice, and migration between MPI subdomains.
//
// The injection-at-the-inlet behaviour is what produces the pathological
// load imbalance the paper measures (L96 = 0.02 in Table 1): at injection
// every particle lives in the one or two subdomains that contain the
// inlet, and only as the simulation advances do particles spread across
// ranks.
package particles

import (
	"math"

	"repro/internal/mesh"
)

// Props are the physical properties of one particle species.
type Props struct {
	Diameter float64 // dp (m)
	Density  float64 // rho_p (kg/m^3)
}

// Mass returns the particle mass m_p = rho_p * pi * dp^3 / 6.
func (p Props) Mass() float64 {
	return p.Density * math.Pi * p.Diameter * p.Diameter * p.Diameter / 6
}

// FluidProps are the carrier-fluid properties the forces need.
type FluidProps struct {
	Rho     float64   // rho_f (kg/m^3)
	Mu      float64   // mu_f (Pa s)
	Gravity mesh.Vec3 // g (m/s^2)
}

// AirAt20C returns standard air properties with gravity along -z.
func AirAt20C() FluidProps {
	return FluidProps{Rho: 1.204, Mu: 1.82e-5, Gravity: mesh.Vec3{Z: -9.81}}
}

// ReynoldsP computes the particle Reynolds number (eq. 7):
// Re_p = rho_f * dp * |u_f - u_p| / mu_f.
func ReynoldsP(f FluidProps, p Props, rel mesh.Vec3) float64 {
	return reynolds(f, p, rel.Norm())
}

// reynolds is eq. 7 on the slip speed |u_f - u_p|.
func reynolds(f FluidProps, p Props, slip float64) float64 {
	return f.Rho * p.Diameter * slip / f.Mu
}

// GanserCd evaluates Ganser's drag correlation (eq. 8):
//
//	Cd = 24/Re [1 + 0.1118 Re^0.65657] + 0.4305 / (1 + 3305/Re)
//
// It is defined for Re > 0; callers must special-case Re = 0 (Stokes
// limit handled in DragForce).
//
// The Re^0.65657 term is evaluated as exp(0.65657 * log(Re)): profiling
// shows math.Pow alone at ~40% of a particle step, and with a fixed
// positive exponent and a strictly positive base none of Pow's
// special-case and extra-precision machinery is needed. Across the
// physical range Re ∈ [1e-6, 1e6] the result stays within a few ULPs of
// the Pow form — TestGanserCdFastPathULPBound pins the bound against the
// math.Pow spelling, which is kept as the test oracle.
func GanserCd(re float64) float64 {
	return ganserCd(re, ganserPow(re))
}

// ganserCd is eq. 8 given pw = Re^0.65657. The power is a parameter so
// the lane-batched Newmark kernel can run every lane's Log, then every
// lane's Exp, before any lane needs the result.
func ganserCd(re, pw float64) float64 {
	return 24/re*(1+0.1118*pw) + 0.4305/(1+3305/re)
}

// ganserExp is the Reynolds exponent of eq. 8's Stokes-regime correction.
const ganserExp = 0.65657

// ganserPow is Re^0.65657 in the exp/log form (see GanserCd).
func ganserPow(re float64) float64 { return math.Exp(ganserExp * math.Log(re)) }

// ganserCdRe returns Cd*Re_p, the factor eq. 6 needs, given
// pw = Re^0.65657. Below Re = 1e-12 it is the Stokes limit 24, which
// avoids eq. 8's 0/0 at zero slip (pw is ignored there). It is the one
// place the cut-off is spelled: DragForce and the Newmark kernel both
// come through here.
func ganserCdRe(re, pw float64) float64 {
	if re < 1e-12 {
		return 24
	}
	return ganserCd(re, pw) * re
}

// DragForce computes eq. 6: F_D = (pi/8) mu_f dp Cd Re_p (u_f - u_p).
// In the Re -> 0 limit Cd*Re -> 24 and the expression reduces to Stokes
// drag 3 pi mu dp (u_f - u_p), which is used directly for tiny Re to
// avoid the 0/0.
func DragForce(f FluidProps, p Props, uf, up mesh.Vec3) mesh.Vec3 {
	rel := uf.Sub(up)
	re := reynolds(f, p, rel.Norm())
	cdRe := ganserCdRe(re, ganserPow(re))
	return rel.Scale(math.Pi / 8 * f.Mu * p.Diameter * cdRe)
}

// GravityForce computes eq. 4: F_g = m_p g.
func GravityForce(f FluidProps, p Props) mesh.Vec3 {
	return f.Gravity.Scale(p.Mass())
}

// BuoyancyForce computes eq. 5: F_b = -m_p g rho_f / rho_p.
func BuoyancyForce(f FluidProps, p Props) mesh.Vec3 {
	return f.Gravity.Scale(-p.Mass() * f.Rho / p.Density)
}

// StokesSettlingVelocity returns the analytic terminal velocity magnitude
// in the Stokes regime, (rho_p - rho_f) |g| dp^2 / (18 mu) — used to
// validate the integrator.
func StokesSettlingVelocity(f FluidProps, p Props) float64 {
	return (p.Density - f.Rho) * f.Gravity.Norm() * p.Diameter * p.Diameter / (18 * f.Mu)
}

// NewmarkState holds one particle's kinematic state for the Newmark
// integrator (gamma = 1/2, beta = 1/4, the unconditionally stable
// trapezoidal variant).
type NewmarkState struct {
	Pos, Vel, Acc mesh.Vec3
}

// newmarkConsts holds the per-(fluid, species, dt) invariants of a
// Newmark step. The tracker computes them once per Step instead of once
// per particle, with bit-identical results: each field is produced by
// exactly the (sub)expression the update formulas below spell, and a
// hoisted loop-invariant prefix of a left-to-right product is the same
// product.
type newmarkConsts struct {
	fluid   FluidProps
	species Props

	dragK    float64   // pi/8 mu_f dp, eq. 6's prefix: C = dragK * Cd Re_p
	gravity  mesh.Vec3 // eq. 4
	buoyancy mesh.Vec3 // eq. 5
	grav     mesh.Vec3 // gravity + buoyancy, as the lagged-drag solve adds them

	dt       float64
	halfDt   float64 // dt/2
	dtOver2m float64 // dt/(2m)
	twoMass  float64 // 2m
	invMass  float64 // 1/m
	qtrDt2   float64 // dt^2/4
}

func newmarkConstsFor(f FluidProps, p Props, dt float64) newmarkConsts {
	mass := p.Mass()
	gravity, buoyancy := GravityForce(f, p), BuoyancyForce(f, p)
	return newmarkConsts{
		fluid:    f,
		species:  p,
		dragK:    math.Pi / 8 * f.Mu * p.Diameter,
		gravity:  gravity,
		buoyancy: buoyancy,
		grav:     gravity.Add(buoyancy),
		dt:       dt,
		halfDt:   dt / 2,
		dtOver2m: dt / (2 * mass),
		twoMass:  2 * mass,
		invMass:  1 / mass,
		qtrDt2:   dt * dt / 4,
	}
}

// NewmarkStep advances the state by dt in fluid velocity uf under drag,
// gravity and buoyancy. The trapezoidal velocity update
//
//	v1 = v0 + dt/2 (a0 + a1),  a1 = (C(v1)(uf - v1) + G)/m
//
// is solved semi-implicitly: the drag coefficient C is lagged and the
// then-linear equation solved exactly, iterating C to convergence. This
// stays stable for time steps far beyond the particle relaxation time
// (aerosols at the paper's dt = 1e-4 s have tau ~ 3e-4 s), where a naive
// fixed-point on the force diverges.
//
// It is the one-lane call of the kernel the tracker runs eight lanes
// wide (newmarkStepLanes).
func NewmarkStep(st *NewmarkState, f FluidProps, p Props, uf mesh.Vec3, dt float64) {
	k := newmarkConstsFor(f, p, dt)
	var b newmarkBlock
	b.pos[0], b.vel[0], b.acc[0], b.uf[0] = st.Pos, st.Vel, st.Acc, uf
	newmarkStepLanes(&b, 1, &k)
	st.Pos, st.Vel, st.Acc = b.pos[0], b.vel[0], b.acc[0]
}

// newmarkLanes is how many particles one kernel call advances in
// lockstep. One particle's step is a single serial dependency chain
// (~7 lagged-drag evaluations of sub, sqrt, div, Log, Exp, divs), so a
// core spends it waiting on latency; the chains of different particles
// are independent, and issuing them stage by stage lets the core overlap
// them. Measured single-threaded on a 20 000-particle sweep through a
// swirling field, lanes of 1 / 2 / 4 / 8 / 16 cost 790 / 460 / 304 /
// 275 / 285 ns per particle-step: 8 is where the gain ends, and it
// divides stepShardSize.
const newmarkLanes = 8

// laneIndex is 0..newmarkLanes-1: its prefixes are the kernel's lane
// lists before any lane is frozen.
var laneIndex = func() (ix [newmarkLanes]uint8) {
	for l := range ix {
		ix[l] = uint8(l)
	}
	return ix
}()

// newmarkBlock is one kernel call's particles: lanes [0, n) are live,
// the rest are ignored. It is meant to live on the caller's stack.
type newmarkBlock struct {
	pos, vel, acc [newmarkLanes]mesh.Vec3 // state, advanced in place
	uf            [newmarkLanes]mesh.Vec3 // fluid velocity at pos
}

// dragCoefLanes sets c[l], for every listed lane l, to the linearized
// drag coefficient C such that F_D = C * (uf[l] - v[l]), per eqs. 6-8
// (C >= 0 always). The stages run across lanes — all Reynolds numbers,
// all Logs, all Exps, all correlations — so no lane's Log waits on
// another lane's Exp; each lane evaluates DragForce's expressions in
// DragForce's association. (l %= newmarkLanes changes no lane number; it
// is there so the compiler can drop the array bounds checks.)
func dragCoefLanes(lanes []uint8, k *newmarkConsts, uf, v *[newmarkLanes]mesh.Vec3, c *[newmarkLanes]float64) {
	var re, pw [newmarkLanes]float64
	for _, l := range lanes {
		l %= newmarkLanes
		re[l] = reynolds(k.fluid, k.species, uf[l].Sub(v[l]).Norm())
	}
	for _, l := range lanes {
		l %= newmarkLanes
		pw[l] = math.Log(re[l])
	}
	for _, l := range lanes {
		l %= newmarkLanes
		pw[l] = math.Exp(ganserExp * pw[l])
	}
	for _, l := range lanes {
		l %= newmarkLanes
		c[l] = k.dragK * ganserCdRe(re[l], pw[l])
	}
}

// newmarkStepLanes advances lanes [0, n) of b by k.dt. Every lane runs
// exactly NewmarkStep's arithmetic on its own particle: lanes are
// interleaved, never combined, so a lane's result does not depend on
// which particles share its block or on n. A lane is frozen (dropped
// from the live list) the moment its own convergence test passes; the
// lagged-drag iteration ends when no lane is live or at the 8-iteration
// cap, so a lane that never converges (NaN state) costs its block the
// cap and nothing else.
func newmarkStepLanes(b *newmarkBlock, n int, k *newmarkConsts) {
	var (
		base [newmarkLanes]mesh.Vec3 // v0 + dt/2*a0
		v1   [newmarkLanes]mesh.Vec3
		c    [newmarkLanes]float64
	)
	lanes := laneIndex[:n]
	for _, l := range lanes {
		l %= newmarkLanes
		base[l] = b.vel[l].Add(b.acc[l].Scale(k.halfDt))
		v1[l] = b.vel[l]
	}
	live := laneIndex // lanes still iterating: the first nLive entries
	nLive := n
	for it := 0; it < 8 && nLive > 0; it++ {
		dragCoefLanes(live[:nLive], k, &b.uf, &v1, &c)
		still := 0
		for _, l := range live[:nLive] {
			l %= newmarkLanes
			// v1 (1 + dt*C/(2m)) = v0 + dt/2*a0 + dt/(2m)*(C*uf + G)
			rhs := base[l].Add(b.uf[l].Scale(c[l]).Add(k.grav).Scale(k.dtOver2m))
			v1New := rhs.Scale(1 / (1 + k.dt*c[l]/k.twoMass))
			converged := v1New.Sub(v1[l]).Norm() <= 1e-12*(1+v1New.Norm())
			v1[l] = v1New
			if !converged {
				live[still] = l
				still++
			}
		}
		nLive = still
	}
	// a1 = (drag + gravity + buoyancy)/m, then the position and state update.
	dragCoefLanes(lanes, k, &b.uf, &v1, &c)
	for _, l := range lanes {
		l %= newmarkLanes
		drag := b.uf[l].Sub(v1[l]).Scale(c[l])
		a1 := drag.Add(k.gravity).Add(k.buoyancy).Scale(k.invMass)
		b.pos[l] = b.pos[l].Add(b.vel[l].Scale(k.dt)).Add(b.acc[l].Add(a1).Scale(k.qtrDt2))
		b.vel[l] = v1[l]
		b.acc[l] = a1
	}
}
