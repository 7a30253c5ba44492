// Package coupling orchestrates the two execution modes of the paper's
// Figure 3:
//
//   - Synchronous: every MPI rank solves the fluid and then transports
//     the particles of its own subdomain, each time step.
//   - Coupled: two Alya instances share the MPI world — f ranks solve the
//     fluid, p ranks transport particles — and the fluid code sends the
//     velocity field to the particle code every step.
//
// The user-chosen split f+p is exactly the decision the paper shows can
// cost 2x when wrong and that DLB makes irrelevant. This package builds
// both modes on real components (simmpi ranks, tasking pools, the
// Navier-Stokes solver, the particle tracker, DLB hooks) and produces
// both wall-clock measurements and deterministic virtual-time traces.
package coupling

import (
	"context"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dlb"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/navierstokes"
	"repro/internal/particles"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Mode selects the execution mode.
type Mode uint8

// Execution modes (Figure 3).
const (
	Synchronous Mode = iota
	Coupled
)

// String names the mode.
func (m Mode) String() string {
	if m == Coupled {
		return "coupled"
	}
	return "synchronous"
}

// Reserved tag ranges (simmpi tags are per (source, tag); the solver's
// rolling halo tags stay far below these).
const (
	tagVelocity = 1 << 29
	tagMigrate  = 1 << 30
)

// RunConfig describes one experiment run.
type RunConfig struct {
	Mode Mode
	// FluidRanks and ParticleRanks split the world in Coupled mode
	// (f + p); in Synchronous mode FluidRanks is the world size and
	// ParticleRanks must be 0.
	FluidRanks    int
	ParticleRanks int

	Steps        int
	NumParticles int
	Species      particles.Props
	Fluid        particles.FluidProps

	// InjectEvery re-releases NumParticles at the inlet every k-th step
	// (steps 0, k, 2k, ...), each release seeded Seed+step and launched
	// with the waveform-scaled inlet velocity of that step — continuous
	// dosing over a breathing cycle. 0 keeps the single step-0 bolus of
	// the paper's runs.
	InjectEvery int

	// PartitionScratch, when set, reuses partitioning buffers across
	// runs (sweeps build many partitions per process). Not safe for
	// concurrent runs; nil allocates fresh.
	PartitionScratch *partition.Scratch

	NS   navierstokes.Config
	Cost navierstokes.CostModel
	// ParticleUnit is the virtual cost of advancing one particle one step.
	ParticleUnit float64
	// TransferUnit is the virtual cost of one fluid->particle velocity
	// shipment (per node shipped).
	TransferUnit float64

	RanksPerNode   int
	WorkersPerRank int
	UseDLB         bool
	Seed           int64

	// OnStep, when set, is called by world rank 0 after each completed
	// time step with the zero-based step index. It runs inside the rank
	// goroutine: keep it cheap, and do not call back into the run. It is
	// the hook progress reporting and cancellation tests build on.
	OnStep func(step int)

	// Telemetry, when set, receives a successful run's event rows —
	// whole rank timelines plus step and DLB-migration markers, drained
	// after the last rank goroutine joins, strictly off the step loop's
	// hot path. RunContext falls back to the context's Env.Telemetry;
	// nil records nothing.
	// Telemetry never fails a run: sink errors are dropped.
	Telemetry telemetry.Sink

	// Watchdog bounds every blocking MPI operation: a rank still
	// waiting after this long fails the run with a typed
	// *simmpi.ErrRankStalled instead of hanging the world. Zero
	// disables it; RunContext falls back to the context's Env.Watchdog.
	Watchdog time.Duration

	// FaultPlan injects deterministic communication faults (delay,
	// drop, error) for chaos testing; see simmpi.FaultPlan. Nil runs
	// fault-free with zero overhead.
	FaultPlan *simmpi.FaultPlan

	// Checkpoint enables periodic snapshot capture (Plan.Every steps,
	// rank-0 coordinated at step boundaries, atomically renamed into
	// Plan.Path) and — with Plan.Resume — restoring from an existing
	// snapshot so the finished run's trace render and artifact are
	// byte-identical to an uninterrupted run. RunContext falls back to
	// a plan from the context's Env.Checkpoints. Nil disables.
	Checkpoint *checkpoint.Plan
}

// DefaultRunConfig returns a small synchronous run.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Mode:           Synchronous,
		FluidRanks:     4,
		Steps:          3,
		NumParticles:   500,
		Species:        particles.Props{Diameter: 10e-6, Density: 1000},
		Fluid:          particles.AirAt20C(),
		NS:             navierstokes.DefaultConfig(),
		Cost:           navierstokes.DefaultCostModel(),
		ParticleUnit:   0.02,
		TransferUnit:   0.001,
		RanksPerNode:   48,
		WorkersPerRank: 1,
		UseDLB:         false,
		Seed:           1,
	}
}

// RunResult aggregates one run.
type RunResult struct {
	Trace    *trace.Trace
	Makespan float64 // virtual time of the slowest rank
	Wall     time.Duration

	Injected  int
	Deposited int
	Exited    int
	ActiveEnd int

	DLB dlb.Stats

	// Solves sums the fluid ranks' Krylov solve counters in rank order,
	// over the steps this run executed (a resumed run counts from its
	// resume step).
	Solves navierstokes.SolveCounts
	// Exchanges sums every rank's simmpi exchange counts in rank order,
	// over the same steps as Solves.
	Exchanges simmpi.Exchanges
}

// RunContext executes the configured simulation on mesh m with
// cooperative cancellation: every rank checks ctx at the top of each
// time step, and the first to see it cancelled panics with ctx.Err(),
// which aborts the world like any rank error — its peers unwind from
// their next blocking wait — and the run returns an error wrapping
// ctx.Err(). A step in flight on that rank always completes.
// Cancellable and uncancellable contexts share one step loop.
func RunContext(ctx context.Context, m *mesh.Mesh, cfg RunConfig) (*RunResult, error) {
	if cfg.Mode > Coupled {
		return nil, fmt.Errorf("coupling: unknown mode %d", cfg.Mode)
	}
	if cfg.Mode == Synchronous && cfg.ParticleRanks != 0 {
		return nil, fmt.Errorf("coupling: synchronous mode takes no particle ranks")
	}
	if cfg.Mode == Coupled && (cfg.FluidRanks < 1 || cfg.ParticleRanks < 1) {
		return nil, fmt.Errorf("coupling: coupled mode needs f >= 1 and p >= 1")
	}
	if cfg.FluidRanks < 1 || cfg.Steps < 1 {
		return nil, fmt.Errorf("coupling: need at least one fluid rank and one step")
	}
	if cfg.WorkersPerRank < 1 {
		cfg.WorkersPerRank = 1
	}
	env := EnvFrom(ctx)
	if cfg.Telemetry == nil {
		cfg.Telemetry = env.Telemetry
	}
	if cfg.Checkpoint == nil && env.Checkpoints != nil {
		cfg.Checkpoint = env.Checkpoints.NextPlan()
	}
	if cfg.Watchdog <= 0 {
		cfg.Watchdog = env.Watchdog
	}
	return run(ctx, m, cfg)
}

// Env carries the run services a caller hands every simulation below it
// without threading them through scenario options: the job service
// attaches one per job attempt, `respira trace` one per fresh run. RunContext
// reads it once; a set RunConfig field wins over its Env counterpart.
type Env struct {
	// Telemetry backs RunConfig.Telemetry.
	Telemetry telemetry.Sink
	// Checkpoints backs RunConfig.Checkpoint: each run takes the next
	// plan, so a job's runs checkpoint to distinct files in order.
	Checkpoints checkpoint.Provider
	// Watchdog backs RunConfig.Watchdog (zero = off).
	Watchdog time.Duration
}

type envKey struct{}

// WithEnv returns ctx carrying env.
func WithEnv(ctx context.Context, env Env) context.Context {
	return context.WithValue(ctx, envKey{}, env)
}

// EnvFrom returns the Env attached by WithEnv, or the zero Env.
func EnvFrom(ctx context.Context) Env {
	env, _ := ctx.Value(envKey{}).(Env)
	return env
}

// buildPartition partitions the dual graph of m into k rank meshes,
// reusing scr's buffers when the caller provided one (nil = fresh
// allocations, the one-shot path).
func buildPartition(m *mesh.Mesh, dual *graph.CSR, k int, scr *partition.Scratch) ([]*partition.RankMesh, error) {
	if scr == nil {
		scr = partition.NewScratch()
	}
	p, err := scr.KWay(dual, nil, k)
	if err != nil {
		return nil, err
	}
	return scr.BuildRankMeshes(m, p.Parts, k)
}

// injectNow reports whether particles are released before the particle
// phase of this step: always at step 0, and at every InjectEvery-th
// step when continuous dosing is on.
func (cfg *RunConfig) injectNow(step int) bool {
	return step == 0 || (cfg.InjectEvery > 0 && step%cfg.InjectEvery == 0)
}

// simTimeAt is the simulation time the fluid has advanced to after
// step (zero-based) completed: (step+1)*Dt, by multiplication so every
// rank computes the identical float.
func (cfg *RunConfig) simTimeAt(step int) float64 {
	return float64(step+1) * cfg.NS.Props.Dt
}

// maxEventsPerStep bounds how many trace intervals one rank records per
// time step: the fluid code's five phases plus the particle phase, each
// possibly followed by an MPI alignment gap. Used to Reserve the trace
// storage up front, which keeps the step loop's virtual-time accounting
// allocation-free.
const maxEventsPerStep = 16

// haloPeers extracts the neighbor comm-ranks of a rank mesh.
func haloPeers(rm *partition.RankMesh) []int {
	peers := make([]int, 0, len(rm.Halos))
	for _, h := range rm.Halos {
		peers = append(peers, h.Peer)
	}
	return peers
}

// newWorld builds the world plus DLB and per-rank pools.
func newWorld(cfg RunConfig, size int) (*simmpi.World, *dlb.DLB, []*tasking.Pool, error) {
	d := dlb.New(cfg.UseDLB)
	rpn := cfg.RanksPerNode
	if rpn <= 0 {
		rpn = size
	}
	opts := []simmpi.Option{simmpi.WithRanksPerNode(rpn), simmpi.WithBlockingHooks(d)}
	if cfg.Watchdog > 0 {
		opts = append(opts, simmpi.WithWatchdog(cfg.Watchdog))
	}
	if cfg.FaultPlan != nil {
		opts = append(opts, simmpi.WithFaultPlan(cfg.FaultPlan))
	}
	world, err := simmpi.NewWorld(size, opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	pools := make([]*tasking.Pool, size)
	nodeCores := rpn * cfg.WorkersPerRank
	for r := 0; r < size; r++ {
		pools[r] = tasking.NewPool(nodeCores)
		pools[r].SetWorkers(cfg.WorkersPerRank)
		if err := d.Register(r, world.NodeOf(r), pools[r], cfg.WorkersPerRank); err != nil {
			return nil, nil, nil, err
		}
	}
	return world, d, pools, nil
}

func closePools(pools []*tasking.Pool) {
	for _, p := range pools {
		p.Close()
	}
}

// velocityTransfer precomputes which owned nodes each fluid rank ships to
// each particle rank.
type velocityTransfer struct {
	// sends[fluidRank] lists (particleRank, globalNodes).
	sends [][]xferList
	// recvs[particleRank] lists (fluidRank, globalNodes).
	recvs [][]xferList
}

type xferList struct {
	peer  int // comm rank within the OTHER group's world indices
	nodes []int32
}

func buildTransfer(fluidRMs, partRMs []*partition.RankMesh) *velocityTransfer {
	vt := &velocityTransfer{
		sends: make([][]xferList, len(fluidRMs)),
		recvs: make([][]xferList, len(partRMs)),
	}
	for fi, frm := range fluidRMs {
		// Owned global nodes of this fluid rank.
		owned := make(map[int32]bool, frm.NumOwned)
		for i, g := range frm.GlobalNode {
			if frm.Owned[i] {
				owned[g] = true
			}
		}
		for pi, prm := range partRMs {
			var nodes []int32
			for _, g := range prm.GlobalNode {
				if owned[g] {
					nodes = append(nodes, g)
				}
			}
			if len(nodes) > 0 {
				vt.sends[fi] = append(vt.sends[fi], xferList{peer: pi, nodes: nodes})
				vt.recvs[pi] = append(vt.recvs[pi], xferList{peer: fi, nodes: nodes})
			}
		}
	}
	return vt
}

// ship sends fluid rank id's owned velocities to the particle ranks
// (world ranks f..), stamping the sender's virtual clock (one-way
// pipeline). The payload fills a leased transport buffer in place; the
// particle rank releases it back to the world freelist, so the
// steady-state shipment allocates nothing on either side.
func (vt *velocityTransfer) ship(world *simmpi.Comm, f, id int, ns *navierstokes.Solver, clock float64) {
	for _, xl := range vt.sends[id] {
		buf := world.LeaseFloat64s(1 + 3*len(xl.nodes))
		buf.Data[0] = clock
		for i, g := range xl.nodes {
			v := ns.VelocityAt(g)
			buf.Data[1+3*i] = v.X
			buf.Data[1+3*i+1] = v.Y
			buf.Data[1+3*i+2] = v.Z
		}
		world.SendFloat64Buf(f+xl.peer, tagVelocity, buf)
	}
}

// receive fills particle rank pid's velocity store (indexed by rm's
// local nodes) from all its fluid sources, reading each leased buffer in
// place and recycling it. It returns the virtual time the field is
// complete: the latest sender clock plus unit per node shipped.
func (vt *velocityTransfer) receive(world *simmpi.Comm, pid int, rm *partition.RankMesh, vel []mesh.Vec3, unit float64) float64 {
	senderClock, shipped := 0.0, 0
	for _, xl := range vt.recvs[pid] {
		rb := world.RecvFloat64Buf(xl.peer, tagVelocity)
		buf := rb.Data
		if buf[0] > senderClock {
			senderClock = buf[0]
		}
		for i, g := range xl.nodes {
			if ln := rm.LocalNode[g]; ln >= 0 {
				vel[ln] = mesh.Vec3{X: buf[1+3*i], Y: buf[1+3*i+1], Z: buf[1+3*i+2]}
			}
		}
		shipped += len(xl.nodes)
		rb.Release()
	}
	return senderClock + float64(shipped)*unit
}

// run executes both modes of Figure 3 with one rank body and one step
// loop: coupled mode is the same code run as two instances inside one
// MPI world, so a rank's role is which of the two codes it carries. Ranks
// below f get a solver (ns != nil) and step the fluid; every rank in
// synchronous mode (p = 0), and ranks f.. in coupled mode, get a tracker
// (tk != nil) and transport particles. Only when the roles are split
// does the world Split in two and the velocity field travel by message;
// a rank with both reads its own solver.
func run(ctx context.Context, m *mesh.Mesh, cfg RunConfig) (*RunResult, error) {
	f, p := cfg.FluidRanks, cfg.ParticleRanks
	total, split := f+p, p > 0
	dual := m.DualByNode()
	fluidRMs, err := buildPartition(m, dual, f, cfg.PartitionScratch)
	if err != nil {
		return nil, err
	}
	// Rank meshes are read-only once built, so when both halves have as
	// many ranks (the same deterministic partition) they share them.
	partRMs := fluidRMs
	var vt *velocityTransfer
	if split {
		if p != f {
			if partRMs, err = buildPartition(m, dual, p, cfg.PartitionScratch); err != nil {
				return nil, err
			}
		}
		vt = buildTransfer(fluidRMs, partRMs)
	}

	world, d, pools, err := newWorld(cfg, total)
	if err != nil {
		return nil, err
	}
	defer closePools(pools)

	resume, snap, startStep := cfg.prepCheckpoint(m, total)
	saver := &ckptSaver{plan: cfg.Checkpoint, snap: snap, cfg: &cfg}

	tr := trace.NewTrace(total)
	for _, rt := range tr.Ranks {
		rt.Reserve(cfg.Steps * maxEventsPerStep)
	}
	res := &RunResult{Trace: tr}
	injected := make([]int, total)
	deposited := make([]int, total)
	exited := make([]int, total)
	activeEnd := make([]int, total)
	solves := make([]navierstokes.SolveCounts, total)
	// Step-boundary clocks for telemetry, recorded by rank 0 only and
	// read after world.Run joins every rank goroutine. Preallocated so
	// the step loop stays allocation-free. On resume the completed steps'
	// clocks come straight from the snapshot so the telemetry timeline is
	// whole.
	var stepClocks []float64
	if cfg.Telemetry != nil {
		stepClocks = make([]float64, 0, cfg.Steps)
		if resume != nil {
			stepClocks = append(stepClocks, resume.StepClocks...)
		}
	}

	start := time.Now()
	err = world.Run(func(r *simmpi.Rank) {
		id := r.ID()
		rt := tr.Ranks[id]
		// sub is the communicator of this rank's own code — the world
		// itself when every rank runs both, its half otherwise — and pid
		// the rank's index in it.
		sub := r.Comm
		if split {
			color := 0
			if id >= f {
				color = 1
			}
			sub = r.Comm.Split(color, id)
		}
		pid := sub.Rank()

		var ns *navierstokes.Solver
		if id < f {
			var err error
			if ns, err = navierstokes.NewSolver(m, fluidRMs[id], sub, pools[id], cfg.NS, cfg.Cost, rt); err != nil {
				panic(err)
			}
		}
		var (
			tk    *particles.Tracker
			rm    *partition.RankMesh // the tracker's subdomain
			peers []int
			vel   []mesh.Vec3 // shipped velocity store for rm's local nodes
			velAt func(int32) mesh.Vec3
		)
		if !split || id >= f {
			rm = partRMs[pid]
			tk = particles.NewTracker(m, rm.Elems, cfg.Species, cfg.Fluid)
			// The particle phase shards across the same pool DLB resizes, so
			// cores lent while this rank parks in MPI speed up its particles
			// once reclaimed (and vice versa).
			tk.SetPool(pools[id])
			peers = haloPeers(rm)
			if ns != nil {
				velAt = ns.VelocityAt // hoisted: a per-step method value would allocate
			} else {
				vel = make([]mesh.Vec3, rm.NumLocalNodes())
				velAt = func(g int32) mesh.Vec3 {
					if ln := rm.LocalNode[g]; ln >= 0 {
						return vel[ln]
					}
					return mesh.Vec3{}
				}
			}
		}
		if resume != nil {
			restoreRank(resume, id, ns, tk, rt, &injected[id], d)
		}

		for step := startStep; step < cfg.Steps; step++ {
			r.SetStep(step)
			if err := ctx.Err(); err != nil {
				panic(err) // aborts the world, both codes at once
			}
			if ns != nil {
				if _, err := ns.Step(); err != nil {
					panic(err)
				}
			}
			if split {
				if ns != nil {
					vt.ship(r.Comm, f, id, ns, rt.Clock())
				} else {
					rt.AlignTo(vt.receive(r.Comm, pid, rm, vel, cfg.TransferUnit))
				}
			}
			// The step marker is rank 0's view of the boundary: its own
			// clock after the sends when it only solves the fluid, the
			// all-reduced clock when it also transports particles.
			marker := rt.Clock()
			if tk != nil {
				if cfg.injectNow(step) {
					injected[id] += particles.InjectAtInletCollectiveAt(sub, tk, cfg.NumParticles, cfg.Seed, step,
						cfg.NS.InletVelocityAt(cfg.simTimeAt(step)))
				}
				w0 := tk.WorkUnits
				tk.Step(cfg.NS.Props.Dt, velAt)
				particles.Migrate(sub, tk, peers, tagMigrate)
				rt.Advance(trace.PhaseParticles, float64(tk.WorkUnits-w0)*cfg.ParticleUnit)
				marker = sub.AllreduceFloat64(rt.Clock(), simmpi.OpMax)
				rt.AlignTo(marker)
			}
			if id == 0 {
				if stepClocks != nil {
					stepClocks = append(stepClocks, marker)
				}
				if cfg.OnStep != nil {
					cfg.OnStep(step)
				}
			}
			if saver.due(step) {
				// Boundary capture across every role: each rank points
				// the snapshot at its quiescent state, the first world
				// barrier proves every velocity shipment, migration and
				// halo message of this step was consumed, rank 0 streams
				// the file from those views, the second barrier holds the
				// world until it is on disk. Barriers do not advance
				// virtual clocks, so the trace is unaffected.
				captureRank(snap, id, ns, tk, rt, injected[id], d)
				r.Comm.Barrier()
				if id == 0 {
					saver.save(step, stepClocks)
				}
				r.Comm.Barrier()
			}
		}
		if tk != nil {
			a, dd, ee := tk.Counts()
			deposited[id], exited[id], activeEnd[id] = dd, ee, a
		}
		if ns != nil {
			solves[id] = ns.Counts()
		}
	})
	res.Wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	for i := 0; i < total; i++ {
		res.Injected += injected[i]
		res.Deposited += deposited[i]
		res.Exited += exited[i]
		res.ActiveEnd += activeEnd[i]
		res.Solves.Add(solves[i])
		res.Exchanges.Add(world.Exchanges(i))
	}
	res.Makespan = tr.MaxClock()
	res.DLB = d.Snapshot()
	recordTelemetry(&cfg, res, stepClocks, d)
	return res, nil
}
