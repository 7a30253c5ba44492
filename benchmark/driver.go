package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/coupling"
	"repro/internal/dlb"
	"repro/internal/mesh"
	"repro/internal/navierstokes"
	"repro/internal/particles"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/internal/trace"
)

// Message tags of the benchmark's own driver; the same ranges
// internal/coupling reserves.
const (
	tagVelocity = 1 << 29
	tagMigrate  = 1 << 30
)

// tracedRun is what one run of the benchmark's own step driver leaves
// behind: the spans, rank 0's step-boundary clock, the solver's per-step
// statistics and the particle counts.
type tracedRun struct {
	recs     []*rankSpans
	stepEndS []float64 // rank 0, seconds since the run began
	stats    []navierstokes.StepStats
	trace    *trace.Trace

	injected, deposited, exited, active int
	migrated, finalized                 int
	work                                []int64 // particle-steps per rank
	maxVelocity                         float64
	dlb                                 dlb.Stats

	fluidRanks, particleRanks int
	workers                   int
	solver0                   *navierstokes.Solver // rank 0's solver, for the kernel timings
	edgeCut                   int
	imbalance                 float64
}

func buildPartition(m *mesh.Mesh, k int) ([]*partition.RankMesh, *partition.Partition, int, error) {
	dual := m.DualByNode()
	p, err := partition.KWay(dual, nil, k)
	if err != nil {
		return nil, nil, 0, err
	}
	rms, err := partition.BuildRankMeshes(m, p.Parts, k)
	return rms, p, partition.EdgeCut(dual, p.Parts), err
}

func haloPeers(rm *partition.RankMesh) []int {
	peers := make([]int, 0, len(rm.Halos))
	for _, h := range rm.Halos {
		peers = append(peers, h.Peer)
	}
	return peers
}

// velocityShipment lists, per (fluid rank, particle rank) pair, the
// global nodes the fluid rank owns and the particle rank needs.
type velocityShipment struct {
	peer  int
	nodes []int32
}

func buildShipments(fluidRMs, partRMs []*partition.RankMesh) (sends, recvs [][]velocityShipment) {
	sends = make([][]velocityShipment, len(fluidRMs))
	recvs = make([][]velocityShipment, len(partRMs))
	for fi, frm := range fluidRMs {
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
				sends[fi] = append(sends[fi], velocityShipment{peer: pi, nodes: nodes})
				recvs[pi] = append(recvs[pi], velocityShipment{peer: fi, nodes: nodes})
			}
		}
	}
	return sends, recvs
}

// runTraced executes cfg through the benchmark's own step driver, built
// from the exported pieces of each layer in the order coupling.Run calls
// them, with a span around every call and (through the blocking hooks)
// around every blocking MPI call. It takes no checkpoint and records no
// telemetry: those layers are measured by their own A/B legs. With
// spansOn false the same driver runs with no recorder and the run's own
// hooks, which is the reference the tracing overhead is taken against.
func runTraced(m *mesh.Mesh, cfg repro.SimulationConfig, spansOn bool) (*tracedRun, error) {
	rc := cfg.Run
	f, p := rc.FluidRanks, 0
	if rc.Mode == coupling.Coupled {
		p = rc.ParticleRanks
	}
	total := f + p
	out := &tracedRun{fluidRanks: f, particleRanks: p, workers: rc.WorkersPerRank, work: make([]int64, total)}

	fluidRMs, part, cut, err := buildPartition(m, f)
	if err != nil {
		return nil, err
	}
	out.edgeCut, out.imbalance = cut, part.Imbalance()
	partRMs := fluidRMs
	var sends, recvs [][]velocityShipment
	if p > 0 {
		if partRMs, _, _, err = buildPartition(m, p); err != nil {
			return nil, err
		}
		sends, recvs = buildShipments(fluidRMs, partRMs)
	}

	t0 := time.Now()
	out.recs = make([]*rankSpans, total) // nil recorders ignore begin/end
	d := dlb.New(rc.UseDLB)
	var hooks simmpi.BlockingHooks = d
	if spansOn {
		for i := range out.recs {
			out.recs[i] = newRankSpans(t0, 1<<16)
		}
		hooks = &spanHooks{recs: out.recs, next: d}
	}
	rpn := rc.RanksPerNode
	if rpn <= 0 {
		rpn = total
	}
	world, err := simmpi.NewWorld(total, simmpi.WithRanksPerNode(rpn), simmpi.WithBlockingHooks(hooks))
	if err != nil {
		return nil, err
	}
	pools := make([]*tasking.Pool, total)
	for r := range pools {
		pools[r] = tasking.NewPool(rpn * rc.WorkersPerRank)
		pools[r].SetWorkers(rc.WorkersPerRank)
		defer pools[r].Close()
		if err := d.Register(r, world.NodeOf(r), pools[r], rc.WorkersPerRank); err != nil {
			return nil, err
		}
	}

	tr := trace.NewTrace(total)
	out.trace = tr
	out.stepEndS = make([]float64, 0, rc.Steps)
	out.stats = make([]navierstokes.StepStats, 0, rc.Steps)
	injected := make([]int, total)
	migrated := make([]int, total)
	finalized := make([]int, total)
	counts := make([][3]int, total)
	dt := rc.NS.Props.Dt
	simTime := func(step int) float64 { return float64(step+1) * dt }
	injectNow := func(step int) bool { return step == 0 || (rc.InjectEvery > 0 && step%rc.InjectEvery == 0) }

	// particleStep is the particle half of one step on one rank: inject,
	// advance, migrate, then agree on the virtual clock.
	particleStep := func(rec *rankSpans, comm *simmpi.Comm, id, step int, tk *particles.Tracker, peers []int, velAt func(int32) mesh.Vec3) {
		if injectNow(step) {
			rec.begin(spanInject)
			injected[id] += particles.InjectAtInletCollectiveAt(comm, tk, rc.NumParticles, rc.Seed, step, rc.NS.InletVelocityAt(simTime(step)))
			rec.end()
		}
		w0 := tk.WorkUnits
		rec.begin(spanTrackerStep)
		tk.Step(dt, velAt)
		rec.end()
		rec.begin(spanMigrate)
		ms := particles.Migrate(comm, tk, peers, tagMigrate)
		rec.end()
		migrated[id] += ms.SentOut
		finalized[id] += ms.Finalized
		out.work[id] += tk.WorkUnits - w0
		tr.Ranks[id].Advance(trace.PhaseParticles, float64(tk.WorkUnits-w0)*rc.ParticleUnit)
		rec.begin(spanStepSync)
		tr.Ranks[id].AlignTo(comm.AllreduceFloat64(tr.Ranks[id].Clock(), simmpi.OpMax))
		rec.end()
	}

	err = world.Run(func(r *simmpi.Rank) {
		id := r.ID()
		rec := out.recs[id]
		rec.begin(spanRun)
		defer rec.end()
		comm := r.Comm
		if p > 0 {
			color := 0
			if id >= f {
				color = 1
			}
			comm = r.Comm.Split(color, id)
		}

		var ns *navierstokes.Solver
		if id < f {
			rec.begin(spanNewSolver)
			s, err := navierstokes.NewSolver(m, fluidRMs[id], comm, pools[id], rc.NS, rc.Cost, tr.Ranks[id])
			rec.end()
			if err != nil {
				panic(err)
			}
			ns = s
			if id == 0 {
				out.solver0 = s
			}
		}
		var tk *particles.Tracker
		var peers []int
		var velAt func(int32) mesh.Vec3
		var vel []mesh.Vec3
		var prm *partition.RankMesh
		if p == 0 || id >= f {
			pid := id
			if p > 0 {
				pid = id - f
			}
			prm = partRMs[pid]
			rec.begin(spanNewTracker)
			tk = particles.NewTracker(m, prm.Elems, rc.Species, rc.Fluid)
			rec.end()
			tk.SetPool(pools[id])
			peers = haloPeers(prm)
			if p == 0 {
				velAt = ns.VelocityAt
			} else {
				vel = make([]mesh.Vec3, prm.NumLocalNodes())
				velAt = func(g int32) mesh.Vec3 {
					if ln := prm.LocalNode[g]; ln >= 0 {
						return vel[ln]
					}
					return mesh.Vec3{}
				}
			}
		}

		for step := 0; step < rc.Steps; step++ {
			r.SetStep(step)
			rec.begin(spanStep)
			if ns != nil {
				rec.begin(spanSolverStep)
				st, err := ns.Step()
				rec.end()
				if err != nil {
					panic(err)
				}
				if id == 0 {
					out.stats = append(out.stats, st)
				}
			}
			switch {
			case p == 0:
				particleStep(rec, comm, id, step, tk, peers, velAt)
			case id < f:
				rec.begin(spanShipVelocity)
				for _, sh := range sends[id] {
					buf := r.Comm.LeaseFloat64s(1 + 3*len(sh.nodes))
					buf.Data[0] = tr.Ranks[id].Clock()
					for i, g := range sh.nodes {
						v := ns.VelocityAt(g)
						buf.Data[1+3*i], buf.Data[2+3*i], buf.Data[3+3*i] = v.X, v.Y, v.Z
					}
					r.Comm.SendFloat64Buf(f+sh.peer, tagVelocity, buf)
				}
				rec.end()
			default:
				rec.begin(spanRecvVelocity)
				senderClock, shipped := 0.0, 0
				for _, sh := range recvs[id-f] {
					rb := r.Comm.RecvFloat64Buf(sh.peer, tagVelocity)
					senderClock = max(senderClock, rb.Data[0])
					for i, g := range sh.nodes {
						if ln := prm.LocalNode[g]; ln >= 0 {
							vel[ln] = mesh.Vec3{X: rb.Data[1+3*i], Y: rb.Data[2+3*i], Z: rb.Data[3+3*i]}
						}
					}
					shipped += len(sh.nodes)
					rb.Release()
				}
				rec.end()
				tr.Ranks[id].AlignTo(senderClock + float64(shipped)*rc.TransferUnit)
				particleStep(rec, comm, id, step, tk, peers, velAt)
			}
			rec.end()
			if id == 0 {
				out.stepEndS = append(out.stepEndS, time.Since(t0).Seconds())
			}
		}
		if ns != nil {
			if mv := ns.MaxVelocity(); id == 0 {
				out.maxVelocity = mv
			}
		}
		if tk != nil {
			a, dep, exi := tk.Counts()
			counts[id] = [3]int{a, dep, exi}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	for id := 0; id < total; id++ {
		out.injected += injected[id]
		out.migrated += migrated[id]
		out.finalized += finalized[id]
		out.active += counts[id][0]
		out.deposited += counts[id][1]
		out.exited += counts[id][2]
	}
	out.dlb = d.Snapshot()
	return out, nil
}
