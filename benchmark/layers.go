package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/fem"
	"repro/internal/la"
	"repro/internal/mesh"
	"repro/internal/navierstokes"
	"repro/internal/partition"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/internal/trace"
	"repro/scenario"
)

// layerKernels times each layer's exported entry points from outside, on
// the traced workload's own mesh, partition and assembled matrices. The
// numbers are per unit of work (element, nonzero, particle, row) so they
// stay comparable across hosts and mesh sizes.
func layerKernels(m *mesh.Mesh, cfg repro.SimulationConfig, tr *tracedRun, seed int64, sz sizing, out map[string]float64) error {
	if err := meshPartitionKernels(m, cfg, tr.fluidRanks, out); err != nil {
		return err
	}
	femKernels(m, cfg.Run.NS.Props, out)
	if err := assemblyKernels(m, cfg, out); err != nil {
		return err
	}
	hostKernels(sz.triadCap, out)
	laKernels(tr.solver0, out)
	if err := mpiKernels(tr.solver0, sz.mpiCalls, out); err != nil {
		return err
	}
	traceKernels(tr.trace, out)
	return scenarioKernels(seed, out)
}

func meshPartitionKernels(m *mesh.Mesh, cfg repro.SimulationConfig, k int, out map[string]float64) error {
	gen := make([]float64, 3)
	for i := range gen {
		t := time.Now()
		if _, err := mesh.GenerateAirway(cfg.Mesh); err != nil {
			return err
		}
		gen[i] = time.Since(t).Seconds() * 1e3
	}
	out["mesh.generate_ms"] = median(gen)
	out["mesh.elements"] = float64(m.NumElems())
	out["mesh.nodes"] = float64(m.NumNodes())

	var part *partition.Partition
	var err error
	out["partition.kway_ms"] = perCall(func() {
		if part, err = partition.KWay(m.DualByNode(), nil, k); err != nil {
			panic(err)
		}
	}) / 1e6
	out["partition.rankmeshes_ms"] = perCall(func() {
		if _, err = partition.BuildRankMeshes(m, part.Parts, k); err != nil {
			panic(err)
		}
	}) / 1e6
	return nil
}

// femKernels runs the two element kernels the step spends its assembly
// and SGS phases in over every element of the mesh, serially.
func femKernels(m *mesh.Mesh, props fem.FluidProps, out map[string]float64) {
	scr := new(fem.Scratch)
	load := func(e int) int {
		nen := fem.LoadCoords(m, e, scr)
		for i := 0; i < nen; i++ {
			scr.UConv[i] = mesh.Vec3{X: 0.1, Y: -0.2, Z: -1}
			scr.UOld3[i] = scr.UConv[i]
		}
		return nen
	}
	n := float64(m.NumElems())
	out["fem.momentum_element_ns"] = perCall(func() {
		for e := 0; e < m.NumElems(); e++ {
			fem.MomentumElement3(m.Kinds[e], load(e), props, scr)
		}
	}) / n
	out["fem.sgs_element_ns"] = perCall(func() {
		for e := 0; e < m.NumElems(); e++ {
			sinkVec = fem.SGSElement(m.Kinds[e], load(e), props, scr)
		}
	}) / n
}

var sinkVec mesh.Vec3

// assemblyKernels races the four assembly strategies on the whole mesh as
// one rank with two workers, and times an empty ParallelFor dispatch.
func assemblyKernels(m *mesh.Mesh, cfg repro.SimulationConfig, out map[string]float64) error {
	part, err := partition.KWay(m.DualByNode(), nil, 1)
	if err != nil {
		return err
	}
	rms, err := partition.BuildRankMeshes(m, part.Parts, 1)
	if err != nil {
		return err
	}
	const workers = 2
	pool := tasking.NewPool(workers)
	defer pool.Close()
	for _, s := range []struct {
		name     string
		strategy tasking.Strategy
	}{
		{"serial", tasking.StrategySerial}, {"atomic", tasking.StrategyAtomic},
		{"coloring", tasking.StrategyColoring}, {"multidep", tasking.StrategyMultidep},
	} {
		world, err := simmpi.NewWorld(1)
		if err != nil {
			return err
		}
		nsCfg := cfg.Run.NS
		nsCfg.Strategy = s.strategy
		err = world.Run(func(r *simmpi.Rank) {
			solver, err := navierstokes.NewSolver(m, rms[0], r.Comm, pool, nsCfg, cfg.Run.Cost, nil)
			if err != nil {
				panic(err)
			}
			out["tasking.assemble_"+s.name+"_ns_per_elem"] = perCall(func() {
				if err := solver.AssembleMomentumForBenchmark(); err != nil {
					panic(err)
				}
			}) / float64(m.NumElems())
		})
		if err != nil {
			return err
		}
	}
	out["tasking.parallelfor_dispatch_us"] = perCall(func() {
		pool.ParallelFor(workers, 1, func(lo, hi int) {})
	}) / 1e3
	return nil
}

func llcBytes() float64 {
	best := 0.0
	for i := 0; i < 8; i++ {
		data, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		mult := 1.0
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseFloat(s, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	if best == 0 {
		best = 32 << 20 // unknown: assume a common server LLC
	}
	return best
}

// hostKernels measures the attainable memory bandwidth with a STREAM
// triad (a = b + s*c, 24 B per element, counted as STREAM does).
func hostKernels(arrayCap int, out map[string]float64) {
	llc := llcBytes()
	bytes := math.Min(4*llc, float64(arrayCap))
	n := int(bytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := math.Inf(1)
	for rep := 0; rep < 4; rep++ {
		t := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		best = math.Min(best, time.Since(t).Seconds())
	}
	sinkFloat = a[n/2]
	out["host.triad_gbs"] = 24 * float64(n) / best / 1e9
	out["host.llc_bytes"] = llc
	out["host.triad_array_bytes"] = float64(8 * n)
	out["host.nproc"] = float64(runtime.NumCPU())
}

var sinkFloat float64

// laKernels times the Krylov building blocks, serially, on rank 0's real
// momentum matrix A (as the last step left it) and pressure Laplacian L.
func laKernels(s *navierstokes.Solver, out map[string]float64) {
	a, l := s.A, s.L
	n := a.N
	x, y, b := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) / 100)
		b[i] = math.Cos(float64(i) / 37)
	}
	nnz := float64(a.NNZ())
	spmv := perCall(func() { a.MulVec(x, y) })
	out["la.nnz"] = nnz
	out["la.spmv_ns_per_nnz"] = spmv / nnz
	// Computed, not measured, traffic: 8 B value + 4 B column per nonzero,
	// x and y once each, and the row pointers.
	moved := 12*nnz + 16*float64(n) + 4*float64(n+1)
	out["la.spmv_gbs_computed"] = moved / spmv
	out["la.spmv_bw_ratio"] = out["la.spmv_gbs_computed"] / out["host.triad_gbs"]
	out["la.dot_ns_per_elem"] = perCall(func() { sinkFloat = la.Dot(x, b) }) / float64(n)
	out["la.axpy_ns_per_elem"] = perCall(func() { la.Axpy(1e-12, x, y) }) / float64(n)

	ws := la.NewKrylovWorkspace(n)
	krylov := func(mat *la.CSRMatrix, iters int, solve func(la.Ops, func(r, z []float64), []float64, []float64, float64, int, *la.KrylovWorkspace) (la.SolveStats, error)) float64 {
		diag, inv := make([]float64, n), make([]float64, n)
		mat.Diagonal(diag)
		la.JacobiInvInto(diag, inv)
		ops, precond := la.OpsFromMatrix(mat), la.JacobiApplier(inv)
		done := 0
		ns := perCall(func() {
			la.Fill(y, 0)
			st, _ := solve(ops, precond, b, y, 0, iters, ws) // tol 0: runs to the cap or breaks down; either way st counts
			done = st.Iterations
		})
		return ns / float64(max(done, 1))
	}
	out["la.pcg_ns_per_iter"] = krylov(l, 25, la.PCGWithWorkspace)
	out["la.bicgstab_ns_per_iter"] = krylov(a, 15, la.BiCGSTABWithWorkspace)
}

// mpiKernels times the two exchanges a Krylov iteration makes, on a
// fresh 2-rank world: a scalar allreduce, and a leased-buffer halo
// send+receive at the traced workload's halo size.
func mpiKernels(s *navierstokes.Solver, calls int, out map[string]float64) error {
	halo := 64
	if len(s.RM.Halos) > 0 {
		halo = len(s.RM.Halos[0].Nodes)
	}
	world, err := simmpi.NewWorld(2, simmpi.WithRanksPerNode(2))
	if err != nil {
		return err
	}
	var allreduce, exchange float64
	err = world.Run(func(r *simmpi.Rank) {
		peer := 1 - r.ID()
		r.Comm.Barrier()
		t := time.Now()
		for i := 0; i < calls; i++ {
			r.Comm.AllreduceFloat64(float64(i), simmpi.OpSum)
		}
		if r.ID() == 0 {
			allreduce = float64(time.Since(t)) / float64(calls)
		}
		r.Comm.Barrier()
		t = time.Now()
		for i := 0; i < calls; i++ {
			buf := r.Comm.LeaseFloat64s(halo)
			buf.Data[0] = float64(i)
			r.Comm.SendFloat64Buf(peer, 7, buf)
			r.Comm.RecvFloat64Buf(peer, 7).Release()
		}
		if r.ID() == 0 {
			exchange = float64(time.Since(t)) / float64(calls)
		}
	})
	out["simmpi.allreduce_us"] = allreduce / 1e3
	out["simmpi.halo_roundtrip_us"] = exchange / 1e3
	return err
}

// traceKernels prices the repo's virtual-time tracer: one Advance on the
// hot path, one timeline render at the end of a run.
func traceKernels(tr *trace.Trace, out map[string]float64) {
	const n = 1 << 16
	rt := &trace.RankTracer{}
	rt.Reserve(n)
	samples := make([]float64, 7)
	for s := range samples {
		rt.RestoreEvents(nil)
		t := time.Now()
		for i := 0; i < n; i++ {
			rt.Advance(trace.PhaseAssembly, 1)
		}
		samples[s] = float64(time.Since(t)) / n
	}
	out["trace.advance_ns"] = median(samples)
	out["trace.render_ms"] = perCall(func() { sinkString = tr.Render(100, 16) }) / 1e6
}

var sinkString string

// scenarioKernels prices what the service does around a job's run: the
// dedup key of its parameters and the two artifact renderings.
func scenarioKernels(seed int64, out map[string]float64) error {
	params := scenario.NewParams(scenario.WithRanks(2), scenario.WithMesh(2),
		scenario.WithSteps(fullSizing.jobSteps), scenario.WithParticles(1000), scenario.WithSeed(seed))
	out["scenario.canonical_key_ns"] = perCall(func() { sinkString = params.CanonicalKey() })
	sc, err := scenario.Default.Get(repro.ScenarioBreathing)
	if err != nil {
		return err
	}
	art, err := sc.Run(context.Background(), scenario.NewParams(scenario.WithRanks(2), scenario.WithMesh(2),
		scenario.WithSteps(quickSizing.jobSteps), scenario.WithParticles(quickSizing.particles), scenario.WithSeed(seed)))
	if err != nil {
		return err
	}
	out["scenario.artifact_json_us"] = perCall(func() {
		if sinkBytes, err = art.JSON(); err != nil {
			panic(err)
		}
	}) / 1e3
	out["scenario.artifact_text_us"] = perCall(func() { sinkString = art.Text() }) / 1e3
	return nil
}
