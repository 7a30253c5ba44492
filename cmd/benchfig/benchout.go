// benchout: machine-readable A/B micro-benchmarks for the perf
// trajectory. `benchfig -benchout FILE` measures the allocation-heavy
// legacy paths against their zero-allocation steady-state counterparts
// (Krylov workspace solvers, leased halo buffers, typed collectives,
// the sharded particle step, and the fresh-vs-compiled multidep task
// graph) and writes ns/op + allocs/op as JSON — the format the CI smoke
// step validates and BENCH_<pr>.json snapshots accumulate.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/mesh"
	"repro/internal/particles"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/internal/warmrt"
)

// benchResult is one measured configuration.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// benchReport is the file schema.
type benchReport struct {
	Schema     string        `json:"schema"`
	GoMaxProcs int           `json:"go_max_procs"`
	Benches    []benchResult `json:"benches"`
}

const benchSchema = "repro/bench/v1"

// benchQuick, when set (by tests), divides the measured iteration
// counts so the schema and zero-alloc contracts can be pinned without
// paying the full measurement wall-clock (worthless under -race
// instrumentation anyway).
var benchQuick bool

// scaledIters applies the quick-mode reduction.
func scaledIters(n int) int {
	if benchQuick {
		n /= 10
		if n < 3 {
			n = 3
		}
	}
	return n
}

// measureLoop times fn over iters iterations after warmup rounds and a
// collection (see measureWindow).
func measureLoop(name string, warmup, iters int, fn func()) benchResult {
	for i := 0; i < warmup; i++ {
		fn()
	}
	runtime.GC()
	return measureWindow(name, iters, fn)
}

// measureWindow times fn over iters iterations and reads heap counters
// around them. Allocations on every goroutine count (runtime.MemStats is
// process-wide), which is what the world-based benches need.
func measureWindow(name string, iters int, fn func()) benchResult {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return benchResult{
		Name:        name,
		Iterations:  iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(iters),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters),
	}
}

// benchBandMatrix builds the n-row banded matrix with halfBand entries
// either side of a diagonal of 4 and -1 elsewhere in the band; at
// halfBand 1 it is the tridiagonal SPD system the Krylov benches solve.
func benchBandMatrix(n, halfBand int) *la.CSRMatrix {
	lists := make([][]int32, n)
	for i := range lists {
		for j := max(i-halfBand, 0); j <= min(i+halfBand, n-1); j++ {
			if j != i {
				lists[i] = append(lists[i], int32(j))
			}
		}
	}
	a := la.NewCSRFromGraph(graph.FromAdjacency(lists))
	for i := int32(0); i < int32(n); i++ {
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			a.Val[k] = -1
			if a.Col[k] == i {
				a.Val[k] = 4
			}
		}
	}
	return a
}

func benchKrylov(results *[]benchResult) {
	const n = 4096
	a := benchBandMatrix(n, 1)
	d := make([]float64, n)
	a.Diagonal(d)
	inv := make([]float64, n)
	la.JacobiInvInto(d, inv)
	apply := la.JacobiApplier(inv)
	ops := la.OpsFromMatrix(a)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	x := make([]float64, n)
	ws := la.NewKrylovWorkspace(n)

	*results = append(*results,
		measureLoop("pcg/alloc", 3, scaledIters(30), func() {
			la.Fill(x, 0)
			if _, err := la.PCG(ops, apply, b, x, 1e-8, 200); err != nil {
				panic(err)
			}
		}),
		measureLoop("pcg/workspace", 3, scaledIters(30), func() {
			la.Fill(x, 0)
			if _, err := la.PCGWithWorkspace(ops, apply, b, x, 1e-8, 200, ws); err != nil {
				panic(err)
			}
		}),
		measureLoop("bicgstab/alloc", 3, scaledIters(30), func() {
			la.Fill(x, 0)
			if _, err := la.BiCGSTAB(ops, apply, b, x, 1e-8, 200); err != nil {
				panic(err)
			}
		}),
		measureLoop("bicgstab/workspace", 3, scaledIters(30), func() {
			la.Fill(x, 0)
			if _, err := la.BiCGSTABWithWorkspace(ops, apply, b, x, 1e-8, 200, ws); err != nil {
				panic(err)
			}
		}),
	)
}

// benchHalo measures one symmetric two-rank halo exchange per op, fresh
// per-exchange buffers (the seed's pattern) against leased persistent
// buffers. The measurement runs inside the world so only steady-state
// rounds count.
func benchHalo(results *[]benchResult) {
	n, warmup, rounds := 512, 50, scaledIters(3000)
	for _, leased := range []bool{false, true} {
		name := "halo/fresh"
		if leased {
			name = "halo/persistent"
		}
		w, err := simmpi.NewWorld(2)
		if err != nil {
			panic(err)
		}
		var res benchResult
		if err := w.Run(func(r *simmpi.Rank) {
			peer := 1 - r.ID()
			x := make([]float64, n)
			round := func(tag int) {
				if leased {
					b := r.Comm.LeaseFloat64s(n)
					copy(b.Data, x)
					r.Comm.SendFloat64Buf(peer, tag, b)
					rb := r.Comm.RecvFloat64Buf(peer, tag)
					for i := range x {
						x[i] += rb.Data[i]
					}
					rb.Release()
				} else {
					buf := make([]float64, n)
					copy(buf, x)
					r.Comm.Send(peer, tag, buf)
					got := r.Comm.RecvFloat64s(peer, tag)
					for i := range x {
						x[i] += got[i]
					}
				}
				la.Fill(x, 1) // keep values bounded across rounds
			}
			for i := 0; i < warmup; i++ {
				round(i + 1)
			}
			r.Comm.Barrier()
			if r.ID() == 0 {
				res = measureLoop(name, 0, rounds, func() {
					round(warmup + 1)
				})
			} else {
				for i := 0; i < rounds; i++ {
					round(warmup + 1)
				}
			}
		}); err != nil {
			panic(err)
		}
		// Both ranks exchange each op, so per-op cost is per rank-pair.
		*results = append(*results, res)
	}
}

// benchCollective measures the typed scalar allreduce on four ranks.
func benchCollective(results *[]benchResult) {
	warmup, rounds := 100, scaledIters(20000)
	w, err := simmpi.NewWorld(4)
	if err != nil {
		panic(err)
	}
	var res benchResult
	if err := w.Run(func(r *simmpi.Rank) {
		round := func() { _ = r.Comm.AllreduceFloat64(float64(r.ID()), simmpi.OpMax) }
		for i := 0; i < warmup; i++ {
			round()
		}
		r.Comm.Barrier()
		if r.ID() == 0 {
			res = measureLoop("collective/allreduce-f64", 0, rounds, round)
		} else {
			for i := 0; i < rounds; i++ {
				round()
			}
		}
	}); err != nil {
		panic(err)
	}
	*results = append(*results, res)
}

// benchSpMVL2 measures one SpMV on an L2-resident matrix of the size a
// fluid_sync rank multiplies ~800 times per step (1400 rows x 13 entries,
// ~18k nnz). The Krylov rows above run a tridiagonal system and the la
// package's BenchmarkSpMV is DRAM-sized; neither can see the kernel.
func benchSpMVL2(results *[]benchResult) {
	const n = 1400
	a := benchBandMatrix(n, 6)
	x, y := make([]float64, n), make([]float64, n)
	la.Fill(x, 1)
	*results = append(*results, measureLoop("spmv/l2-resident", 100, scaledIters(20000), func() {
		a.MulVec(x, y)
	}))
}

// benchLockstep measures what a synchronization costs two ranks that
// really overlap, as the distributed Krylov loop's do: each op is ~10 us
// of private work (an 8192-element dot product) followed by one scalar
// allreduce, or by one leased 512-value halo exchange. The ranks arrive
// microseconds apart, which is the case the spin-then-park wait exists
// for; collective/allreduce-f64 and halo/persistent above time
// back-to-back calls and cannot see a park.
func benchLockstep(results *[]benchResult) {
	const nWork, nHalo, warmup = 8192, 512, 200
	rounds := scaledIters(5000)
	for _, halo := range []bool{false, true} {
		name := "allreduce/2rank-lockstep"
		if halo {
			name = "halo/2rank-lockstep"
		}
		w, err := simmpi.NewWorld(2)
		if err != nil {
			panic(err)
		}
		var res benchResult
		if err := w.Run(func(r *simmpi.Rank) {
			peer := 1 - r.ID()
			x := make([]float64, nWork)
			la.Fill(x, 1e-3)
			acc := 0.0
			round := func() {
				acc = la.Dot(x, x)
				if !halo {
					acc = r.Comm.AllreduceFloat64(acc, simmpi.OpSum)
					return
				}
				b := r.Comm.LeaseFloat64s(nHalo)
				b.Data[0] = acc
				r.Comm.SendFloat64Buf(peer, 1, b)
				rb := r.Comm.RecvFloat64Buf(peer, 1)
				acc += rb.Data[0]
				rb.Release()
			}
			for i := 0; i < warmup; i++ {
				round()
			}
			r.Comm.Barrier()
			if r.ID() == 0 {
				// Keep the runtime's own park bookkeeping out of
				// allocs_per_op: after the collection (which empties the
				// runtime's central sudog list), so the refill survives.
				runtime.GC()
				warmrt.Scheduler()
				res = measureWindow(name, rounds, round)
			} else {
				for i := 0; i < rounds; i++ {
					round()
				}
			}
			if r.ID() == 0 { // one writer: both ranks storing it is a data race
				benchSink = acc
			}
		}); err != nil {
			panic(err)
		}
		*results = append(*results, res)
	}
}

// benchSink keeps measured results observable.
var benchSink float64

// benchTrackerMesh is the airway the tracker rows sweep.
func benchTrackerMesh() *mesh.Mesh {
	cfg := mesh.DefaultAirwayConfig()
	cfg.Generations = 2
	cfg.NTheta = 8
	cfg.NAxial = 4
	m, err := mesh.GenerateAirway(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

var benchAerosol = particles.Props{Diameter: 10e-6, Density: 1000}

// benchTrackerStep measures the steady-state serial particle step.
func benchTrackerStep(results *[]benchResult) {
	fluid := particles.AirAt20C()
	fluid.Gravity = mesh.Vec3{}
	tr := particles.NewTracker(benchTrackerMesh(), nil, benchAerosol, fluid)
	tr.InjectAtInlet(1000, 3, mesh.Vec3{})
	still := func(int32) mesh.Vec3 { return mesh.Vec3{} }
	*results = append(*results, measureLoop("tracker/step", 10, scaledIters(50), func() {
		tr.Step(1e-4, still)
	}))
}

// benchTrackerStepBatched reports the serial tracker sweep per
// particle-step (one op = one particle advanced one step) where the
// lane-batched Newmark/Ganser kernel earns its keep: tracker/step above
// sits in still air, where every lane takes the Stokes branch and
// converges at once, while here particles slip through a swirling field
// at Re_p ~ 0.5, so each lane iterates its lagged drag through Log and
// Exp a handful of times. Every op replays the same step from a restored
// snapshot of particles known to survive it, so nothing is lost and the
// sweep allocates nothing.
func benchTrackerStepBatched(results *[]benchResult) {
	m := benchTrackerMesh()
	nodal := make([]mesh.Vec3, m.NumNodes())
	for nd, c := range m.Coords {
		nodal[nd] = mesh.Vec3{
			X: 0.6 * math.Sin(7*c.Z+3*c.Y),
			Y: 0.6 * math.Cos(5*c.X-2*c.Z),
			Z: -1.4 - 0.4*math.Sin(3*(c.X+c.Y)),
		}
	}
	field := func(nd int32) mesh.Vec3 { return nodal[nd] }
	const dt = 1e-4
	tr := particles.NewTracker(m, nil, benchAerosol, particles.AirAt20C())
	tr.InjectAtInlet(4000, 3, mesh.Vec3{Z: -1})
	snapshot := tr.Active.Clone()
	tr.Step(dt, field)
	lost := map[int64]bool{}
	for _, p := range tr.TakeLost() {
		lost[p.ID] = true
	}
	snapshot.Compact(func(i int) bool { return !lost[snapshot.ID[i]] })

	steps := scaledIters(200)
	res := measureLoop("particles/step-batched", 10, steps, func() {
		tr.Active.CopyFrom(snapshot)
		tr.Step(dt, field)
	})
	if tr.Active.Len() != snapshot.Len() {
		panic("benchout: particles/step-batched lost particles from a snapshot of survivors")
	}
	n := float64(snapshot.Len())
	res.Iterations = steps * snapshot.Len()
	res.NsPerOp /= n
	res.AllocsPerOp /= n
	res.BytesPerOp /= n
	*results = append(*results, res)
}

// benchAssembly measures the matrix-assembly strategies on a synthetic
// scattered-reduction workload (elements scattering into shared slots,
// dense conflicts): the multidep fresh-graph path (task structs, boxed
// dependence keys and map-backed edge construction rebuilt every step)
// against the compiled task graph (built once, reset in place — the
// steady-state zero-alloc path CI asserts), plus the other strategies
// for the per-strategy comparison of the paper's Figure 4.
func benchAssembly(results *[]benchResult) {
	const (
		nNodes = 600
		nElems = 8000
		nsub   = 32
	)
	rng := rand.New(rand.NewSource(7))
	conn := make([][4]int32, nElems)
	for e := range conn {
		base := rng.Intn(nNodes)
		for i := range conn[e] {
			conn[e][i] = int32((base + rng.Intn(8)) % nNodes)
		}
	}
	vec := make([]float64, nNodes)
	plain := &tasking.Scatter{
		AddVec: func(i int32, v float64) { vec[i] += v },
		AddMat: func(int32, int32, float64) {},
	}
	av := tasking.NewAtomicFloat64Slice(nNodes)
	atomicS := &tasking.Scatter{
		AddVec: func(i int32, v float64) { av.Add(int(i), v) },
		AddMat: func(int32, int32, float64) {},
	}
	kernel := func(e int, s *tasking.Scatter) {
		for _, nd := range conn[e] {
			s.AddVec(nd, float64(e%7)+0.5)
		}
	}

	// Contiguous-block subdomains and their share-a-slot adjacency.
	labels := make([]int32, nElems)
	per := (nElems + nsub - 1) / nsub
	for e := range labels {
		labels[e] = int32(e / per)
	}
	slotSubs := make([]map[int32]bool, nNodes)
	slotElems := make([][]int32, nNodes)
	for e, c := range conn {
		for _, nd := range c {
			if slotSubs[nd] == nil {
				slotSubs[nd] = map[int32]bool{}
			}
			slotSubs[nd][labels[e]] = true
			slotElems[nd] = append(slotElems[nd], int32(e))
		}
	}
	subLists := make([][]int32, nsub)
	for _, subs := range slotSubs {
		for a := range subs {
			for b := range subs {
				if a != b {
					subLists[a] = append(subLists[a], b)
				}
			}
		}
	}
	subAdj := graph.FromAdjacency(subLists)
	elemLists := make([][]int32, nElems)
	for _, elems := range slotElems {
		for _, e := range elems {
			for _, f := range elems {
				if e != f {
					elemLists[e] = append(elemLists[e], f)
				}
			}
		}
	}
	conflicts := graph.FromAdjacency(elemLists)

	pool := tasking.NewPool(4)
	defer pool.Close()
	iters := scaledIters(200)

	freshPlan := tasking.NewMultidepPlan(labels, subAdj, tasking.KeyNeighbors)
	*results = append(*results, measureLoop("assemble-multidep/fresh", 5, iters, func() {
		if err := freshPlan.TaskGraph(kernel, plain).Run(pool); err != nil {
			panic(err)
		}
	}))
	compiledPlan := tasking.NewMultidepPlan(labels, subAdj, tasking.KeyNeighbors)
	compiledPlan.Compile()
	*results = append(*results, measureLoop("assemble-multidep/compiled", 5, iters, func() {
		if err := tasking.Assemble(pool, compiledPlan, kernel, plain, nil); err != nil {
			panic(err)
		}
	}))
	atomicPlan := tasking.NewAtomicPlan(nElems)
	*results = append(*results, measureLoop("assemble/atomic", 5, iters, func() {
		if err := tasking.Assemble(pool, atomicPlan, kernel, nil, atomicS); err != nil {
			panic(err)
		}
	}))
	coloringPlan := tasking.NewColoringPlan(conflicts)
	*results = append(*results, measureLoop("assemble/coloring", 5, iters, func() {
		if err := tasking.Assemble(pool, coloringPlan, kernel, plain, nil); err != nil {
			panic(err)
		}
	}))
}

// runBenchout executes the A/B suite and writes the JSON report to path
// ('-' writes to stdout).
func runBenchout(path string, stdout, stderr io.Writer) error {
	var results []benchResult
	fmt.Fprintln(stderr, "benchfig: running A/B benchmarks (krylov, spmv, halo, collective, lockstep, tracker, assembly)...")
	benchKrylov(&results)
	benchSpMVL2(&results)
	benchHalo(&results)
	benchCollective(&results)
	benchLockstep(&results)
	benchTrackerStep(&results)
	benchTrackerStepBatched(&results)
	benchAssembly(&results)
	report := benchReport{Schema: benchSchema, GoMaxProcs: runtime.GOMAXPROCS(0), Benches: results}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err := stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
