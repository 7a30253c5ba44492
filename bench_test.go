// Benchmarks regenerating every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`), plus host-native
// measurements of the three assembly strategies with real goroutines and
// CAS atomics, and ablation benches for the design choices DESIGN.md
// calls out.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/navierstokes"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/simmpi"
	"repro/internal/tasking"
	"repro/internal/trace"
)

// --- Table 1 / Figure 2: the real scaled-down respiratory run ---

func BenchmarkTable1(b *testing.B) {
	// table1Run, not Table1: the public entry memoizes per option set
	// (shared with Figure2), which would turn iterations 2..N into cache
	// hits and make the numbers meaningless.
	for i := 0; i < b.N; i++ {
		res, err := table1Run(context.Background(), DefaultTable1Options())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	opts := DefaultTable1Options()
	opts.Ranks = 48
	opts.MeshGen = 3
	for i := 0; i < b.N; i++ {
		res, err := table1Run(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Trace.Render(100, 16))
		}
	}
}

// --- Figures 6-7: modeled hybrid phase speedups per platform ---

func benchFigure(b *testing.B, fn func() (*FigureResult, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		f, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + f.Format())
		}
	}
}

func BenchmarkFigure6MareNostrum4(b *testing.B) {
	benchFigure(b, func() (*FigureResult, error) { return Figure6("MareNostrum4") })
}

func BenchmarkFigure6Thunder(b *testing.B) {
	benchFigure(b, func() (*FigureResult, error) { return Figure6("Thunder") })
}

func BenchmarkFigure7MareNostrum4(b *testing.B) {
	benchFigure(b, func() (*FigureResult, error) { return Figure7("MareNostrum4") })
}

func BenchmarkFigure7Thunder(b *testing.B) {
	benchFigure(b, func() (*FigureResult, error) { return Figure7("Thunder") })
}

// --- Figures 8-11: modeled DLB scenarios ---

func BenchmarkFigure8(b *testing.B)  { benchFigure(b, Figure8) }
func BenchmarkFigure9(b *testing.B)  { benchFigure(b, Figure9) }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, Figure10) }
func BenchmarkFigure11(b *testing.B) { benchFigure(b, Figure11) }

// --- Section 4.3 IPC numbers ---

func BenchmarkIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := IPCReport()
		if i == 0 {
			b.Log("\n" + r)
		}
	}
}

// --- host-native strategy race: real goroutines, real CAS atomics ---

// benchAssemblyStrategy assembles the momentum system of one rank's mesh
// with real concurrency on the host CPU. The paper's ordering
// (atomics slowest, multidep fastest at equal thread counts) should hold
// on any host with real cache hierarchies and atomic instruction costs.
func benchAssemblyStrategy(b *testing.B, strategy tasking.Strategy, threads int) {
	b.Helper()
	mc := mesh.DefaultAirwayConfig()
	mc.Generations = 3
	m, err := mesh.GenerateAirway(mc)
	if err != nil {
		b.Fatal(err)
	}
	dual := m.DualByNode()
	p, err := partition.KWay(dual, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	rms, err := partition.BuildRankMeshes(m, p.Parts, 1)
	if err != nil {
		b.Fatal(err)
	}
	world, err := simmpi.NewWorld(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := navierstokes.DefaultConfig()
	cfg.Strategy = strategy
	cfg.SGSStrategy = tasking.StrategySerial
	err = world.Run(func(r *simmpi.Rank) {
		pool := tasking.NewPool(threads)
		defer pool.Close()
		s, err := navierstokes.NewSolver(m, rms[0], r.Comm, pool, cfg, navierstokes.DefaultCostModel(), nil)
		if err != nil {
			panic(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.AssembleMomentumForBenchmark(); err != nil {
				panic(err)
			}
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAssemblySerial(b *testing.B)    { benchAssemblyStrategy(b, tasking.StrategySerial, 1) }
func BenchmarkAssemblyAtomics4(b *testing.B)  { benchAssemblyStrategy(b, tasking.StrategyAtomic, 4) }
func BenchmarkAssemblyColoring4(b *testing.B) { benchAssemblyStrategy(b, tasking.StrategyColoring, 4) }
func BenchmarkAssemblyMultidep4(b *testing.B) { benchAssemblyStrategy(b, tasking.StrategyMultidep, 4) }

// --- threaded solver phases: full Step at 1/2/4 workers ---

// BenchmarkSolverStepWorkers times the complete fractional-step update
// (assembly + BiCGSTAB momentum + PCG pressure + projection + SGS) on a
// single rank, with every phase — including the la kernels this PR
// threads — running on pools of different sizes. Results are
// bit-identical across the worker counts (the ParOps determinism
// contract), so the sub-benchmarks are directly comparable.
func BenchmarkSolverStepWorkers(b *testing.B) {
	mc := mesh.DefaultAirwayConfig()
	mc.Generations = 3
	m, err := mesh.GenerateAirway(mc)
	if err != nil {
		b.Fatal(err)
	}
	dual := m.DualByNode()
	p, err := partition.KWay(dual, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	rms, err := partition.BuildRankMeshes(m, p.Parts, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			world, err := simmpi.NewWorld(1)
			if err != nil {
				b.Fatal(err)
			}
			cfg := navierstokes.DefaultConfig()
			err = world.Run(func(r *simmpi.Rank) {
				pool := tasking.NewPool(workers)
				defer pool.Close()
				s, err := navierstokes.NewSolver(m, rms[0], r.Comm, pool, cfg, navierstokes.DefaultCostModel(), nil)
				if err != nil {
					panic(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Step(); err != nil {
						panic(err)
					}
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- ablations (design choices from DESIGN.md) ---

// BenchmarkAblationKeying compares the paper's neighbor mutexinoutset
// keying against exact edge keying in the cluster model.
func BenchmarkAblationKeying(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := MultidepKeyingAblation("MareNostrum4")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + f.Format())
		}
	}
}

// BenchmarkAblationColoringBalance compares greedy and balanced coloring
// populations on an airway conflict graph: balanced colors keep the
// per-color parallel loops efficient.
func BenchmarkAblationColoringBalance(b *testing.B) {
	mc := mesh.DefaultAirwayConfig()
	mc.Generations = 2
	m, err := mesh.GenerateAirway(mc)
	if err != nil {
		b.Fatal(err)
	}
	dual := m.DualByNode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The work under benchmark is the coloring construction itself;
		// report the quality difference once.
		if i == 0 {
			b.StopTimer()
			greedy := benchGreedyImbalance(dual)
			balanced := benchBalancedImbalance(dual)
			b.Logf("color population imbalance: greedy %.2f, balanced %.2f", greedy, balanced)
			b.StartTimer()
		}
		_ = benchBalancedImbalance(dual)
	}
}

// BenchmarkAblationTaskGranularity sweeps the multidep task count per
// rank in the cluster model: too few tasks starve threads (mutex
// conflicts), too many pay scheduling overhead.
func BenchmarkAblationTaskGranularity(b *testing.B) {
	w, err := perfmodel.NewWorkload(perfmodel.DefaultWorkloadMesh())
	if err != nil {
		b.Fatal(err)
	}
	p := arch.MareNostrum4()
	for i := 0; i < b.N; i++ {
		if i == 0 {
			for _, tasks := range []int{8, 27, 64, 343} {
				rw, err := w.Ranks(24, tasks)
				if err != nil {
					b.Fatal(err)
				}
				worst := 0.0
				for r := 0; r < rw.K; r++ {
					ts := rw.Tasks[r]
					conf := perfmodel.ConflictPairs(ts.Adj, tasking.KeyNeighbors)
					scaled := make([]float64, len(ts.Durations))
					for k, d := range ts.Durations {
						scaled[k] = d*p.MultidepFactor() + p.TaskOverhead
					}
					if t := perfmodel.ScheduleMutex(scaled, conf, 4); t > worst {
						worst = t
					}
				}
				b.Logf("tasks/rank=%4d -> assembly phase %.4g work units", tasks, worst)
			}
		}
		if _, err := w.Ranks(24, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDLBOnOff measures real wall-clock of an imbalanced
// coupled run with and without DLB on the host (node-shared pools).
func BenchmarkAblationDLBOnOff(b *testing.B) {
	for _, useDLB := range []bool{false, true} {
		b.Run(fmt.Sprintf("dlb=%v", useDLB), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := DefaultSimulationConfig()
				cfg.Run.Mode = 1 // coupled
				cfg.Run.FluidRanks = 3
				cfg.Run.ParticleRanks = 1
				cfg.Run.RanksPerNode = 4
				cfg.Run.WorkersPerRank = 2
				cfg.Run.Steps = 2
				cfg.Run.NumParticles = 2000
				cfg.Run.UseDLB = useDLB
				if _, err := RunSimulation(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceOverhead measures the phase-accounting cost.
func BenchmarkTraceOverhead(b *testing.B) {
	rt := &trace.RankTracer{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Advance(trace.PhaseAssembly, 1)
	}
}

func benchGreedyImbalance(dual *graph.CSR) float64 {
	return graph.GreedyColoring(dual).Imbalance()
}

func benchBalancedImbalance(dual *graph.CSR) float64 {
	return graph.BalancedColoring(dual).Imbalance()
}
