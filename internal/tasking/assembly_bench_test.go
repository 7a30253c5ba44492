package tasking

import (
	"testing"

	"repro/internal/graph"
)

// benchAssemblySetup builds the shared synthetic workload and scatters.
func benchAssemblySetup() (*synthWorkload, []float64, *Scatter, Kernel) {
	w := newSynthWorkload(600, 8000, 7)
	vec := make([]float64, w.nNodes)
	plain := &Scatter{AddVec: func(i int32, v float64) { vec[i] += v }, AddMat: func(int32, int32, float64) {}}
	return w, vec, plain, w.kernel()
}

// BenchmarkAssembleMultidep times the multidep runner's steady state
// (built once per plan, reset per run). Run with -benchmem: it must
// report 0 allocs/op.
func BenchmarkAssembleMultidep(b *testing.B) {
	w, _, plain, kernel := benchAssemblySetup()
	subLabels, subAdj := w.blockSubdomains(32)
	pool := NewPool(4)
	defer pool.Close()

	b.Run("compiled", func(b *testing.B) {
		plan := NewMultidepPlan(subLabels, subAdj, KeyNeighbors)
		plan.Compile()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := Assemble(pool, plan, kernel, plain, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAssembleStrategies compares the four strategies on the same
// synthetic workload through the prebuilt steady-state path (0 allocs/op
// across the board under -benchmem).
func BenchmarkAssembleStrategies(b *testing.B) {
	w, _, plain, kernel := benchAssemblySetup()
	av := NewAtomicFloat64Slice(w.nNodes)
	atomicS := &Scatter{AddVec: func(i int32, v float64) { av.Add(int(i), v) }, AddMat: func(int32, int32, float64) {}}
	subLabels, subAdj := w.blockSubdomains(32)
	ci := w.conflictGraph()
	plans := []struct {
		name string
		plan *AssemblyPlan
	}{
		{"serial", NewSerialPlan(w.nElems)},
		{"atomic", NewAtomicPlan(w.nElems)},
		{"coloring", NewColoringPlan(graph.FromAdjacency(ci.edges()))},
		{"multidep", NewMultidepPlan(subLabels, subAdj, KeyNeighbors)},
	}
	pool := NewPool(4)
	defer pool.Close()
	for _, c := range plans {
		b.Run(c.name, func(b *testing.B) {
			c.plan.Compile()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Assemble(pool, c.plan, kernel, plain, atomicS); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
