package tasking

import (
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// --- key sets and the semantics of a plan's compiled runner ---

func TestMutexKeys(t *testing.T) {
	path := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	for _, c := range []struct {
		keying MutexKeying
		ptr    []int32
		keys   []int32
		nkeys  int
	}{
		{KeyNeighbors, []int32{0, 2, 5, 7}, []int32{0, 1, 1, 0, 2, 2, 1}, 3},
		{KeyEdges, []int32{0, 1, 3, 4}, []int32{0, 0, 1, 1}, 2},
	} {
		keys, nkeys := MutexKeys(path, c.keying)
		if nkeys != c.nkeys || !slices.Equal(keys.Ptr, c.ptr) || !slices.Equal(keys.Adj, c.keys) {
			t.Errorf("keying=%d: got %v %v (%d keys), want %v %v (%d keys)",
				c.keying, keys.Ptr, keys.Adj, nkeys, c.ptr, c.keys, c.nkeys)
		}
	}
}

// oneElementPlan builds a multidep plan in which subdomain s is element s.
func oneElementPlan(adj *graph.CSR, keying MutexKeying) *AssemblyPlan {
	labels := make([]int32, adj.NumVertices())
	for s := range labels {
		labels[s] = int32(s)
	}
	return NewMultidepPlan(labels, adj, keying)
}

// TestTaskGraphMutexExclusion: in a star of subdomains under
// KeyNeighbors every task holds the hub's key, so the task graph is one
// mutexinoutset set and no two tasks may ever run at once.
func TestTaskGraphMutexExclusion(t *testing.T) {
	const n = 20
	var edges []graph.Edge
	for leaf := int32(1); leaf < n; leaf++ {
		edges = append(edges, graph.Edge{U: 0, V: leaf})
	}
	pool := NewPool(8)
	defer pool.Close()
	var inside, violations int32
	k := func(int, *Scatter) {
		if atomic.AddInt32(&inside, 1) > 1 {
			atomic.AddInt32(&violations, 1)
		}
		time.Sleep(100 * time.Microsecond)
		atomic.AddInt32(&inside, -1)
	}
	if err := Assemble(pool, oneElementPlan(graph.FromEdges(n, edges), KeyNeighbors), k, &Scatter{}, nil); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations)
	}
}

// TestCompiledGraphMutexExclusionAcrossRuns: when every pair of
// subdomains is adjacent, every pair of tasks shares a key under either
// keying, so no two may ever run at once, on any rerun of the same plan.
func TestCompiledGraphMutexExclusionAcrossRuns(t *testing.T) {
	const n = 20
	var edges []graph.Edge
	for a := int32(0); a < n; a++ {
		for b := a + 1; b < n; b++ {
			edges = append(edges, graph.Edge{U: a, V: b})
		}
	}
	pool := NewPool(8)
	defer pool.Close()
	for _, keying := range []MutexKeying{KeyNeighbors, KeyEdges} {
		plan := oneElementPlan(graph.FromEdges(n, edges), keying)
		var inside, violations int32
		k := func(int, *Scatter) {
			if atomic.AddInt32(&inside, 1) > 1 {
				atomic.AddInt32(&violations, 1)
			}
			time.Sleep(50 * time.Microsecond)
			atomic.AddInt32(&inside, -1)
		}
		for run := 0; run < 3; run++ {
			if err := Assemble(pool, plan, k, &Scatter{}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if violations != 0 {
			t.Fatalf("keying=%d: %d mutual-exclusion violations across runs", keying, violations)
		}
	}
}

// TestMultidepIndependentKeysOverlap: tasks whose key sets are disjoint
// must be able to run concurrently; each of the two waits for the other
// to have started. Under KeyEdges that includes the two ends of a path,
// which share a neighbor but no edge.
func TestMultidepIndependentKeysOverlap(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, c := range []struct {
		keying MutexKeying
		adj    *graph.CSR
	}{
		{KeyNeighbors, graph.FromEdges(3, []graph.Edge{{U: 1, V: 2}})},
		{KeyEdges, graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})},
	} {
		started := [3]chan struct{}{make(chan struct{}), nil, make(chan struct{})}
		k := func(e int, _ *Scatter) {
			if e == 1 {
				return
			}
			close(started[e])
			select {
			case <-started[2-e]:
			case <-time.After(2 * time.Second):
				panic("peer never started: independent mutex keys were serialized")
			}
		}
		if err := Assemble(pool, oneElementPlan(c.adj, c.keying), k, &Scatter{}, nil); err != nil {
			t.Fatalf("keying=%d: %v", c.keying, err)
		}
	}
}

// TestCompiledGraphPanicNamesAndRecovery: a panicking task surfaces as
// an error naming its subdomain, the other tasks still run, and the plan
// is reusable afterwards (the panicking task's keys were released).
func TestCompiledGraphPanicNamesAndRecovery(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	plan := oneElementPlan(graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}), KeyNeighbors)
	boom := true
	var ran int32
	k := func(e int, _ *Scatter) {
		if e == 1 && boom {
			panic("kaboom")
		}
		atomic.AddInt32(&ran, 1)
	}
	err := Assemble(pool, plan, k, &Scatter{}, nil)
	if err == nil || !strings.Contains(err.Error(), `"subdomain-1"`) || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic error %v does not name subdomain-1 and carry the panic value", err)
	}
	if ran != 2 {
		t.Fatalf("%d of the 2 non-panicking tasks ran", ran)
	}
	boom = false
	if err := Assemble(pool, plan, k, &Scatter{}, nil); err != nil {
		t.Fatalf("plan not reusable after a panicked run: %v", err)
	}
	if ran != 5 {
		t.Fatalf("rerun executed %d tasks, want 3", ran-2)
	}
}

// TestTaskGraphPanicPropagates: a panic in one of two independent
// subdomain tasks fails the run.
func TestTaskGraphPanicPropagates(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	plan := oneElementPlan(graph.FromEdges(2, nil), KeyNeighbors)
	k := func(e int, _ *Scatter) {
		if e == 0 {
			panic("kaboom")
		}
	}
	if err := Assemble(pool, plan, k, &Scatter{}, nil); err == nil {
		t.Fatal("want error from panicking task")
	}
}

// TestTaskGraphEmpty: a multidep plan with no subdomains runs without an
// explicit Compile and calls no kernel.
func TestTaskGraphEmpty(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	plan := NewMultidepPlan(nil, graph.FromEdges(0, nil), KeyNeighbors)
	if err := Assemble(pool, plan, func(int, *Scatter) { t.Error("kernel called") }, &Scatter{}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompiledGraphEmpty(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	for _, keying := range []MutexKeying{KeyNeighbors, KeyEdges} {
		plan := NewMultidepPlan(nil, graph.FromEdges(0, nil), keying)
		plan.Compile()
		if err := Assemble(pool, plan, func(int, *Scatter) { t.Error("kernel called") }, &Scatter{}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// releaseOrderInput is a 5x4 grid of subdomains with every other cell's
// diagonal added; subdomain s holds s%3+1 consecutive elements.
func releaseOrderInput() ([]int32, *graph.CSR) {
	const w, h = 5, 4
	var edges []graph.Edge
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := int32(y*w + x)
			if x+1 < w {
				edges = append(edges, graph.Edge{U: v, V: v + 1})
			}
			if y+1 < h {
				edges = append(edges, graph.Edge{U: v, V: v + w})
			}
			if x+1 < w && y+1 < h && (x+y)%2 == 0 {
				edges = append(edges, graph.Edge{U: v, V: v + w + 1})
			}
		}
	}
	var labels []int32
	for s := 0; s < w*h; s++ {
		for k := 0; k <= s%3; k++ {
			labels = append(labels, int32(s))
		}
	}
	return labels, graph.FromEdges(w*h, edges)
}

// TestMultidepReleaseOrderOneWorker pins the order in which a one-worker
// pool executes the subdomain tasks. There submission order is execution
// order, so this is the order conflicting scatters accumulate in: the
// golden suite depends on it. The sequences were recorded from the
// In/Out/Inout task-graph engine this runner replaced.
func TestMultidepReleaseOrderOneWorker(t *testing.T) {
	want := map[MutexKeying][]int32{
		KeyNeighbors: {0, 19, 3, 15, 6, 4, 18, 1, 10, 9, 12, 13, 5, 8, 17, 2, 16, 7, 14, 11},
		KeyEdges:     {0, 19, 2, 17, 4, 15, 11, 13, 5, 1, 7, 3, 9, 16, 18, 6, 14, 10, 12, 8},
	}
	labels, adj := releaseOrderInput()
	pool := NewPool(1)
	defer pool.Close()
	for _, keying := range []MutexKeying{KeyNeighbors, KeyEdges} {
		plan := NewMultidepPlan(labels, adj, keying)
		var seq []int32
		k := func(e int, _ *Scatter) {
			if e == 0 || labels[e-1] != labels[e] {
				seq = append(seq, labels[e])
			}
		}
		for run := 0; run < 3; run++ {
			seq = seq[:0]
			if err := Assemble(pool, plan, k, &Scatter{}, nil); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(seq, want[keying]) {
				t.Fatalf("keying=%d run=%d: order %v, want %v", keying, run, seq, want[keying])
			}
		}
	}
}

// --- results: bit-identical to the serial loop, exclusive per slot ---

// TestCompiledMatchesFreshBitIdentical pins the reuse-not-reassociate
// contract: the multidep path must produce results bit-identical to the
// serial element loop for both keyings at any worker count (the
// synthetic contributions, e%7 + 0.5, are exactly representable and
// their sums exact, so any accumulation order gives the same bits), and
// repeated runs of the same plan must keep reproducing them.
func TestCompiledMatchesFreshBitIdentical(t *testing.T) {
	w := newSynthWorkload(300, 2000, 11)
	want := w.serialResult()
	subLabels, subAdj := w.blockSubdomains(16)
	for _, keying := range []MutexKeying{KeyNeighbors, KeyEdges} {
		for _, workers := range []int{1, 2, 4, 8} {
			pool := NewPool(workers)
			got := make([]float64, w.nNodes)
			sc := &Scatter{AddVec: func(i int32, v float64) { got[i] += v }, AddMat: func(int32, int32, float64) {}}
			plan := NewMultidepPlan(subLabels, subAdj, keying)
			for run := 0; run < 3; run++ {
				clear(got)
				if err := Assemble(pool, plan, w.kernel(), sc, nil); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("keying=%v workers=%d run=%d: slot %d = %g, serial %g",
							keying, workers, run, i, got[i], want[i])
					}
				}
			}
			pool.Close()
		}
	}
}

// guardedScatter is the concurrent-exclusion checker from
// TestAssemblyMultidepExclusion: every slot is guarded, so two
// conflicting elements executing concurrently are caught.
func guardedScatter(nNodes int, vec []float64, violations *int32) *Scatter {
	guards := make([]int32, nNodes)
	return &Scatter{
		AddVec: func(i int32, v float64) {
			if atomic.AddInt32(&guards[i], 1) > 1 {
				atomic.AddInt32(violations, 1)
			}
			vec[i] += v
			for s := 0; s < 50; s++ { // widen the race window
				_ = s * s
			}
			atomic.AddInt32(&guards[i], -1)
		},
		AddMat: func(int32, int32, float64) {},
	}
}

// TestCompiledMultidepExclusion reruns the exclusion checker under both
// keyings across repeated runs of the same plan.
func TestCompiledMultidepExclusion(t *testing.T) {
	w := newSynthWorkload(100, 1000, 9)
	want := w.serialResult()
	subLabels, subAdj := w.blockSubdomains(12)
	for _, keying := range []MutexKeying{KeyNeighbors, KeyEdges} {
		plan := NewMultidepPlan(subLabels, subAdj, keying)
		pool := NewPool(8)
		var violations int32
		vec := make([]float64, w.nNodes)
		plain := guardedScatter(w.nNodes, vec, &violations)
		for run := 0; run < 3; run++ {
			clear(vec)
			if err := Assemble(pool, plan, w.kernel(), plain, nil); err != nil {
				t.Fatal(err)
			}
			if violations != 0 {
				t.Fatalf("keying=%v run=%d: %d concurrent conflicting updates", keying, run, violations)
			}
			checkClose(t, vec, want, "multidep-guarded")
		}
		pool.Close()
	}
}

// --- the zero-allocation contract ---

// TestAssembleZeroAllocAllStrategies: after warm-up, Assemble performs
// zero heap allocations per step under every strategy — multidep
// included, whose runner is built once per plan.
func TestAssembleZeroAllocAllStrategies(t *testing.T) {
	w := newSynthWorkload(300, 2000, 5)
	vec := make([]float64, w.nNodes)
	plain := &Scatter{AddVec: func(i int32, v float64) { vec[i] += v }, AddMat: func(int32, int32, float64) {}}
	av := NewAtomicFloat64Slice(w.nNodes)
	atomicS := &Scatter{AddVec: func(i int32, v float64) { av.Add(int(i), v) }, AddMat: func(int32, int32, float64) {}}
	kernel := w.kernel()

	plans := map[string]*AssemblyPlan{
		"serial":   NewSerialPlan(w.nElems),
		"atomic":   NewAtomicPlan(w.nElems),
		"coloring": nil, // built below (needs the conflict graph)
		"multidep": nil,
	}
	ci := w.conflictGraph()
	plans["coloring"] = NewColoringPlan(graph.FromAdjacency(ci.edges()))
	subLabels, subAdj := w.blockSubdomains(16)
	plans["multidep"] = NewMultidepPlan(subLabels, subAdj, KeyNeighbors)

	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		for name, plan := range plans {
			step := func() {
				if err := Assemble(pool, plan, kernel, plain, atomicS); err != nil {
					panic(err)
				}
			}
			for i := 0; i < 10; i++ { // warm-up: runner, loop states, queue backing
				step()
			}
			if avg := testing.AllocsPerRun(30, step); avg != 0 {
				t.Errorf("strategy=%s workers=%d: steady-state Assemble allocates %.2f objects per step, want 0",
					name, workers, avg)
			}
		}
		pool.Close()
	}
}
