package tasking

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

func TestPoolParallelForCoversRange(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	n := 10000
	hits := make([]int32, n)
	pool.ParallelFor(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestPoolParallelForEmptyAndTiny(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	pool.ParallelFor(0, 0, func(lo, hi int) { t.Error("body called for n=0") })
	count := int32(0)
	pool.ParallelFor(1, 0, func(lo, hi int) { atomic.AddInt32(&count, int32(hi-lo)) })
	if count != 1 {
		t.Fatalf("n=1 processed %d items", count)
	}
}

func TestPoolConcurrencyLimit(t *testing.T) {
	pool := NewPool(8)
	defer pool.Close()
	pool.SetWorkers(2)
	var cur, max int32
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		pool.Submit(func() {
			defer wg.Done()
			c := atomic.AddInt32(&cur, 1)
			for {
				m := atomic.LoadInt32(&max)
				if c <= m || atomic.CompareAndSwapInt32(&max, m, c) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			atomic.AddInt32(&cur, -1)
		})
	}
	wg.Wait()
	if got := atomic.LoadInt32(&max); got > 2 {
		t.Fatalf("observed %d concurrent tasks with SetWorkers(2)", got)
	}
}

func TestPoolResizeMidRun(t *testing.T) {
	// Start throttled at 1 worker, release to 8 mid-run: the run must
	// finish (lent workers wake) and concurrency must exceed 1 at some
	// point after the raise.
	pool := NewPool(8)
	defer pool.Close()
	pool.SetWorkers(1)
	var cur, max int32
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		pool.Submit(func() {
			defer wg.Done()
			c := atomic.AddInt32(&cur, 1)
			for {
				m := atomic.LoadInt32(&max)
				if c <= m || atomic.CompareAndSwapInt32(&max, m, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&cur, -1)
		})
	}
	time.Sleep(5 * time.Millisecond)
	pool.SetWorkers(8)
	wg.Wait()
	if atomic.LoadInt32(&max) < 2 {
		t.Fatal("raising workers mid-run never increased concurrency")
	}
}

func TestPoolSetWorkersClamped(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	pool.SetWorkers(0)
	if pool.Workers() != 1 {
		t.Fatalf("workers=%d, want clamp to 1", pool.Workers())
	}
	pool.SetWorkers(100)
	if pool.Workers() != 4 {
		t.Fatalf("workers=%d, want clamp to max=4", pool.Workers())
	}
	if pool.MaxWorkers() != 4 {
		t.Fatal("MaxWorkers")
	}
}

func TestPoolWait(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	var done int32
	for i := 0; i < 10; i++ {
		pool.Submit(func() {
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&done, 1)
		})
	}
	pool.Wait()
	if done != 10 {
		t.Fatalf("Wait returned with %d/10 done", done)
	}
}

func TestAtomicFloat64Slice(t *testing.T) {
	a := NewAtomicFloat64Slice(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Add(i%4, 1)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if a.Load(i) != 2000 {
			t.Fatalf("a[%d]=%g, want 2000", i, a.Load(i))
		}
	}
	a.Store(0, 3.5)
	if a.Load(0) != 3.5 {
		t.Fatal("store/load")
	}
	dst := make([]float64, 4)
	a.CopyTo(dst)
	if dst[0] != 3.5 {
		t.Fatal("copyTo")
	}
	a.Zero()
	if a.Load(2) != 0 || a.Len() != 4 {
		t.Fatal("zero/len")
	}
}

func TestStrategyStrings(t *testing.T) {
	for _, s := range []Strategy{StrategySerial, StrategyAtomic, StrategyColoring, StrategyMultidep} {
		if s.String() == "" {
			t.Fatal("empty strategy name")
		}
	}
}

// --- assembly strategy equivalence and exclusion tests ---

// synthWorkload is a synthetic assembly: nElems elements each scatter
// into 4 of nNodes slots, with dense conflicts.
type synthWorkload struct {
	nNodes, nElems int
	conn           [][4]int32
}

func newSynthWorkload(nNodes, nElems int, seed int64) *synthWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &synthWorkload{nNodes: nNodes, nElems: nElems}
	for e := 0; e < nElems; e++ {
		var c [4]int32
		base := rng.Intn(nNodes)
		for i := range c {
			c[i] = int32((base + rng.Intn(8)) % nNodes)
		}
		w.conn = append(w.conn, c)
	}
	return w
}

func (w *synthWorkload) kernel() Kernel {
	return func(e int, s *Scatter) {
		for _, nd := range w.conn[e] {
			s.AddVec(nd, float64(e%7)+0.5)
		}
	}
}

// conflictGraph: elements sharing a slot conflict.
func (w *synthWorkload) conflictGraph() *conflictInfo {
	slotElems := make([][]int32, w.nNodes)
	for e, c := range w.conn {
		for _, nd := range c {
			slotElems[nd] = append(slotElems[nd], int32(e))
		}
	}
	return &conflictInfo{w: w, slotElems: slotElems}
}

type conflictInfo struct {
	w         *synthWorkload
	slotElems [][]int32
}

func (ci *conflictInfo) edges() [][]int32 {
	lists := make([][]int32, ci.w.nElems)
	for _, elems := range ci.slotElems {
		for _, e := range elems {
			for _, f := range elems {
				if e != f {
					lists[e] = append(lists[e], f)
				}
			}
		}
	}
	return lists
}

func (w *synthWorkload) serialResult() []float64 {
	vec := make([]float64, w.nNodes)
	plain := &Scatter{AddVec: func(i int32, v float64) { vec[i] += v }, AddMat: func(int32, int32, float64) {}}
	k := w.kernel()
	for e := 0; e < w.nElems; e++ {
		k(e, plain)
	}
	return vec
}

func checkClose(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("%s: slot %d = %g, want %g", label, i, got[i], want[i])
		}
	}
}

func TestAssemblyStrategiesEquivalent(t *testing.T) {
	w := newSynthWorkload(300, 2000, 5)
	want := w.serialResult()
	pool := NewPool(8)
	defer pool.Close()

	// Atomic strategy.
	av := NewAtomicFloat64Slice(w.nNodes)
	atomicS := &Scatter{AddVec: func(i int32, v float64) { av.Add(int(i), v) }, AddMat: func(int32, int32, float64) {}}
	if err := Assemble(pool, NewAtomicPlan(w.nElems), w.kernel(), nil, atomicS); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, w.nNodes)
	av.CopyTo(got)
	checkClose(t, got, want, "atomic")

	// Coloring strategy.
	ci := w.conflictGraph()
	cg := graph.FromAdjacency(ci.edges())
	vec := make([]float64, w.nNodes)
	plain := &Scatter{AddVec: func(i int32, v float64) { vec[i] += v }, AddMat: func(int32, int32, float64) {}}
	if err := Assemble(pool, NewColoringPlan(cg), w.kernel(), plain, nil); err != nil {
		t.Fatal(err)
	}
	checkClose(t, vec, want, "coloring")

	// Multidep strategy, both keyings.
	for _, keying := range []MutexKeying{KeyNeighbors, KeyEdges} {
		subLabels, subAdj := w.blockSubdomains(16)
		vec2 := make([]float64, w.nNodes)
		plain2 := &Scatter{AddVec: func(i int32, v float64) { vec2[i] += v }, AddMat: func(int32, int32, float64) {}}
		plan := NewMultidepPlan(subLabels, subAdj, keying)
		if err := Assemble(pool, plan, w.kernel(), plain2, nil); err != nil {
			t.Fatal(err)
		}
		checkClose(t, vec2, want, "multidep")
	}
}

// blockSubdomains splits elements into contiguous blocks and derives the
// share-a-slot adjacency between blocks.
func (w *synthWorkload) blockSubdomains(nsub int) ([]int32, *graph.CSR) {
	labels := make([]int32, w.nElems)
	per := (w.nElems + nsub - 1) / nsub
	for e := range labels {
		labels[e] = int32(e / per)
	}
	slotSubs := make([]map[int32]bool, w.nNodes)
	for e, c := range w.conn {
		for _, nd := range c {
			if slotSubs[nd] == nil {
				slotSubs[nd] = map[int32]bool{}
			}
			slotSubs[nd][labels[e]] = true
		}
	}
	lists := make([][]int32, nsub)
	for _, subs := range slotSubs {
		for a := range subs {
			for b := range subs {
				if a != b {
					lists[a] = append(lists[a], b)
				}
			}
		}
	}
	return labels, graph.FromAdjacency(lists)
}

func TestAssemblyMultidepExclusion(t *testing.T) {
	// Conflicting elements (sharing a slot) must never execute
	// concurrently under multidep: guard every slot.
	w := newSynthWorkload(100, 1000, 9)
	subLabels, subAdj := w.blockSubdomains(12)
	guards := make([]int32, w.nNodes)
	var violations int32
	vec := make([]float64, w.nNodes)
	plain := &Scatter{
		AddVec: func(i int32, v float64) {
			if atomic.AddInt32(&guards[i], 1) > 1 {
				atomic.AddInt32(&violations, 1)
			}
			vec[i] += v
			// Widen the race window so true overlaps are caught.
			for s := 0; s < 50; s++ {
				_ = s * s
			}
			atomic.AddInt32(&guards[i], -1)
		},
		AddMat: func(int32, int32, float64) {},
	}
	pool := NewPool(8)
	defer pool.Close()
	plan := NewMultidepPlan(subLabels, subAdj, KeyNeighbors)
	if err := Assemble(pool, plan, w.kernel(), plain, nil); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("%d concurrent conflicting updates under multidep", violations)
	}
	checkClose(t, vec, w.serialResult(), "multidep-guarded")
}

func TestAssembleErrors(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	k := func(e int, s *Scatter) {}
	if err := Assemble(pool, NewAtomicPlan(4), k, nil, nil); err == nil {
		t.Fatal("atomic without atomic scatter must error")
	}
	if err := Assemble(pool, &AssemblyPlan{Strategy: StrategyColoring, NumElems: 4}, k, nil, nil); err == nil {
		t.Fatal("coloring without coloring must error")
	}
	if err := Assemble(pool, &AssemblyPlan{Strategy: StrategyMultidep, NumElems: 4}, k, nil, nil); err == nil {
		t.Fatal("multidep without adjacency must error")
	}
	if err := Assemble(pool, &AssemblyPlan{Strategy: Strategy(99)}, k, nil, nil); err == nil {
		t.Fatal("unknown strategy must error")
	}
}
