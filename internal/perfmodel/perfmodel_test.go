package perfmodel

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/mesh"
	"repro/internal/tasking"
)

// testWorkload builds a small but representative workload (cached per
// test binary).
var sharedWorkload *Workload

func workload(t testing.TB) *Workload {
	t.Helper()
	if sharedWorkload != nil {
		return sharedWorkload
	}
	cfg := mesh.DefaultAirwayConfig()
	cfg.Generations = 3
	cfg.NTheta = 10
	cfg.NAxial = 6
	w, err := NewWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharedWorkload = w
	return w
}

func TestScheduleMutexNoConflicts(t *testing.T) {
	d := []float64{1, 1, 1, 1}
	g := graph.FromEdges(4, nil)
	if got := ScheduleMutex(d, g, 4); got != 1 {
		t.Fatalf("independent tasks on 4 workers: makespan %g, want 1", got)
	}
	if got := ScheduleMutex(d, g, 2); got != 2 {
		t.Fatalf("independent tasks on 2 workers: makespan %g, want 2", got)
	}
	if got := ScheduleMutex(d, g, 1); got != 4 {
		t.Fatalf("1 worker: makespan %g, want 4", got)
	}
}

func TestScheduleMutexCompleteConflict(t *testing.T) {
	// Fully conflicting tasks serialize regardless of workers.
	d := []float64{1, 2, 3}
	var edges []graph.Edge
	for i := int32(0); i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	g := graph.FromEdges(3, edges)
	if got := ScheduleMutex(d, g, 8); got != 6 {
		t.Fatalf("complete conflicts: makespan %g, want 6", got)
	}
}

func TestScheduleMutexPathGraph(t *testing.T) {
	// A path 0-1-2: 0 and 2 can run together, 1 excludes both.
	d := []float64{1, 1, 1}
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	got := ScheduleMutex(d, g, 2)
	if got != 2 {
		t.Fatalf("path makespan %g, want 2 (0||2 then 1)", got)
	}
}

func TestScheduleMutexEmptyAndClamp(t *testing.T) {
	if ScheduleMutex(nil, graph.FromEdges(0, nil), 2) != 0 {
		t.Fatal("empty task set")
	}
	d := []float64{2}
	if ScheduleMutex(d, graph.FromEdges(1, nil), 0) != 2 {
		t.Fatal("workers clamp")
	}
}

func TestConflictPairsKeyings(t *testing.T) {
	// Path 0-1-2-3: under KeyEdges only adjacent conflict; under
	// KeyNeighbors, 0 and 2 (common neighbor 1) conflict too.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	edgesOnly := ConflictPairs(g, tasking.KeyEdges)
	if edgesOnly.HasEdge(0, 2) {
		t.Fatal("KeyEdges must not conflict distance-2 pairs")
	}
	closed := ConflictPairs(g, tasking.KeyNeighbors)
	if !closed.HasEdge(0, 2) || !closed.HasEdge(1, 3) {
		t.Fatal("KeyNeighbors must conflict distance-2 pairs")
	}
	if closed.HasEdge(0, 3) {
		t.Fatal("KeyNeighbors must not conflict distance-3 pairs")
	}
}

// TestConflictPairsMatchesPairLists: the KeyNeighbors graph equals the
// explicit neighbor and distance-2 pair lists, and the KeyEdges graph
// equals the adjacency itself, on task grids of several sizes and a
// random graph.
func TestConflictPairsMatchesPairLists(t *testing.T) {
	graphs := []*graph.CSR{
		syntheticTaskGrid(1, 1, 1).Adj,
		syntheticTaskGrid(1, 27, 2).Adj,
		syntheticTaskGrid(1, 64, 3).Adj,
		graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 0, V: 2}}),
	}
	rng := rand.New(rand.NewSource(5))
	var edges []graph.Edge
	for i := 0; i < 120; i++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(50)), V: int32(rng.Intn(50))})
	}
	graphs = append(graphs, graph.FromEdges(50, edges))
	for i, adj := range graphs {
		lists := make([][]int32, adj.NumVertices())
		for v := range lists {
			for _, u := range adj.Neighbors(v) {
				lists[v] = append(lists[v], u)
				lists[v] = append(lists[v], adj.Neighbors(int(u))...)
			}
		}
		want := graph.FromAdjacency(lists)
		got := ConflictPairs(adj, tasking.KeyNeighbors)
		if !slices.Equal(got.Ptr, want.Ptr) || !slices.Equal(got.Adj, want.Adj) {
			t.Fatalf("graph %d: ConflictPairs differs from the pair-list oracle", i)
		}
		got = ConflictPairs(adj, tasking.KeyEdges)
		if !slices.Equal(got.Ptr, adj.Ptr) || !slices.Equal(got.Adj, adj.Adj) {
			t.Fatalf("graph %d: KeyEdges ConflictPairs differs from the adjacency", i)
		}
	}
}

func TestSyntheticTaskGrid(t *testing.T) {
	ts := syntheticTaskGrid(100, 343, 7)
	if len(ts.Durations) != 343 {
		t.Fatalf("got %d tasks", len(ts.Durations))
	}
	if math.Abs(Sum(ts.Durations)-100) > 1e-9 {
		t.Fatalf("durations sum %g, want 100", Sum(ts.Durations))
	}
	if err := ts.Adj.Validate(); err != nil {
		t.Fatal(err)
	}
	// Interior cells have 26 neighbors.
	if ts.Adj.MaxDegree() != 26 {
		t.Fatalf("max degree %d, want 26", ts.Adj.MaxDegree())
	}
	// Deterministic.
	ts2 := syntheticTaskGrid(100, 343, 7)
	for i := range ts.Durations {
		if ts.Durations[i] != ts2.Durations[i] {
			t.Fatal("task grid not deterministic")
		}
	}
}

func TestWorkloadRanksInvariants(t *testing.T) {
	w := workload(t)
	rw, err := w.Ranks(16, 27)
	if err != nil {
		t.Fatal(err)
	}
	if rw.K != 16 || len(rw.Assembly) != 16 {
		t.Fatal("wrong shape")
	}
	// Total assembly work is the scaled element cost, independent of k.
	rw2, err := w.Ranks(8, 27)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(Sum(rw.Assembly)-Sum(rw2.Assembly)) > 1e-6*Sum(rw.Assembly) {
		t.Fatalf("assembly total depends on k: %g vs %g", Sum(rw.Assembly), Sum(rw2.Assembly))
	}
	// Cached pointer identity.
	rw3, _ := w.Ranks(16, 27)
	if rw3 != rw {
		t.Fatal("cache miss for identical key")
	}
	if rw.InletRank < 0 || rw.InletRank >= 16 {
		t.Fatalf("inlet rank %d", rw.InletRank)
	}
	// Per-rank task durations sum to the rank's assembly work.
	for r := 0; r < rw.K; r++ {
		if math.Abs(Sum(rw.Tasks[r].Durations)-rw.Assembly[r]) > 1e-6*(1+rw.Assembly[r]) {
			t.Fatalf("rank %d tasks do not cover its work", r)
		}
		if math.Abs(Sum(rw.Colors[r].ColorWork)-rw.SGS[r]) > 1e-6*(1+rw.SGS[r]) {
			t.Fatalf("rank %d colors do not cover its work", r)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	if Max([]float64{1, 5, 2}) != 5 || Sum([]float64{1, 2}) != 3 {
		t.Fatal("max/sum")
	}
}

// --- figure shape assertions: the reproduction targets ---

func seriesByStrategy(ss []StrategySeries, s tasking.Strategy) StrategySeries {
	for _, x := range ss {
		if x.Strategy == s {
			return x
		}
	}
	return StrategySeries{}
}

func TestFigure6Shapes(t *testing.T) {
	w := workload(t)
	for _, p := range arch.Platforms() {
		fig, err := AssemblySpeedups(p, w, tasking.KeyNeighbors)
		if err != nil {
			t.Fatal(err)
		}
		at := seriesByStrategy(fig, tasking.StrategyAtomic)
		co := seriesByStrategy(fig, tasking.StrategyColoring)
		md := seriesByStrategy(fig, tasking.StrategyMultidep)
		for i := range at.Speedups {
			// Multidep is the best version in all cases (paper, Fig 6).
			if md.Speedups[i] < co.Speedups[i] || md.Speedups[i] < at.Speedups[i] {
				t.Errorf("%s %s: multidep %0.3f not best (coloring %0.3f atomics %0.3f)",
					p.Name, at.Labels[i], md.Speedups[i], co.Speedups[i], at.Speedups[i])
			}
			// Coloring beats atomics on both architectures (paper).
			if co.Speedups[i] < at.Speedups[i] {
				t.Errorf("%s %s: coloring %0.3f below atomics %0.3f",
					p.Name, at.Labels[i], co.Speedups[i], at.Speedups[i])
			}
			// Atomics stays below the pure-MPI baseline.
			if at.Speedups[i] >= 1 {
				t.Errorf("%s %s: atomics speedup %0.3f >= 1", p.Name, at.Labels[i], at.Speedups[i])
			}
		}
	}
}

func TestFigure6AtomicsPenaltyArchDependence(t *testing.T) {
	// The atomics penalty is much larger on the Intel machine (paper:
	// IPC -50% vs -14%).
	w := workload(t)
	mn, err := AssemblySpeedups(arch.MareNostrum4(), w, tasking.KeyNeighbors)
	if err != nil {
		t.Fatal(err)
	}
	th, err := AssemblySpeedups(arch.ThunderX(), w, tasking.KeyNeighbors)
	if err != nil {
		t.Fatal(err)
	}
	atMN := seriesByStrategy(mn, tasking.StrategyAtomic).Speedups[0]
	atTH := seriesByStrategy(th, tasking.StrategyAtomic).Speedups[0]
	if atMN >= atTH {
		t.Fatalf("atomics on MN4 (%0.3f) should be hit harder than Thunder (%0.3f)", atMN, atTH)
	}
}

func TestFigure6MultidepOverAtomicsRatios(t *testing.T) {
	// Paper conclusions: multidep is ~2.5x atomics on MareNostrum4 and
	// ~1.2x on Thunder. Check at the 4-thread configuration within a
	// 25% band.
	w := workload(t)
	check := func(p arch.Profile, want float64) {
		fig, err := AssemblySpeedups(p, w, tasking.KeyNeighbors)
		if err != nil {
			t.Fatal(err)
		}
		at := seriesByStrategy(fig, tasking.StrategyAtomic)
		md := seriesByStrategy(fig, tasking.StrategyMultidep)
		last := len(at.Speedups) - 1
		ratio := md.Speedups[last] / at.Speedups[last]
		if ratio < want/1.25 || ratio > want*1.25 {
			t.Errorf("%s multidep/atomics ratio %0.2f, paper reports ~%0.1f", p.Name, ratio, want)
		}
	}
	check(arch.MareNostrum4(), 2.5)
	check(arch.ThunderX(), 1.2)
}

func TestFigure7Shapes(t *testing.T) {
	w := workload(t)
	for _, p := range arch.Platforms() {
		fig, err := SGSSpeedups(p, w)
		if err != nil {
			t.Fatal(err)
		}
		at := seriesByStrategy(fig, tasking.StrategyAtomic)
		co := seriesByStrategy(fig, tasking.StrategyColoring)
		md := seriesByStrategy(fig, tasking.StrategyMultidep)
		last := len(at.Speedups) - 1
		// Hybrid outperforms MPI-only on the SGS phase (paper, Fig 7).
		if at.Speedups[last] <= 1 {
			t.Errorf("%s: SGS hybrid (4 threads) %0.3f <= 1", p.Name, at.Speedups[last])
		}
		// Coloring/multidep overhead below ~10% of the atomics version.
		for i := range at.Speedups {
			if co.Speedups[i] < at.Speedups[i]*0.90 {
				t.Errorf("%s %s: coloring SGS overhead above 10%%: %0.3f vs %0.3f",
					p.Name, at.Labels[i], co.Speedups[i], at.Speedups[i])
			}
			if md.Speedups[i] < at.Speedups[i]*0.90 {
				t.Errorf("%s %s: multidep SGS overhead above 10%%: %0.3f vs %0.3f",
					p.Name, at.Labels[i], md.Speedups[i], at.Speedups[i])
			}
			if co.Speedups[i] > at.Speedups[i] || md.Speedups[i] > at.Speedups[i] {
				t.Errorf("%s %s: SGS plain loop should be fastest", p.Name, at.Labels[i])
			}
		}
	}
}

func TestModeledIPCMatchesPaper(t *testing.T) {
	mn := ModeledIPC(arch.MareNostrum4())
	if mn[0].IPC != 2.25 || mn[1].IPC != 1.15 {
		t.Fatalf("MN4 IPC %v", mn)
	}
	th := ModeledIPC(arch.ThunderX())
	if th[0].IPC != 0.49 || th[1].IPC != 0.42 {
		t.Fatalf("Thunder IPC %v", th)
	}
	// Multidep IPC is 94-96% of MPI-only on both.
	for _, pts := range [][]IPCPoint{mn, th} {
		frac := pts[3].IPC / pts[0].IPC
		if frac < 0.94 || frac > 0.96 {
			t.Fatalf("multidep IPC fraction %0.3f outside the paper's 94-96%%", frac)
		}
	}
}

func TestDLBScenarioShapes(t *testing.T) {
	w := workload(t)
	for _, p := range arch.Platforms() {
		for _, count := range []float64{4e5, 7e6} {
			res, err := DLBScenario(p, w, count)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) < 4 {
				t.Fatalf("only %d configurations", len(res))
			}
			var sync DLBResult
			origMin, origMax := math.Inf(1), 0.0
			dlbMin, dlbMax := math.Inf(1), 0.0
			for _, r := range res {
				// DLB improves every configuration (paper, all four figs).
				if r.Speedup() <= 1 {
					t.Errorf("%s %g %s: DLB speedup %0.2f <= 1", p.Name, count, r.Label, r.Speedup())
				}
				if r.Parts == 0 {
					sync = r
				}
				origMin = math.Min(origMin, r.Original)
				origMax = math.Max(origMax, r.Original)
				dlbMin = math.Min(dlbMin, r.DLB)
				dlbMax = math.Max(dlbMax, r.DLB)
			}
			// A wrong configuration costs around 2x (paper: "can be 2x
			// slower than running the best configuration").
			if origMax/origMin < 1.5 {
				t.Errorf("%s %g: original spread %0.2fx, expected bad configs to cost >=1.5x",
					p.Name, count, origMax/origMin)
			}
			// DLB flattens the choice: spread under DLB far smaller.
			if dlbMax/dlbMin > 1.15 {
				t.Errorf("%s %g: DLB spread %0.2fx, expected near-flat", p.Name, count, dlbMax/dlbMin)
			}
			if sync.Original == 0 {
				t.Fatal("missing synchronous configuration")
			}
		}
	}
}

func TestDLBGainGrowsWithParticleLoad(t *testing.T) {
	// Paper: the impact of DLB with 7e6 particles is even higher than
	// with 4e5 (sync config: Figs 8/10 and 9/11).
	w := workload(t)
	for _, p := range arch.Platforms() {
		small, err := DLBScenario(p, w, 4e5)
		if err != nil {
			t.Fatal(err)
		}
		big, err := DLBScenario(p, w, 7e6)
		if err != nil {
			t.Fatal(err)
		}
		if big[0].Speedup() <= small[0].Speedup() {
			t.Errorf("%s: sync DLB gain should grow with particles: %0.2f vs %0.2f",
				p.Name, big[0].Speedup(), small[0].Speedup())
		}
	}
}

func TestParticleScaleLinear(t *testing.T) {
	if r := ParticleScale(7e6) / ParticleScale(4e5); math.Abs(r-17.5) > 1e-9 {
		t.Fatalf("particle scale ratio %g, want 17.5", r)
	}
}

func TestDLBSplitsCoverCores(t *testing.T) {
	for _, p := range arch.Platforms() {
		for _, s := range DLBSplits(p) {
			if s[0]+s[1] != p.TotalCores() {
				t.Fatalf("%s split %v does not cover %d cores", p.Name, s, p.TotalCores())
			}
		}
	}
}

func TestConfigsFor(t *testing.T) {
	cfgs := ConfigsFor(arch.MareNostrum4())
	if len(cfgs) != 3 || cfgs[0].Label() != "96x1" || cfgs[2].Label() != "24x4" {
		t.Fatalf("configs %v", cfgs)
	}
	for _, c := range cfgs {
		if c.Ranks*c.Threads != 96 {
			t.Fatalf("config %v does not use all cores", c)
		}
	}
}
