package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/mesh"
)

// uniformWeights returns a weight vector of all ones.
func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func gridDual(w, h int) *graph.CSR {
	var edges []graph.Edge
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, graph.Edge{U: id(x, y), V: id(x+1, y)})
			}
			if y+1 < h {
				edges = append(edges, graph.Edge{U: id(x, y), V: id(x, y+1)})
			}
		}
	}
	return graph.FromEdges(w*h, edges)
}

func testAirway(t testing.TB) *mesh.Mesh {
	t.Helper()
	cfg := mesh.DefaultAirwayConfig()
	cfg.Generations = 2
	cfg.NTheta = 8
	cfg.NAxial = 4
	m, err := mesh.GenerateAirway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestKWayBasicBalance(t *testing.T) {
	g := gridDual(20, 20)
	p, err := KWay(g, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(uniformWeights(400)); err != nil {
		t.Fatal(err)
	}
	if ib := p.Imbalance(); ib > 1.10 {
		t.Fatalf("grid 4-way imbalance %.3f > 1.10", ib)
	}
}

func TestKWayWeighted(t *testing.T) {
	g := gridDual(16, 16)
	w := make([]float64, 256)
	rng := rand.New(rand.NewSource(2))
	for i := range w {
		w[i] = 0.5 + rng.Float64()
	}
	p, err := KWay(g, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(w); err != nil {
		t.Fatal(err)
	}
	if ib := p.Imbalance(); ib > 1.25 {
		t.Fatalf("weighted 8-way imbalance %.3f > 1.25", ib)
	}
}

func TestKWayErrors(t *testing.T) {
	g := gridDual(4, 4)
	if _, err := KWay(g, nil, 0); err == nil {
		t.Fatal("want error for k=0")
	}
	if _, err := KWay(g, []float64{1, 2}, 2); err == nil {
		t.Fatal("want error for wrong weights length")
	}
}

func TestKWayMorePartsThanVertices(t *testing.T) {
	g := gridDual(2, 2)
	p, err := KWay(g, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(uniformWeights(4)); err != nil {
		t.Fatal(err)
	}
}

func TestLoadBalanceMetric(t *testing.T) {
	p := &Partition{K: 2, Loads: []float64{1, 1}, Parts: []int32{0, 1}}
	if lb := p.LoadBalance(); lb != 1 {
		t.Fatalf("balanced partition Ln = %g, want 1", lb)
	}
	p = &Partition{K: 2, Loads: []float64{3, 1}, Parts: []int32{0, 1}}
	if lb := p.LoadBalance(); lb != (4.0 / (2 * 3)) {
		t.Fatalf("Ln = %g, want %g", lb, 4.0/6.0)
	}
}

func TestEdgeCutGrid(t *testing.T) {
	g := gridDual(8, 8)
	p, err := KWay(g, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	cut := EdgeCut(g, p.Parts)
	// An 8x8 grid split in two should have a cut near 8, certainly far
	// below the 112 total edges.
	if cut == 0 || cut > 40 {
		t.Fatalf("2-way cut on 8x8 grid = %d, implausible", cut)
	}
}

func TestPartAdjacency(t *testing.T) {
	g := gridDual(10, 10)
	p, err := KWay(g, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	adj := PartAdjacency(g, p.Parts, 4)
	if err := adj.Validate(); err != nil {
		t.Fatal(err)
	}
	// Verify against a direct check.
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a == b {
				continue
			}
			direct := false
			for v := 0; v < g.NumVertices() && !direct; v++ {
				if p.Parts[v] != int32(a) {
					continue
				}
				for _, w := range g.Neighbors(v) {
					if p.Parts[w] == int32(b) {
						direct = true
						break
					}
				}
			}
			if adj.HasEdge(a, b) != direct {
				t.Fatalf("part adjacency (%d,%d)=%v, direct=%v", a, b, adj.HasEdge(a, b), direct)
			}
		}
	}
}

func TestKWayOnAirwayDual(t *testing.T) {
	m := testAirway(t)
	dual := m.DualByNode()
	p, err := KWay(dual, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(uniformWeights(m.NumElems())); err != nil {
		t.Fatal(err)
	}
	if ib := p.Imbalance(); ib > 1.3 {
		t.Fatalf("airway 16-way imbalance %.3f > 1.3", ib)
	}
}

func TestBuildRankMeshes(t *testing.T) {
	m := testAirway(t)
	dual := m.DualByNode()
	const k = 8
	p, err := KWay(dual, nil, k)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := BuildRankMeshes(m, p.Parts, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRankMeshes(rms, m.NumNodes()); err != nil {
		t.Fatal(err)
	}
	// Every element appears exactly once.
	totalElems := 0
	for _, rm := range rms {
		totalElems += rm.NumElems()
	}
	if totalElems != m.NumElems() {
		t.Fatalf("rank meshes hold %d elements, want %d", totalElems, m.NumElems())
	}
	// Every node owned exactly once overall.
	owned := 0
	for _, rm := range rms {
		owned += rm.NumOwned
	}
	// Isolated (unreferenced) nodes are owned by nobody.
	referenced := make(map[int32]bool)
	for e := 0; e < m.NumElems(); e++ {
		for _, nd := range m.ElemNodes(e) {
			referenced[nd] = true
		}
	}
	if owned != len(referenced) {
		t.Fatalf("total owned %d, want %d referenced nodes", owned, len(referenced))
	}
	// Local connectivity round-trips to global.
	for _, rm := range rms {
		for e := 0; e < rm.NumElems(); e++ {
			global := m.ElemNodes(int(rm.Elems[e]))
			local := rm.ElemNodesLocal(e)
			if len(global) != len(local) {
				t.Fatalf("rank %d elem %d arity mismatch", rm.Rank, e)
			}
			for i := range local {
				if rm.GlobalNode[local[i]] != global[i] {
					t.Fatalf("rank %d elem %d node %d: local %d -> global %d, want %d",
						rm.Rank, e, i, local[i], rm.GlobalNode[local[i]], global[i])
				}
			}
		}
	}
}

func TestSubPartition(t *testing.T) {
	m := testAirway(t)
	dual := m.DualByNode()
	p, err := KWay(dual, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := BuildRankMeshes(m, p.Parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	rm := rms[0]
	subs, adj, err := SubPartition(rm, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != rm.NumElems() {
		t.Fatalf("%d subdomain labels for %d elements", len(subs), rm.NumElems())
	}
	if adj.NumVertices() != 6 {
		t.Fatalf("adjacency over %d subdomains, want 6", adj.NumVertices())
	}
	// Two subdomains sharing a local node must be adjacent.
	nodeSubs := make([]map[int32]bool, rm.NumLocalNodes())
	for e := 0; e < rm.NumElems(); e++ {
		for _, nd := range rm.ElemNodesLocal(e) {
			if nodeSubs[nd] == nil {
				nodeSubs[nd] = map[int32]bool{}
			}
			nodeSubs[nd][subs[e]] = true
		}
	}
	for nd, set := range nodeSubs {
		for a := range set {
			for b := range set {
				if a != b && !adj.HasEdge(int(a), int(b)) {
					t.Fatalf("subdomains %d,%d share node %d but are not adjacent", a, b, nd)
				}
			}
		}
	}
}

// Property: KWay always returns a full assignment with consistent loads.
func TestKWayQuick(t *testing.T) {
	f := func(wRaw, hRaw, kRaw uint8) bool {
		w := 2 + int(wRaw%10)
		h := 2 + int(hRaw%10)
		k := 1 + int(kRaw%9)
		g := gridDual(w, h)
		p, err := KWay(g, nil, k)
		if err != nil {
			return false
		}
		return p.Validate(uniformWeights(w*h)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKWayAirway96(b *testing.B) {
	cfg := mesh.DefaultAirwayConfig()
	cfg.Generations = 3
	m, err := mesh.GenerateAirway(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dual := m.DualByNode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KWay(dual, nil, 96); err != nil {
			b.Fatal(err)
		}
	}
}
