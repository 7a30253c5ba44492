package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *CSR {
	edges := make([]Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{int32(i), int32(i + 1)})
	}
	return FromEdges(n, edges)
}

func completeGraph(n int) *CSR {
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{int32(i), int32(j)})
		}
	}
	return FromEdges(n, edges)
}

func gridGraph(w, h int) *CSR {
	var edges []Edge
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, Edge{id(x, y), id(x+1, y)})
			}
			if y+1 < h {
				edges = append(edges, Edge{id(x, y), id(x, y+1)})
			}
		}
	}
	return FromEdges(w*h, edges)
}

func randomGraph(n, m int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		edges = append(edges, Edge{int32(u), int32(v)})
	}
	return FromEdges(n, edges)
}

func TestEmptyGraph(t *testing.T) {
	var g CSR
	if g.NumVertices() != 0 || len(g.Adj) != 0 {
		t.Fatalf("empty graph should have 0 vertices and edges")
	}
}

func TestFromEdgesBasic(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}, {1, 2}, {2, 2}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Adj) != 4 { // each undirected edge is stored twice
		t.Fatalf("got %d directed entries, want 4: 2 edges (dupes and self loops dropped)", len(g.Adj))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(1, 2) {
		t.Fatalf("missing expected edges")
	}
	if g.HasEdge(0, 2) {
		t.Fatalf("unexpected edge 0-2")
	}
}

func TestFromAdjacency(t *testing.T) {
	g := FromAdjacency([][]int32{{1, 2, 2}, {0}, {0, 2}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 2 || g.Degree(2) != 1 {
		t.Fatalf("unexpected degrees %d %d", g.Degree(0), g.Degree(2))
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := &CSR{Ptr: []int32{0, 1, 1}, Adj: []int32{1}}
	if err := g.Validate(); err == nil {
		t.Fatal("want error for asymmetric graph")
	}
}

func TestBFSLevels(t *testing.T) {
	g := pathGraph(5)
	order, level := g.BFS(0)
	if len(order) != 5 {
		t.Fatalf("BFS should reach all 5 vertices, got %d", len(order))
	}
	for i := 0; i < 5; i++ {
		if level[i] != int32(i) {
			t.Fatalf("level[%d]=%d, want %d", i, level[i], i)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}})
	_, level := g.BFS(0)
	if level[2] != -1 || level[3] != -1 {
		t.Fatalf("isolated vertices must have level -1")
	}
}

func TestComponents(t *testing.T) {
	g := FromEdges(6, []Edge{{0, 1}, {1, 2}, {3, 4}})
	labels, count := g.Components()
	if count != 3 {
		t.Fatalf("got %d components, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatalf("vertices 0,1,2 should share a component")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] || labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatalf("wrong component structure: %v", labels)
	}
}

func TestPseudoPeripheralOnPath(t *testing.T) {
	g := pathGraph(9)
	p := g.PseudoPeripheral(4)
	if p != 0 && p != 8 {
		t.Fatalf("pseudo-peripheral of a path should be an endpoint, got %d", p)
	}
}

func TestGreedyColoringProper(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(300, 1200, seed)
		c := GreedyColoring(g)
		if !c.Verify(g) {
			t.Fatalf("greedy coloring not proper (seed %d)", seed)
		}
		if c.NumColors > g.MaxDegree()+1 {
			t.Fatalf("greedy used %d colors > maxdeg+1 = %d", c.NumColors, g.MaxDegree()+1)
		}
	}
}

func TestColoringCompleteGraph(t *testing.T) {
	g := completeGraph(7)
	c := GreedyColoring(g)
	if c.NumColors != 7 {
		t.Fatalf("K7 needs exactly 7 colors, got %d", c.NumColors)
	}
}

func TestColoringGridTwoColors(t *testing.T) {
	g := gridGraph(10, 10)
	c := GreedyColoring(g)
	if c.NumColors != 2 {
		t.Fatalf("a grid is bipartite; greedy in row order should find 2 colors, got %d", c.NumColors)
	}
}

func TestLargestDegreeFirstProper(t *testing.T) {
	g := randomGraph(300, 2000, 42)
	c := LargestDegreeFirstColoring(g)
	if !c.Verify(g) {
		t.Fatal("LDF coloring not proper")
	}
}

func TestBalancedColoringProperAndBalanced(t *testing.T) {
	g := randomGraph(1000, 3000, 3)
	greedy := GreedyColoring(g)
	bal := BalancedColoring(g)
	if !bal.Verify(g) {
		t.Fatal("balanced coloring not proper")
	}
	if bal.Imbalance() > greedy.Imbalance()*1.05 {
		t.Fatalf("balanced imbalance %.3f worse than greedy %.3f",
			bal.Imbalance(), greedy.Imbalance())
	}
}

func TestByColorPartition(t *testing.T) {
	g := randomGraph(500, 1500, 11)
	c := BalancedColoring(g)
	total := 0
	for col, verts := range c.ByColor {
		total += len(verts)
		for _, v := range verts {
			if c.Colors[v] != int32(col) {
				t.Fatalf("ByColor[%d] contains vertex %d with color %d", col, v, c.Colors[v])
			}
		}
	}
	if total != g.NumVertices() {
		t.Fatalf("ByColor covers %d vertices, want %d", total, g.NumVertices())
	}
}

// Property: any coloring returned by any of the three algorithms is proper,
// for random graphs of random sizes.
func TestColoringPropertyQuick(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%100) + 2
		m := int(mRaw) * 4
		g := randomGraph(n, m, seed)
		return GreedyColoring(g).Verify(g) &&
			LargestDegreeFirstColoring(g).Verify(g) &&
			BalancedColoring(g).Verify(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: FromEdges always yields a structurally valid graph.
func TestFromEdgesValidQuick(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%50) + 1
		g := randomGraph(n, int(mRaw), seed)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
