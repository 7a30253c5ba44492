package mesh

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// unitTet returns a single-tet mesh with volume 1/6.
func unitTet() *Mesh {
	b := newBuilder()
	b.addNode(Vec3{0, 0, 0})
	b.addNode(Vec3{1, 0, 0})
	b.addNode(Vec3{0, 1, 0})
	b.addNode(Vec3{0, 0, 1})
	b.addElem(Tet4, 0, 1, 2, 3)
	return b.mesh()
}

// unitPrism returns a single unit wedge (right triangular prism, volume 1/2).
func unitPrism() *Mesh {
	b := newBuilder()
	b.addNode(Vec3{0, 0, 0})
	b.addNode(Vec3{1, 0, 0})
	b.addNode(Vec3{0, 1, 0})
	b.addNode(Vec3{0, 0, 1})
	b.addNode(Vec3{1, 0, 1})
	b.addNode(Vec3{0, 1, 1})
	b.addElem(Prism6, 0, 1, 2, 3, 4, 5)
	return b.mesh()
}

// unitPyramid returns a unit-base pyramid with apex height 1 (volume 1/3).
func unitPyramid() *Mesh {
	b := newBuilder()
	b.addNode(Vec3{0, 0, 0})
	b.addNode(Vec3{1, 0, 0})
	b.addNode(Vec3{1, 1, 0})
	b.addNode(Vec3{0, 1, 0})
	b.addNode(Vec3{0.5, 0.5, 1})
	b.addElem(Pyramid5, 0, 1, 2, 3, 4)
	return b.mesh()
}

func TestKindNodesPerElem(t *testing.T) {
	if Tet4.NodesPerElem() != 4 || Prism6.NodesPerElem() != 6 || Pyramid5.NodesPerElem() != 5 {
		t.Fatal("wrong nodes per element")
	}
}

func TestElementVolumes(t *testing.T) {
	cases := []struct {
		name string
		m    *Mesh
		want float64
	}{
		{"tet", unitTet(), 1.0 / 6},
		{"prism", unitPrism(), 0.5},
		{"pyramid", unitPyramid(), 1.0 / 3},
	}
	for _, c := range cases {
		if got := c.m.Volume(0); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s volume = %g, want %g", c.name, got, c.want)
		}
		if err := c.m.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 0, 0}
	b := Vec3{0, 1, 0}
	if c := a.Cross(b); c != (Vec3{0, 0, 1}) {
		t.Fatalf("cross = %v", c)
	}
	if d := a.Dot(b); d != 0 {
		t.Fatalf("dot = %v", d)
	}
	if n := (Vec3{3, 4, 0}).Norm(); n != 5 {
		t.Fatalf("norm = %v", n)
	}
	if v := (Vec3{0, 0, 0}).Normalize(); v != (Vec3{0, 0, 0}) {
		t.Fatalf("normalize zero changed: %v", v)
	}
}

func TestValidateCatchesBadElement(t *testing.T) {
	m := unitTet()
	m.Conn[1] = 0 // repeat node 0
	if err := m.Validate(); err == nil {
		t.Fatal("want error for repeated node")
	}
	m = unitTet()
	m.Conn[3] = 99 // out of range
	if err := m.Validate(); err == nil {
		t.Fatal("want error for out-of-range node")
	}
}

func smallAirway(t testing.TB) *Mesh {
	t.Helper()
	cfg := DefaultAirwayConfig()
	cfg.Generations = 2
	cfg.NTheta = 8
	cfg.NAxial = 4
	m, err := GenerateAirway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenerateAirwayValid(t *testing.T) {
	m := smallAirway(t)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	s := m.Summary()
	if s.Tets == 0 || s.Prisms == 0 || s.Pyramids == 0 {
		t.Fatalf("hybrid mesh must contain all three kinds: %v", s)
	}
	if s.Pyramids >= s.Tets {
		t.Fatalf("pyramids should be a transition minority: %v", s)
	}
	if len(m.InletNodes) == 0 || len(m.OutletNodes) == 0 || len(m.WallNodes) == 0 {
		t.Fatal("boundary node sets must be non-empty")
	}
}

func TestAirwayConnected(t *testing.T) {
	m := smallAirway(t)
	ng := nodeGraph(m)
	_, count := ng.Components()
	// Junction hub nodes whose sleeve tets all degenerate could orphan a
	// node; the mesh itself (all nodes referenced by elements) must form
	// one component. Count components restricted to referenced nodes.
	referenced := make([]bool, m.NumNodes())
	for e := 0; e < m.NumElems(); e++ {
		for _, n := range m.ElemNodes(e) {
			referenced[n] = true
		}
	}
	labels, _ := ng.Components()
	comp := make(map[int32]bool)
	for n := 0; n < m.NumNodes(); n++ {
		if referenced[n] {
			comp[labels[n]] = true
		}
	}
	if len(comp) != 1 {
		t.Fatalf("referenced mesh nodes form %d components (of %d total), want 1", len(comp), count)
	}
}

func TestAirwayGenerationScaling(t *testing.T) {
	cfg := DefaultAirwayConfig()
	cfg.Generations = 1
	cfg.NTheta = 8
	cfg.NAxial = 4
	m1, err := GenerateAirway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Generations = 3
	m3, err := GenerateAirway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m3.NumElems() <= m1.NumElems() {
		t.Fatalf("more generations must add elements: %d vs %d", m3.NumElems(), m1.NumElems())
	}
}

func TestAirwayInletAtTop(t *testing.T) {
	m := smallAirway(t)
	// The inlet (face) is the highest cross-section; outlets are lower.
	var inletZ, outletZ float64
	for _, n := range m.InletNodes {
		inletZ += m.Coords[n].Z
	}
	inletZ /= float64(len(m.InletNodes))
	for _, n := range m.OutletNodes {
		outletZ += m.Coords[n].Z
	}
	outletZ /= float64(len(m.OutletNodes))
	if inletZ <= outletZ {
		t.Fatalf("inlet mean z %g should be above outlet mean z %g", inletZ, outletZ)
	}
}

func TestAirwayJitterStaysValid(t *testing.T) {
	cfg := DefaultAirwayConfig()
	cfg.Generations = 1
	cfg.NTheta = 8
	cfg.NAxial = 4
	cfg.Jitter = 0.01
	m, err := GenerateAirway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAirwayConfigValidation(t *testing.T) {
	bad := []func(*AirwayConfig){
		func(c *AirwayConfig) { c.Generations = -1 },
		func(c *AirwayConfig) { c.NTheta = 3 },
		func(c *AirwayConfig) { c.NRadial = 0 },
		func(c *AirwayConfig) { c.NBoundaryLayers = 1 },
		func(c *AirwayConfig) { c.NAxial = 1 },
		func(c *AirwayConfig) { c.RadiusRatio = 1.5 },
		func(c *AirwayConfig) { c.Jitter = 0.5 },
	}
	for i, mut := range bad {
		cfg := DefaultAirwayConfig()
		mut(&cfg)
		if _, err := GenerateAirway(cfg); err == nil {
			t.Errorf("case %d: want config error", i)
		}
	}
}

func TestNodeToElemInverse(t *testing.T) {
	m := smallAirway(t)
	n2e := m.NodeToElem()
	for e := 0; e < m.NumElems(); e++ {
		for _, nd := range m.ElemNodes(e) {
			found := false
			for _, ee := range n2e.Neighbors(int(nd)) {
				if int(ee) == e {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("node %d missing element %d in NodeToElem", nd, e)
			}
		}
	}
}

func TestDualByNodeConflicts(t *testing.T) {
	m := smallAirway(t)
	dual := m.DualByNode()
	if err := dual.Validate(); err != nil {
		t.Fatal(err)
	}
	// Spot check: adjacent in dual <=> share a node, on a sample.
	shareNode := func(e, f int) bool {
		for _, a := range m.ElemNodes(e) {
			for _, b := range m.ElemNodes(f) {
				if a == b {
					return true
				}
			}
		}
		return false
	}
	step := m.NumElems()/50 + 1
	for e := 0; e < m.NumElems(); e += step {
		for f := 0; f < m.NumElems(); f += step * 3 {
			if e == f {
				continue
			}
			if dual.HasEdge(e, f) != shareNode(e, f) {
				t.Fatalf("dual edge (%d,%d)=%v but shareNode=%v", e, f, dual.HasEdge(e, f), shareNode(e, f))
			}
		}
	}
}

// nodeGraph builds the node-to-node adjacency: two nodes are adjacent iff
// they appear in a common element. TestAirwayConnected walks it.
func nodeGraph(m *Mesh) *graph.CSR {
	lists := make([][]int32, m.NumNodes())
	for e := 0; e < m.NumElems(); e++ {
		nodes := m.ElemNodes(e)
		for _, a := range nodes {
			for _, b := range nodes {
				if a != b {
					lists[a] = append(lists[a], b)
				}
			}
		}
	}
	return graph.FromAdjacency(lists)
}

func TestNodeGraphMatchesElements(t *testing.T) {
	m := smallAirway(t)
	ng := nodeGraph(m)
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every element's node pairs must be edges.
	for e := 0; e < m.NumElems(); e += 7 {
		nodes := m.ElemNodes(e)
		for i, a := range nodes {
			for _, b := range nodes[i+1:] {
				if !ng.HasEdge(int(a), int(b)) {
					t.Fatalf("element %d nodes %d,%d not adjacent in node graph", e, a, b)
				}
			}
		}
	}
}

func TestBoundaryFacesSingleTet(t *testing.T) {
	m := unitTet()
	faces := m.BoundaryFaces()
	if len(faces) != 4 {
		t.Fatalf("single tet has 4 boundary faces, got %d", len(faces))
	}
}

func TestBoundaryFacesTwoTets(t *testing.T) {
	b := newBuilder()
	b.addNode(Vec3{0, 0, 0})
	b.addNode(Vec3{1, 0, 0})
	b.addNode(Vec3{0, 1, 0})
	b.addNode(Vec3{0, 0, 1})
	b.addNode(Vec3{1, 1, 1})
	b.addElem(Tet4, 0, 1, 2, 3)
	b.addElem(Tet4, 1, 2, 3, 4)
	m := b.mesh()
	faces := m.BoundaryFaces()
	if len(faces) != 6 {
		t.Fatalf("two glued tets have 6 boundary faces, got %d", len(faces))
	}
}

func TestTetDecompositionCoversVolume(t *testing.T) {
	// Prism and pyramid volumes from decomposition must match the exact
	// geometric volume for affine shapes (checked in TestElementVolumes);
	// here check the decompositions have the right tet counts.
	var dst [][4]int32
	if got := len(unitPrism().TetDecomposition(0, dst)); got != 3 {
		t.Fatalf("prism decomposes into %d tets, want 3", got)
	}
	if got := len(unitPyramid().TetDecomposition(0, dst)); got != 2 {
		t.Fatalf("pyramid decomposes into %d tets, want 2", got)
	}
}

// Property: generated airways are always structurally valid over a range
// of configurations.
func TestAirwayValidQuick(t *testing.T) {
	f := func(gen, nt, na uint8) bool {
		cfg := DefaultAirwayConfig()
		cfg.Generations = int(gen % 3)
		cfg.NTheta = 6 + int(nt%5)
		cfg.NAxial = 2 + int(na%4)
		m, err := GenerateAirway(cfg)
		if err != nil {
			return false
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryString(t *testing.T) {
	s := smallAirway(t).Summary()
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func BenchmarkGenerateAirway(b *testing.B) {
	cfg := DefaultAirwayConfig()
	cfg.Generations = 3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := GenerateAirway(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = m
	}
}

func BenchmarkDualByNode(b *testing.B) {
	m := smallAirway(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.DualByNode()
	}
}
