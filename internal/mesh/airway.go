package mesh

import (
	"fmt"
	"math"
	"math/rand"
)

// AirwayConfig parameterizes the procedural human-airway mesh generator.
// The defaults produce a small mesh suitable for tests; scale Generations,
// NTheta and NAxial up for benchmark-sized meshes. The paper's subject-
// specific mesh extends from the face to the 7th branch generation with
// 17.7M elements.
type AirwayConfig struct {
	// Generations is the number of bronchial branch generations below the
	// trachea (the paper uses 7).
	Generations int
	// NTheta is the number of circumferential node columns per tube.
	NTheta int
	// NRadial is the number of core (tetrahedral) node rings.
	NRadial int
	// NBoundaryLayers is the number of wall-side node rings; the annulus
	// adjacent to the core transitions with pyramids, the remaining
	// NBoundaryLayers-1 annuli are prisms resolving the boundary layer.
	NBoundaryLayers int
	// NAxial is the number of axial element layers along the trachea;
	// shorter child branches get proportionally fewer layers (minimum 2).
	NAxial int
	// TracheaRadius and TracheaLength set the physical scale (meters).
	TracheaRadius float64
	TracheaLength float64
	// RadiusRatio and LengthRatio are the child/parent homothety ratios
	// (Weibel-like lung morphometry uses approximately 0.79 and 0.8).
	RadiusRatio float64
	LengthRatio float64
	// BranchAngle is the half-angle between children, in radians.
	BranchAngle float64
	// WithInletFunnel prepends an extrathoracic inlet funnel (the paper's
	// "hemisphere of the subject's face exterior" + oropharynx) whose
	// first cross-section is the particle injection surface.
	WithInletFunnel bool
	// Jitter adds relative positional noise to interior nodes to break
	// structured-mesh regularity (0 disables; keep below ~0.05).
	Jitter float64
	// Seed seeds the jitter noise.
	Seed int64
}

// DefaultAirwayConfig returns a small airway suitable for unit tests and
// examples: 4 branch generations, ~20k elements.
func DefaultAirwayConfig() AirwayConfig {
	return AirwayConfig{
		Generations:     4,
		NTheta:          10,
		NRadial:         2,
		NBoundaryLayers: 3,
		NAxial:          6,
		TracheaRadius:   0.009, // 9 mm
		TracheaLength:   0.10,  // 10 cm
		RadiusRatio:     0.79,
		LengthRatio:     0.80,
		BranchAngle:     35 * math.Pi / 180,
		WithInletFunnel: true,
		Jitter:          0,
		Seed:            1,
	}
}

// segment is one tube of the bronchial tree during generation.
type segment struct {
	origin     Vec3
	dir        Vec3 // unit axis
	e1, e2     Vec3 // cross-section frame
	length     float64
	r0, r1     float64 // wall radius at start and end (linear taper)
	gen        int     // -1 = inlet funnel, 0 = trachea, 1.. = bronchi
	nz         int     // axial element layers
	firstSec   []int32 // node ids of first cross-section (filled during build)
	lastSec    []int32 // node ids of last cross-section
	children   []*segment
	isLeaf     bool
	wallOffset int // index of outermost ring within a section slice
}

// airwayGen is the state of one GenerateAirway call: the node/element
// accumulator, the jitter noise source and the boundary node lists.
type airwayGen struct {
	cfg AirwayConfig
	b   *builder
	rng *rand.Rand

	inletNodes  []int32
	outletNodes []int32
	wallNodes   []int32
}

// GenerateAirway builds the hybrid airway mesh described by cfg.
func GenerateAirway(cfg AirwayConfig) (*Mesh, error) {
	if err := validateAirwayConfig(cfg); err != nil {
		return nil, err
	}
	g := &airwayGen{cfg: cfg, b: newBuilder(), rng: rand.New(rand.NewSource(cfg.Seed))}
	root := g.buildTree()
	// Mesh every segment, then join parents to children.
	g.meshSegmentTree(root)
	g.connectTree(root)
	return &Mesh{
		Coords: g.b.coords, Kinds: g.b.kinds, Ptr: g.b.ptr, Conn: g.b.conn,
		InletNodes:  g.inletNodes,
		OutletNodes: g.outletNodes,
		WallNodes:   g.wallNodes,
	}, nil
}

func validateAirwayConfig(cfg AirwayConfig) error {
	if cfg.Generations < 0 {
		return fmt.Errorf("mesh: Generations must be >= 0, got %d", cfg.Generations)
	}
	if cfg.NTheta < 6 {
		return fmt.Errorf("mesh: NTheta must be >= 6, got %d", cfg.NTheta)
	}
	if cfg.NRadial < 1 {
		return fmt.Errorf("mesh: NRadial must be >= 1, got %d", cfg.NRadial)
	}
	if cfg.NBoundaryLayers < 2 {
		return fmt.Errorf("mesh: NBoundaryLayers must be >= 2, got %d", cfg.NBoundaryLayers)
	}
	if cfg.NAxial < 2 {
		return fmt.Errorf("mesh: NAxial must be >= 2, got %d", cfg.NAxial)
	}
	if cfg.RadiusRatio <= 0 || cfg.RadiusRatio >= 1 || cfg.LengthRatio <= 0 || cfg.LengthRatio > 1 {
		return fmt.Errorf("mesh: homothety ratios out of range (r=%g l=%g)", cfg.RadiusRatio, cfg.LengthRatio)
	}
	if cfg.Jitter < 0 || cfg.Jitter > 0.05 {
		return fmt.Errorf("mesh: Jitter must be in [0, 0.05], got %g", cfg.Jitter)
	}
	return nil
}

// buildTree lays out segment geometry (origins, frames, radii) without
// creating nodes yet.
func (g *airwayGen) buildTree() *segment {
	cfg := g.cfg
	down := Vec3{0, 0, -1} // airways run downward from the face
	e1 := Vec3{1, 0, 0}
	e2 := Vec3{0, 1, 0}

	var root *segment
	trachea := &segment{}
	trachea.dir, trachea.e1, trachea.e2 = down, e1, e2
	trachea.length = cfg.TracheaLength
	trachea.r0, trachea.r1 = cfg.TracheaRadius, cfg.TracheaRadius
	trachea.gen = 0
	trachea.nz = cfg.NAxial
	if cfg.WithInletFunnel {
		funnel := &segment{}
		funnel.origin = Vec3{0, 0, cfg.TracheaLength * 0.45}
		funnel.dir, funnel.e1, funnel.e2 = down, e1, e2
		funnel.length = cfg.TracheaLength * 0.45
		funnel.r0 = cfg.TracheaRadius * 1.8 // wide at the face
		funnel.r1 = cfg.TracheaRadius
		funnel.gen = -1
		funnel.nz = max(2, cfg.NAxial/2)
		funnel.children = append(funnel.children, trachea)
		// Leave a short gap below the funnel for the junction sleeve;
		// coincident cross-sections would produce degenerate tets.
		trachea.origin = Vec3{0, 0, -0.35 * cfg.TracheaRadius}
		root = funnel
	} else {
		trachea.origin = Vec3{0, 0, 0}
		root = trachea
	}

	g.grow(trachea)
	return root
}

// grow recursively attaches two children to s until cfg.Generations.
func (g *airwayGen) grow(s *segment) {
	if s.gen >= g.cfg.Generations {
		s.isLeaf = true
		return
	}
	cfg := g.cfg
	end := s.origin.Add(s.dir.Scale(s.length))
	childR := s.r1 * cfg.RadiusRatio
	childL := s.length * cfg.LengthRatio
	// Alternate branching planes between generations, like real lungs.
	var axis Vec3
	if s.gen%2 == 0 {
		axis = s.e1
	} else {
		axis = s.e2
	}
	for side := 0; side < 2; side++ {
		sign := 1.0
		if side == 1 {
			sign = -1.0
		}
		dir := rotateAbout(s.dir, axis.Cross(s.dir).Normalize(), sign*cfg.BranchAngle)
		dir = dir.Normalize()
		// Build an orthonormal frame for the child.
		ce1 := axis.Sub(dir.Scale(axis.Dot(dir))).Normalize()
		if ce1.Norm() < 0.5 { // axis nearly parallel to dir; pick any perpendicular
			ce1 = perpendicular(dir)
		}
		ce2 := dir.Cross(ce1).Normalize()
		child := &segment{}
		child.origin = end.Add(dir.Scale(0.35 * s.r1))
		child.dir, child.e1, child.e2 = dir, ce1, ce2
		child.length = childL
		child.r0, child.r1 = childR, childR
		child.gen = s.gen + 1
		child.nz = max(2, int(math.Round(float64(cfg.NAxial)*childL/cfg.TracheaLength)))
		s.children = append(s.children, child)
		g.grow(child)
	}
}

// rotateAbout rotates v around unit axis k by angle a (Rodrigues).
func rotateAbout(v, k Vec3, a float64) Vec3 {
	c, s := math.Cos(a), math.Sin(a)
	return v.Scale(c).Add(k.Cross(v).Scale(s)).Add(k.Scale(k.Dot(v) * (1 - c)))
}

// perpendicular returns an arbitrary unit vector perpendicular to d.
func perpendicular(d Vec3) Vec3 {
	if math.Abs(d.X) < 0.9 {
		return d.Cross(Vec3{1, 0, 0}).Normalize()
	}
	return d.Cross(Vec3{0, 1, 0}).Normalize()
}

// ringRadii returns the radius of every node ring (1..nRings) for a
// cross-section of wall radius R. Core rings are uniform to 0.65R; the wall-side rings are
// graded so spacing shrinks toward the wall (boundary layer resolution).
func (g *airwayGen) ringRadii(R float64) []float64 {
	nr, nbl := g.cfg.NRadial, g.cfg.NBoundaryLayers
	rcore := 0.65 * R
	radii := make([]float64, nr+nbl)
	for r := 1; r <= nr; r++ {
		radii[r-1] = rcore * float64(r) / float64(nr)
	}
	for j := 1; j <= nbl; j++ {
		s := math.Pow(float64(j)/float64(nbl), 0.6)
		radii[nr+j-1] = rcore + (R-rcore)*s
	}
	return radii
}

// sectionNodes creates the nodes of one cross-section and returns their
// ids: index 0 is the center, ring r node i is at 1+(r-1)*NTheta+i.
func (g *airwayGen) sectionNodes(center Vec3, e1, e2 Vec3, R float64, jitterOK bool) []int32 {
	nTheta := g.cfg.NTheta
	radii := g.ringRadii(R)
	ids := make([]int32, 1+len(radii)*nTheta)
	ids[0] = g.b.addNode(center)
	nRings := len(radii)
	for r := 1; r <= nRings; r++ {
		for i := 0; i < nTheta; i++ {
			theta := 2 * math.Pi * float64(i) / float64(nTheta)
			rad := radii[r-1]
			p := center.Add(e1.Scale(rad * math.Cos(theta))).Add(e2.Scale(rad * math.Sin(theta)))
			if jitterOK && g.cfg.Jitter > 0 && r < nRings {
				// Interior nodes only; keep wall and BC sections exact.
				amp := g.cfg.Jitter * R
				p = p.Add(Vec3{
					(g.rng.Float64() - 0.5) * amp,
					(g.rng.Float64() - 0.5) * amp,
					(g.rng.Float64() - 0.5) * amp,
				})
			}
			ids[1+(r-1)*nTheta+i] = g.b.addNode(p)
		}
	}
	return ids
}

// meshSegmentTree creates nodes and elements for every segment.
func (g *airwayGen) meshSegmentTree(root *segment) {
	g.meshSegment(root)
	for _, c := range root.children {
		g.meshSegmentTree(c)
	}
}

// meshSegment builds one tube: nz+1 cross-sections and the cells between.
func (g *airwayGen) meshSegment(s *segment) {
	cfg := g.cfg
	nTheta := cfg.NTheta
	nr, nbl := cfg.NRadial, cfg.NBoundaryLayers
	nRings := nr + nbl
	s.wallOffset = nRings

	sections := make([][]int32, s.nz+1)
	for k := 0; k <= s.nz; k++ {
		t := float64(k) / float64(s.nz)
		center := s.origin.Add(s.dir.Scale(s.length * t))
		R := s.r0 + (s.r1-s.r0)*t
		jitterOK := k != 0 && k != s.nz
		sections[k] = g.sectionNodes(center, s.e1, s.e2, R, jitterOK)
	}
	s.firstSec = sections[0]
	s.lastSec = sections[s.nz]

	// Boundary bookkeeping.
	for k := 0; k <= s.nz; k++ {
		for i := 0; i < nTheta; i++ {
			g.wallNodes = append(g.wallNodes, sections[k][1+(nRings-1)*nTheta+i])
		}
	}
	// The first cross-section of the root segment is the inlet: the
	// funnel when present, otherwise the trachea itself.
	if s.gen == -1 || (s.gen == 0 && !cfg.WithInletFunnel) {
		g.inletNodes = append(g.inletNodes, sections[0]...)
	}
	if s.isLeaf {
		g.outletNodes = append(g.outletNodes, sections[s.nz]...)
	}

	ringNode := func(sec []int32, r, i int) int32 {
		i = ((i % nTheta) + nTheta) % nTheta
		return sec[1+(r-1)*nTheta+i]
	}

	for k := 0; k < s.nz; k++ {
		lo, hi := sections[k], sections[k+1]
		// Innermost fan: center-triangle wedges split into tets (core).
		for i := 0; i < nTheta; i++ {
			a0, a1, a2 := lo[0], ringNode(lo, 1, i), ringNode(lo, 1, i+1)
			b0, b1, b2 := hi[0], ringNode(hi, 1, i), ringNode(hi, 1, i+1)
			g.wedgeToTets(a0, a1, a2, b0, b1, b2)
		}
		// Ring annuli.
		for r := 1; r < nRings; r++ {
			for i := 0; i < nTheta; i++ {
				// Cross-section quad (cyclic): inner pair then outer pair.
				a0 := ringNode(lo, r, i)
				a1 := ringNode(lo, r, i+1)
				a2 := ringNode(lo, r+1, i+1)
				a3 := ringNode(lo, r+1, i)
				b0 := ringNode(hi, r, i)
				b1 := ringNode(hi, r, i+1)
				b2 := ringNode(hi, r+1, i+1)
				b3 := ringNode(hi, r+1, i)
				switch {
				case r < nr:
					// Core: two wedges, each into 3 tets.
					g.wedgeToTets(a0, a1, a2, b0, b1, b2)
					g.wedgeToTets(a0, a2, a3, b0, b2, b3)
				case r == nr:
					// Transition annulus: two wedges, each into
					// 1 pyramid + 1 tet.
					g.wedgeToPyramidTet(a0, a1, a2, b0, b1, b2)
					g.wedgeToPyramidTet(a0, a2, a3, b0, b2, b3)
				default:
					// Boundary layer: true prisms.
					g.b.addElem(Prism6, a0, a1, a2, b0, b1, b2)
					g.b.addElem(Prism6, a0, a2, a3, b0, b2, b3)
				}
			}
		}
	}
}

// wedgeToTets splits the wedge (a0,a1,a2 bottom; b0,b1,b2 top) into three
// tetrahedra with orientation fixes.
func (g *airwayGen) wedgeToTets(a0, a1, a2, b0, b1, b2 int32) {
	g.b.addTet(a0, a1, a2, b0)
	g.b.addTet(a1, a2, b0, b1)
	g.b.addTet(a2, b0, b1, b2)
}

// wedgeToPyramidTet splits the wedge into one pyramid and one tet: the
// pyramid takes the lateral quad face (a1,a2,b2,b1) as base with apex a0;
// the remaining tet is (a0,b1,b2,b0).
func (g *airwayGen) wedgeToPyramidTet(a0, a1, a2, b0, b1, b2 int32) {
	g.b.addElem(Pyramid5, a1, a2, b2, b1, a0)
	g.b.addTet(a0, b1, b2, b0)
}

// connectTree joins each parent's last cross-section to each child's first
// cross-section with a sleeve of tetrahedra around the wall rings plus a
// junction hub node, keeping the global node graph connected through
// bifurcations.
func (g *airwayGen) connectTree(s *segment) {
	for _, c := range s.children {
		g.connectJunction(s, c)
		g.connectTree(c)
	}
}

func (g *airwayGen) connectJunction(parent, child *segment) {
	nTheta := g.cfg.NTheta
	nRings := parent.wallOffset
	pWall := func(i int) int32 {
		i = ((i % nTheta) + nTheta) % nTheta
		return parent.lastSec[1+(nRings-1)*nTheta+i]
	}
	cWall := func(i int) int32 {
		i = ((i % nTheta) + nTheta) % nTheta
		return child.firstSec[1+(nRings-1)*nTheta+i]
	}
	pCenter := parent.lastSec[0]
	cCenter := child.firstSec[0]
	hub := g.b.addNode(g.b.coords[pCenter].Add(g.b.coords[cCenter]).Scale(0.5))

	for i := 0; i < nTheta; i++ {
		g.b.addTet(pWall(i), pWall(i+1), cWall(i), hub)
		g.b.addTet(pWall(i+1), cWall(i+1), cWall(i), hub)
	}
	// Axial spine keeping the core flow path connected through the
	// junction (hub is collinear with the two centers, so use wall nodes
	// to span a non-degenerate tet).
	g.b.addTet(pCenter, cCenter, pWall(0), pWall(nTheta/4))
}
