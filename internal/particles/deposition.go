package particles

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/mesh"
)

// DepositionMap records where particles ended up, binned along the
// airway depth (the inlet-to-outlet axis). Deposition maps are the
// clinical product of CFPD simulations — the paper's introduction
// motivates the whole exercise with them ("deposition maps generated via
// CFPD simulations and their integration into clinical practice").
type DepositionMap struct {
	// BinEdges are depth coordinates (z, descending from the inlet);
	// bin i covers [BinEdges[i+1], BinEdges[i]).
	BinEdges []float64
	// Deposited[i] counts wall-deposited particles in bin i.
	Deposited []int
	// Exited counts particles that reached the deep lung (outlets).
	Exited int
	// Airborne counts particles still in flight.
	Airborne int
}

// NewDepositionMap builds a map with nBins depth bins spanning the mesh.
func NewDepositionMap(m *mesh.Mesh, nBins int) *DepositionMap {
	if nBins < 1 {
		nBins = 1
	}
	lo, hi := m.BoundingBox()
	edges := make([]float64, nBins+1)
	for i := 0; i <= nBins; i++ {
		// Descending from the inlet (high z) to the deep lung (low z).
		edges[i] = hi.Z - (hi.Z-lo.Z)*float64(i)/float64(nBins)
	}
	return &DepositionMap{BinEdges: edges, Deposited: make([]int, nBins)}
}

// RecordDeposit bins one wall-deposited particle by its final position.
func (dm *DepositionMap) RecordDeposit(pos mesh.Vec3) {
	n := len(dm.Deposited)
	top, bottom := dm.BinEdges[0], dm.BinEdges[n]
	span := top - bottom
	if span <= 0 {
		dm.Deposited[0]++
		return
	}
	i := int(float64(n) * (top - pos.Z) / span)
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	dm.Deposited[i]++
}

// Merge accumulates another map (e.g. from another rank) into dm; the
// maps must share binning.
func (dm *DepositionMap) Merge(other *DepositionMap) error {
	if len(other.Deposited) != len(dm.Deposited) {
		return fmt.Errorf("particles: deposition maps have different binning")
	}
	for i, c := range other.Deposited {
		dm.Deposited[i] += c
	}
	dm.Exited += other.Exited
	dm.Airborne += other.Airborne
	return nil
}

// TotalDeposited sums all deposition bins.
func (dm *DepositionMap) TotalDeposited() int {
	t := 0
	for _, c := range dm.Deposited {
		t += c
	}
	return t
}

// LostFraction reports deposited / (deposited + exited): the fraction of
// settled drug that never reached the deep lung — what inhaler design
// tries to minimize.
func (dm *DepositionMap) LostFraction() float64 {
	d, e := dm.TotalDeposited(), dm.Exited
	if d+e == 0 {
		return 0
	}
	return float64(d) / float64(d+e)
}

// Format renders the map as a text histogram (proximal bins first).
func (dm *DepositionMap) Format() string {
	var sb strings.Builder
	max := 0
	for _, c := range dm.Deposited {
		if c > max {
			max = c
		}
	}
	fmt.Fprintf(&sb, "deposition by airway depth (proximal -> distal), %d deposited, %d exited, %d airborne\n",
		dm.TotalDeposited(), dm.Exited, dm.Airborne)
	for i, c := range dm.Deposited {
		bar := 0
		if max > 0 {
			bar = int(math.Round(30 * float64(c) / float64(max)))
		}
		fmt.Fprintf(&sb, "  depth %2d [%8.4f .. %8.4f] %6d |%s\n",
			i, dm.BinEdges[i+1], dm.BinEdges[i], c, strings.Repeat("#", bar))
	}
	return sb.String()
}
