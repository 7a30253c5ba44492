package repro

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/mesh"
	"repro/internal/particles"
	"repro/internal/tasking"
)

// ParticleEngineReport measures the Lagrangian particle engine on the
// default benchmark mesh (a generation-2 airway): flat-grid locator build
// and query, and the SoA tracker step serial and sharded across workers.
// It backs the registered "particles" scenario (`benchfig -exp
// particles`). The seed's map-bucket locator and serial AoS tracker are
// test oracles now; `go test -bench 'Locator|TrackerStep'
// ./internal/particles` races the engine against them.
func ParticleEngineReport() (string, error) {
	mc := mesh.DefaultAirwayConfig()
	mc.Generations = 2
	m, err := mesh.GenerateAirway(mc)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Particle engine — mesh %s\n", m.Summary())

	// Locator build, then query over a fixed probe set (hits and misses).
	build := bestOf(3, func() { particles.NewLocator(m, nil, 32) })
	fmt.Fprintf(&sb, "  locator build: flat grid %v\n", build.Round(time.Microsecond))
	flat := particles.NewLocator(m, nil, 32)
	pts := probePoints(m, 4096)
	query := bestOf(3, func() {
		for _, p := range pts {
			flat.Locate(p, -1)
		}
	})
	fmt.Fprintf(&sb, "  locate %d points: flat grid %v\n", len(pts), query.Round(time.Microsecond))

	// Tracker step throughput.
	const nParticles = 5000
	species := particles.Props{Diameter: 10e-6, Density: 1000}
	down := func(node int32) mesh.Vec3 { return mesh.Vec3{Z: -1} }

	var tSerial time.Duration
	for _, workers := range []int{0, 2, 4} {
		tr := particles.NewTracker(m, nil, species, particles.AirAt20C())
		label := "SoA serial"
		var pool *tasking.Pool
		if workers > 0 {
			pool = tasking.NewPool(workers)
			tr.SetPool(pool)
			label = fmt.Sprintf("SoA parallel x%d", workers)
		}
		tr.InjectAtInlet(nParticles, 1, mesh.Vec3{Z: -1})
		snap := tr.Active.Clone()
		d := bestOf(3, func() {
			tr.Active.CopyFrom(snap)
			tr.Step(1e-4, down)
			tr.TakeLost()
		})
		if pool != nil {
			pool.Close()
		}
		fmt.Fprintf(&sb, "  tracker step (%d particles): %-15s %v", snap.Len(), label, d.Round(time.Microsecond))
		if workers == 0 {
			tSerial = d
		} else {
			fmt.Fprintf(&sb, " (%.2fx vs serial)", float64(tSerial)/float64(d))
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// bestOf runs fn n times and returns the fastest duration — the standard
// way to strip scheduler noise from a quick CLI measurement.
func bestOf(n int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func probePoints(m *mesh.Mesh, n int) []mesh.Vec3 {
	lo, hi := m.BoundingBox()
	pts := make([]mesh.Vec3, 0, n)
	for i := 0; len(pts) < n; i++ {
		e := (i * 7919) % m.NumElems()
		pts = append(pts, m.Centroid(e))
		f := float64(i%97) / 97
		pts = append(pts, mesh.Vec3{
			X: lo.X + f*(hi.X-lo.X),
			Y: lo.Y + (1-f)*(hi.Y-lo.Y),
			Z: lo.Z + f*(hi.Z-lo.Z),
		})
	}
	return pts[:n]
}
