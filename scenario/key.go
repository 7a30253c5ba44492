package scenario

import (
	"sort"
	"strconv"
	"strings"
)

// CanonicalKey returns a deterministic textual encoding of the *set*
// fields of p, suitable as a cache key: two Params that configure a
// scenario identically produce the same key, regardless of how they were
// constructed. Unset fields (zero values, nil pointers) are omitted, so
// an explicit default and an absent override only collide when they are
// semantically the same Params value; Platforms is order-insensitive
// (selection semantics are set-like) and deduplicated. The encoding is
// versioned by field names, not positions — adding a field never changes
// the key of existing Params.
func (p Params) CanonicalKey() string {
	var parts []string
	add := func(name, val string) { parts = append(parts, name+"="+val) }
	num := func(name string, v int) {
		if v != 0 {
			add(name, strconv.Itoa(v))
		}
	}
	num("ranks", p.Ranks)
	num("pranks", p.ParticleRanks)
	if p.Mode != nil {
		add("mode", p.Mode.String())
	}
	if p.Strategy != nil {
		add("strategy", p.Strategy.String())
	}
	if p.SGSStrategy != nil {
		add("sgs", p.SGSStrategy.String())
	}
	if p.DLB != nil {
		add("dlb", strconv.FormatBool(*p.DLB))
	}
	num("gens", p.MeshGenerations)
	if p.Particles != nil {
		add("particles", strconv.Itoa(*p.Particles))
	}
	num("steps", p.Steps)
	num("workers", p.Workers)
	if len(p.Platforms) > 0 {
		names := append([]string(nil), p.Platforms...)
		sort.Strings(names)
		uniq := names[:0]
		for i, n := range names {
			if i == 0 || n != names[i-1] {
				uniq = append(uniq, n)
			}
		}
		add("platforms", strings.Join(uniq, "+"))
	}
	num("width", p.Width)
	num("rows", p.Rows)
	if p.Seed != 0 {
		add("seed", strconv.FormatInt(p.Seed, 10))
	}
	if p.Inflow != nil {
		add("inflow", p.Inflow.String())
	}
	// Sweep axes are set-like (the grid is a cartesian product): sorted
	// and deduplicated, so axis order and repeats never split the cache.
	floats := func(name string, vs []float64) {
		if len(vs) == 0 {
			return
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		var b strings.Builder
		for i, v := range sorted {
			if i > 0 && v == sorted[i-1] {
				continue
			}
			if b.Len() > 0 {
				b.WriteByte('+')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		add(name, b.String())
	}
	floats("sweepd", p.SweepDiameters)
	floats("sweepq", p.SweepFlows)
	if len(p.SweepGens) > 0 {
		sorted := append([]int(nil), p.SweepGens...)
		sort.Ints(sorted)
		var b strings.Builder
		for i, v := range sorted {
			if i > 0 && v == sorted[i-1] {
				continue
			}
			if b.Len() > 0 {
				b.WriteByte('+')
			}
			b.WriteString(strconv.Itoa(v))
		}
		add("sweepg", b.String())
	}
	return strings.Join(parts, ";")
}
