package particles

import (
	"sort"

	"repro/internal/mesh"
	"repro/internal/simmpi"
)

// InjectAtInletCollective injects n particles across all the ranks of
// comm, each adopted by exactly one rank: every rank generates the same
// deterministic candidate sequence, claims the candidates it can locate,
// and an allgather resolves ties to the lowest-ranked claimant (subdomain
// geometries can overlap at junction sleeves and transition rings).
// All ranks must call it collectively; each returns its own adoption
// count. Working storage comes from the tracker's injection scratch, so
// for releases up to injectKeep only the allgather's result allocates
// once warm.
func InjectAtInletCollective(comm *simmpi.Comm, t *Tracker, n int, seed int64, vel mesh.Vec3) int {
	s := &t.inj
	cands := t.inletCandidates(n, seed, vel)
	s.elems = s.elems[:0]
	s.claims = s.claims[:0]
	for i, pos := range cands {
		e, ok := t.Loc.Locate(pos, -1)
		if ok {
			s.claims = append(s.claims, int32(i))
		} else {
			e = -1
		}
		s.elems = append(s.elems, e)
	}
	// A candidate is this rank's iff it located it and no lower rank
	// claimed it too: ties go to the lowest claimant.
	all := comm.AllgatherInt32s(s.claims)
	for _, lower := range all[:comm.Rank()] {
		for _, idx := range lower {
			s.elems[idx] = -1
		}
	}
	adopted := 0
	for i, pos := range cands {
		if e := s.elems[i]; e >= 0 {
			t.adopt(i, pos, vel, e, seed)
			adopted++
		}
	}
	t.nextID = int64(n) + seed<<20
	s.trim()
	return adopted
}

// InjectAtInletCollectiveAt is the time-aware form of
// InjectAtInletCollective for runs that re-release particles during the
// simulation (breathing cycles, continuous dosing): the injection at
// step k draws a fresh deterministic candidate sequence seeded seed+k —
// the same per-step convention the pollutant workload uses — and vel
// should be the waveform-scaled inlet velocity at that step's time.
// Step 0 is bit-identical to InjectAtInletCollective(seed).
func InjectAtInletCollectiveAt(comm *simmpi.Comm, t *Tracker, n int, seed int64, step int, vel mesh.Vec3) int {
	return InjectAtInletCollective(comm, t, n, seed+int64(step), vel)
}

// MigrationStats reports one migration round.
type MigrationStats struct {
	SentOut   int // particles handed to a neighboring rank
	Received  int // particles adopted from neighbors
	Finalized int // particles nobody claimed (deposited or exited)
}

// migrateScratch is the per-tracker scratch Migrate threads through the
// three-phase protocol. Every slice is reused across rounds (reset with
// [:0] or overwritten in place), so steady-state migration — including
// heavy-migration steps, once the high-water capacity is reached —
// performs no heap allocation.
type migrateScratch struct {
	sorted    []int        // peers, ascending
	encode    []float64    // candidate / transfer wire encoding
	claims    []int32      // indices claimable from one neighbor
	assignee  []int32      // per lost particle: sorted index of the lowest claiming rank, -1 none
	perPeer   [][]Particle // definitive transfers, indexed like sorted
	unclaimed []Particle
}

// reset prepares the scratch for a round with the given sorted peer
// count, growing the per-peer transfer table once.
func (ms *migrateScratch) reset(npeers int) {
	for len(ms.perPeer) < npeers {
		ms.perPeer = append(ms.perPeer, nil)
	}
	for i := range ms.perPeer {
		ms.perPeer[i] = ms.perPeer[i][:0]
	}
	ms.unclaimed = ms.unclaimed[:0]
}

// Migrate exchanges lost particles with neighboring ranks using a
// three-phase claim protocol that guarantees each particle is adopted by
// exactly one rank (the lowest-ranked claimant) or finalized by its
// origin:
//
//  1. every rank sends its lost particles' positions to all neighbors;
//  2. every neighbor replies with the indices it can host;
//  3. the origin assigns each particle to the lowest claiming rank and
//     sends the definitive transfers.
//
// All ranks owning a tracker must call Migrate collectively with
// symmetric peer lists (comm ranks). tagBase reserves three tags.
// Working storage comes from the tracker's migrate scratch and the
// world's leased transport buffers, so repeated rounds allocate nothing
// once warm.
func Migrate(comm *simmpi.Comm, t *Tracker, peers []int, tagBase int) MigrationStats {
	const (
		offCand  = 0
		offClaim = 1
		offXfer  = 2
	)
	var stats MigrationStats
	ms := &t.mig
	lost := t.lost
	ms.sorted = append(ms.sorted[:0], peers...)
	sort.Ints(ms.sorted)
	ms.reset(len(ms.sorted))

	// Phase 1: broadcast candidates (positions piggyback full state).
	// SendFloat64s copies into a leased transport buffer at the sender,
	// so the scratch encoding is immediately reusable.
	ms.encode = encodeParticlesInto(ms.encode[:0], lost)
	for _, p := range ms.sorted {
		comm.SendFloat64s(p, tagBase+offCand, ms.encode)
	}

	// Phase 2: evaluate neighbors' candidates, reply with claimable
	// indices. Candidates are read straight out of the leased transport
	// buffer (released after the claim scan — no decode copy needed).
	for _, p := range ms.sorted {
		rb := comm.RecvFloat64Buf(p, tagBase+offCand)
		ms.claims = ms.claims[:0]
		for i := 0; i < len(rb.Data)/particleWireLen; i++ {
			d := rb.Data[i*particleWireLen:]
			pos := mesh.Vec3{X: d[1], Y: d[2], Z: d[3]}
			if _, ok := t.Loc.Locate(pos, -1); ok {
				ms.claims = append(ms.claims, int32(i))
			}
		}
		rb.Release()
		comm.SendInt32s(p, tagBase+offClaim, ms.claims)
	}

	// Phase 3a: collect claims on our lost particles and assign each to
	// the lowest-ranked claimant. ms.sorted is walked in ascending rank
	// order, so the first claim on an index wins and the stored value
	// can be the sorted position itself (Phase 3b's transfer-table key).
	if cap(ms.assignee) < len(lost) {
		ms.assignee = make([]int32, len(lost))
	}
	ms.assignee = ms.assignee[:len(lost)]
	for i := range ms.assignee {
		ms.assignee[i] = -1
	}
	for pi, p := range ms.sorted {
		rb := comm.RecvInt32Buf(p, tagBase+offClaim)
		for _, idx := range rb.Data {
			if ms.assignee[idx] == -1 {
				ms.assignee[idx] = int32(pi)
			}
		}
		rb.Release()
	}
	// Phase 3b: send definitive transfers per peer; finalize unclaimed.
	for i, p := range lost {
		if a := ms.assignee[i]; a >= 0 {
			ms.perPeer[a] = append(ms.perPeer[a], p)
			stats.SentOut++
		} else {
			ms.unclaimed = append(ms.unclaimed, p)
		}
	}
	for i, p := range ms.sorted {
		ms.encode = encodeParticlesInto(ms.encode[:0], ms.perPeer[i])
		comm.SendFloat64s(p, tagBase+offXfer, ms.encode)
	}
	t.Finalize(ms.unclaimed)
	stats.Finalized = len(ms.unclaimed)
	// The lost list was fully dispatched (transferred or finalized);
	// keep its backing for the next round.
	t.lost = t.lost[:0]

	// Phase 3c: adopt definitive transfers, decoding in place out of the
	// leased buffer.
	for _, p := range ms.sorted {
		rb := comm.RecvFloat64Buf(p, tagBase+offXfer)
		stats.Received += t.absorbEncoded(rb.Data)
		rb.Release()
	}
	return stats
}
