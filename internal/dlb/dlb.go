// Package dlb reimplements the Dynamic Load Balancing library (DLB) with
// its LeWI ("lend when idle") policy, the paper's second runtime
// technique. DLB is transparent to the application: it observes blocking
// MPI calls through the PMPI-style hooks exposed by simmpi and reacts by
// resizing the OpenMP-like worker pools of the processes sharing a node.
//
// A process lends its cores to the other processes on the same node when
// it parks in a blocking MPI call, and reclaims them when the parked call
// completes. A call satisfied while simmpi still spins lends nothing: a
// spinning rank still holds its core, and lending it for a few
// microseconds would cost two pool resizes per exchange. This is LeWI
// over an MPI library in blocking-wait mode, where only a blocked call
// gives its core back. Lending never crosses node boundaries — cores are
// a node-local resource — which is why the placement of fluid and
// particle ranks across nodes matters in the coupled-mode experiments
// (Figures 8-11).
package dlb

import (
	"fmt"
	"sync"
	"time"
)

// Resizable is the pool surface DLB drives; *tasking.Pool satisfies it.
type Resizable interface {
	SetWorkers(n int)
	Workers() int
	MaxWorkers() int
}

// Stats counts DLB activity for reporting and tests.
type Stats struct {
	Lends    int // parks that lent cores
	Reclaims int // park exits that took cores back
	// PeakWorkers records the largest worker count each rank reached
	// thanks to borrowed cores.
	PeakWorkers map[int]int
}

// Migration records one pool resize DLB actually performed: Rank's
// worker pool changed to Workers at wall-clock offset At from the
// instance's creation. Redundant rebalances (same target) record
// nothing, so the log is exactly the sequence of effective LeWI
// migrations — the events the telemetry store persists per run.
type Migration struct {
	Rank    int
	Workers int
	At      time.Duration
}

// maxMigrations bounds the migration log; runs that rebalance more
// often than this keep the earliest entries and stop recording.
const maxMigrations = 4096

// DLB is the library instance for one run. Register every rank, then
// install it as the world's BlockingHooks (it implements
// simmpi.BlockingHooks and simmpi.ParkHooks).
type DLB struct {
	mu      sync.Mutex
	enabled bool
	nodes   map[int]*nodeState
	ranks   map[int]*procState
	stats   Stats
	start   time.Time
	migs    []Migration
}

type nodeState struct {
	procs  []*procState // registration order
	active []*procState // rebalanceLocked's scratch: the non-blocked procs
}

type procState struct {
	rank    int
	node    *nodeState
	pool    Resizable
	owned   int
	blocked bool
	target  int // last worker count pushed to the pool (0 = unknown)
}

// setTarget pushes a worker count to the pool only when it changed —
// rebalances run on every park, so redundant pool wakeups are the
// dominant overhead otherwise. Reports whether the pool was resized.
func (p *procState) setTarget(n int) bool {
	if p.target == n {
		return false
	}
	p.target = n
	p.pool.SetWorkers(n)
	return true
}

// setTargetLocked resizes p's pool through setTarget and logs the
// migration when the target actually changed. Called with d.mu held.
func (d *DLB) setTargetLocked(p *procState, n int) {
	if !p.setTarget(n) {
		return
	}
	if len(d.migs) < maxMigrations {
		d.migs = append(d.migs, Migration{Rank: p.rank, Workers: n, At: time.Since(d.start)})
	}
}

// New creates a DLB instance; pass enabled=false for the "original"
// (no load balancing) configuration so call sites stay identical.
func New(enabled bool) *DLB {
	return &DLB{
		enabled: enabled,
		nodes:   make(map[int]*nodeState),
		ranks:   make(map[int]*procState),
		stats:   Stats{PeakWorkers: make(map[int]int)},
		start:   time.Now(),
	}
}

// Register binds a rank living on the given node to its worker pool and
// its owned core count. Must be called before the rank communicates.
func (d *DLB) Register(rank, node int, pool Resizable, ownedCores int) error {
	if ownedCores < 1 {
		return fmt.Errorf("dlb: rank %d must own at least one core", rank)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.ranks[rank]; dup {
		return fmt.Errorf("dlb: rank %d registered twice", rank)
	}
	ns := d.nodes[node]
	if ns == nil {
		ns = &nodeState{}
		d.nodes[node] = ns
	}
	p := &procState{rank: rank, node: ns, pool: pool, owned: ownedCores}
	ns.procs = append(ns.procs, p)
	d.ranks[rank] = p
	return nil
}

// IntoBlockingCall implements the PMPI hook and does nothing: a rank
// entering a blocking call may still be satisfied while it spins, holding
// its core the whole time. DLB lends in IntoPark instead.
func (d *DLB) IntoBlockingCall(int) {}

// OutOfBlockingCall implements the PMPI hook and does nothing; a parked
// call has already reclaimed its cores in OutOfPark.
func (d *DLB) OutOfBlockingCall(int) {}

// IntoPark implements simmpi.ParkHooks: the rank gave up spinning and
// parks, so its cores become lendable (LeWI).
func (d *DLB) IntoPark(rank int) {
	if !d.enabled {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.ranks[rank]
	if p == nil || p.blocked {
		return
	}
	p.blocked = true
	d.stats.Lends++
	d.rebalanceLocked(p.node)
}

// OutOfPark implements simmpi.ParkHooks: the parked call completed, so
// the rank reclaims its owned cores.
func (d *DLB) OutOfPark(rank int) {
	if !d.enabled {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.ranks[rank]
	if p == nil || !p.blocked {
		return
	}
	p.blocked = false
	d.stats.Reclaims++
	d.rebalanceLocked(p.node)
}

// rebalanceLocked recomputes the core assignment of one node: every
// active (non-blocked) process keeps its owned cores and the owned cores
// of blocked processes are distributed round-robin among the active ones.
// The recomputation is idempotent, so it can run on every transition,
// and allocation-free: the active list lives in the node's scratch.
func (d *DLB) rebalanceLocked(ns *nodeState) {
	lendPot := 0
	active := ns.active[:0]
	for _, p := range ns.procs {
		if p.blocked {
			lendPot += p.owned
		} else {
			active = append(active, p)
		}
	}
	ns.active = active
	if len(active) == 0 {
		// Everyone blocked: nothing to lend to; restore owners.
		for _, p := range ns.procs {
			d.setTargetLocked(p, p.owned)
		}
		return
	}
	share := lendPot / len(active)
	rem := lendPot % len(active)
	for i, p := range active {
		extra := share
		if i < rem {
			extra++
		}
		target := p.owned + extra
		d.setTargetLocked(p, target)
		if w := p.pool.Workers(); w > d.stats.PeakWorkers[p.rank] {
			d.stats.PeakWorkers[p.rank] = w
		}
	}
	// Blocked processes fall back to a single (idle) worker slot so any
	// straggler tasks still drain.
	for _, p := range ns.procs {
		if p.blocked {
			d.setTargetLocked(p, 1)
		}
	}
}

// Snapshot returns a copy of the activity counters.
func (d *DLB) Snapshot() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := Stats{
		Lends:       d.stats.Lends,
		Reclaims:    d.stats.Reclaims,
		PeakWorkers: make(map[int]int, len(d.stats.PeakWorkers)),
	}
	for k, v := range d.stats.PeakWorkers {
		out.PeakWorkers[k] = v
	}
	return out
}

// Migrations returns a copy of the effective worker-migration log, in
// the order the resizes happened.
func (d *DLB) Migrations() []Migration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Migration(nil), d.migs...)
}

// RestoreTarget pushes a checkpointed worker target back onto a rank's
// pool through DLB's own bookkeeping, so a resumed run restarts from the
// allocation it was killed with instead of the registration default. It
// is best-effort state — the next rebalance may move the target again —
// and is not logged as a migration (it is a restore, not a decision).
func (d *DLB) RestoreTarget(rank, workers int) {
	if workers < 1 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if p := d.ranks[rank]; p != nil {
		p.setTarget(workers)
	}
}

// WorkersOf reports the current worker target of a rank's pool (testing
// and tracing aid).
func (d *DLB) WorkersOf(rank int) int {
	d.mu.Lock()
	p := d.ranks[rank]
	d.mu.Unlock()
	if p == nil {
		return 0
	}
	return p.pool.Workers()
}
