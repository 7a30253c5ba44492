// Fault injection and the blocking-operation watchdog.
//
// A FaultPlan is a seeded, deterministic script of communication faults
// — delay, drop, or error a specific rank's send/recv/collective at a
// specific step — installed on a World through the same Option seam the
// DLB hooks use. It exists so the failure paths of everything built on
// simmpi can be exercised on purpose. An injected error aborts the world
// like any rank error (see World.Run); a dropped message is
// indistinguishable from a lost rank, and without a watchdog the peer
// blocks forever exactly as a real MPI process would.
//
// The watchdog (WithWatchdog) puts a deadline on every blocking
// operation, so it only bounds a message that is truly lost. A rank that
// waits past the deadline panics with a typed *ErrRankStalled carrying
// its rank, the tag it was waiting on, and the application step (see
// Rank.SetStep). A point-to-point stall aborts the world and is its
// cause; a collective stall is usually collateral and does not abort.
package simmpi

import "time"

// CollectiveTag is the pseudo-tag reported for stalls and faults inside
// collective operations, which carry no application tag.
const CollectiveTag = -1

// ErrRankStalled reports a blocking operation that exceeded the world's
// watchdog deadline: the rank was waiting for a message (Tag >= 0) or a
// collective (Tag == CollectiveTag) that never completed.
type ErrRankStalled struct {
	Rank int // global rank that stalled
	Tag  int // message tag, or CollectiveTag
	Step int // application step last set via Rank.SetStep
}

func (e *ErrRankStalled) Error() string {
	if e.Tag == CollectiveTag {
		return "simmpi: rank " + itoa(e.Rank) + " stalled in collective at step " + itoa(e.Step) + " (watchdog expired)"
	}
	return "simmpi: rank " + itoa(e.Rank) + " stalled waiting on tag " + itoa(e.Tag) + " at step " + itoa(e.Step) + " (watchdog expired)"
}

// FaultError reports an injected FaultErr action firing.
type FaultError struct {
	Rank int
	Op   FaultOp
	Tag  int
	Step int
}

func (e *FaultError) Error() string {
	return "simmpi: rank " + itoa(e.Rank) + " injected " + e.Op.String() + " fault at step " + itoa(e.Step)
}

// itoa is a minimal strconv.Itoa so the error paths need no extra
// imports; fault errors are far off any hot path.
func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

// FaultOp identifies the operation class a fault rule matches.
type FaultOp uint8

// Operation classes.
const (
	FaultSend FaultOp = iota
	FaultRecv
	FaultCollective
)

func (op FaultOp) String() string {
	switch op {
	case FaultSend:
		return "send"
	case FaultRecv:
		return "recv"
	default:
		return "collective"
	}
}

// FaultAction is what a matched rule does to the operation.
type FaultAction uint8

// Actions.
const (
	// FaultDelay sleeps Delay before the operation proceeds normally.
	// It perturbs wall-clock scheduling only; virtual-time results are
	// unchanged (the determinism contract).
	FaultDelay FaultAction = iota
	// FaultDrop loses the operation: a dropped send is never delivered,
	// a dropped recv discards the message it matched and keeps waiting,
	// and a dropped collective simulates a dead rank (it never arrives,
	// stalling every participant). With a watchdog installed each case
	// surfaces as ErrRankStalled instead of a hang.
	FaultDrop
	// FaultErr makes the operation panic with a typed *FaultError,
	// modelling a rank crash at a precise point.
	FaultErr
)

// FaultRule matches one class of operation on one (or any) rank at one
// (or any) step. The first matching rule in the plan wins.
type FaultRule struct {
	Rank   int // acting global rank; -1 matches any
	Op     FaultOp
	Tag    int // message tag; -1 matches any (ignored for collectives)
	Step   int // application step (Rank.SetStep); -1 matches any
	Nth    int // 1-based occurrence among this rule's matches per rank; 0 = every
	Action FaultAction
	Delay  time.Duration // FaultDelay only
}

// FaultPlan is a deterministic fault script. Rules fire on exact
// matches; DropRate additionally drops each send with the given
// probability, decided by a counter-based hash of (Seed, rank, send
// sequence) so the outcome is a pure function of the plan and the
// communication pattern — independent of goroutine scheduling.
type FaultPlan struct {
	Seed     int64
	DropRate float64
	Rules    []FaultRule
}

// WithFaultPlan installs a fault plan on the world.
func WithFaultPlan(p *FaultPlan) Option {
	return func(w *World) { w.faults = p }
}

// WithWatchdog bounds every blocking operation (recv and collectives) to
// d: a rank still waiting after d panics with *ErrRankStalled, which
// World.Run returns as a typed error. Zero disables the watchdog.
//
// The deadline is per operation, so it bounds detection latency of a
// lost peer, not total run time. The timer is armed only when a wait
// actually parks (after its spin budget, see World.spinOK), so a wait
// satisfied while spinning allocates nothing; worlds without a watchdog
// keep the zero-alloc steady state on every path.
func WithWatchdog(d time.Duration) Option {
	return func(w *World) { w.watchdog = d }
}

// SetStep records the application's current step for this rank; fault
// rules match against it and stall errors report it. Coupling's step
// loops call it once per iteration. Once the world has aborted it panics
// with abortEcho instead: a rank still computing stops there.
func (r *Rank) SetStep(step int) {
	if r.world.aborted.Load() {
		panic(abortEcho{})
	}
	r.world.steps[r.rank] = step
}

// stepOf reports the last step set by the rank's own goroutine.
func (w *World) stepOf(rank int) int { return w.steps[rank] }

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultHash maps (seed, rank, seq) to a uniform [0,1) decision value.
func faultHash(seed int64, rank int, seq int64) float64 {
	x := mix64(uint64(seed) ^ mix64(uint64(rank)) ^ uint64(seq))
	return float64(x>>11) / float64(1<<53)
}

// faultFor decides whether op on rank (with tag) triggers a fault, and
// which. It runs on the rank's own goroutine: the per-rank counters it
// touches are never shared.
func (w *World) faultFor(op FaultOp, rank, tag int) (FaultAction, time.Duration, bool) {
	p := w.faults
	if p == nil {
		return 0, 0, false
	}
	step := w.steps[rank]
	if op == FaultSend && p.DropRate > 0 {
		seq := w.sendSeq[rank]
		w.sendSeq[rank]++
		if faultHash(p.Seed, rank, seq) < p.DropRate {
			return FaultDrop, 0, true
		}
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Op != op {
			continue
		}
		if r.Rank >= 0 && r.Rank != rank {
			continue
		}
		if op != FaultCollective && r.Tag >= 0 && r.Tag != tag {
			continue
		}
		if r.Step >= 0 && r.Step != step {
			continue
		}
		w.faultHits[i][rank]++
		if r.Nth > 0 && w.faultHits[i][rank] != r.Nth {
			continue
		}
		return r.Action, r.Delay, true
	}
	return 0, 0, false
}
