// Package service turns the scenario registry into a long-running
// HTTP/JSON job server: submissions become jobs placed by a bounded
// cost/capacity scheduler, identical concurrent submissions share one
// underlying run through an expiring single-flight artifact cache, and
// job contexts thread cancellation down to the simulation step loop.
//
// The capacity model mirrors the paper's cluster-saturation concern:
// each scenario carries a cost estimate (ranks x steps x mesh
// generations for measured runs, nominal for modeled figures), the
// scheduler admits runs while their summed cost fits the configured
// capacity, excess jobs queue FIFO, and an explicit queue-depth limit
// rejects further submissions (HTTP 429) instead of oversubscribing the
// process.
package service

import (
	"context"
	"errors"
	"sync"
)

// ErrQueueFull is returned by Enqueue when the scheduler already holds
// the configured maximum of not-yet-admitted jobs. The server maps it to
// HTTP 429.
var ErrQueueFull = errors.New("service: job queue is full")

// Scheduler is a bounded cost/capacity admission controller. Jobs
// reserve a queue slot synchronously at submission (Enqueue) and acquire
// run capacity asynchronously (Ticket.Acquire) in strict FIFO order: a
// large job at the head is never starved by smaller jobs behind it.
type Scheduler struct {
	mu       sync.Mutex
	capacity int64 // total cost units running jobs may hold
	maxQueue int   // max tickets issued but not yet admitted
	used     int64 // cost units held by running tickets
	running  int   // tickets holding cost units
	queued   int   // tickets issued, not admitted, not done
	fifo     []*Ticket
}

// NewScheduler returns a scheduler admitting up to capacity cost units
// concurrently and holding at most maxQueue not-yet-admitted jobs.
// capacity < 1 is raised to 1; maxQueue < 0 is treated as 0 (admit-or-
// reject, no queueing).
func NewScheduler(capacity int64, maxQueue int) *Scheduler {
	if capacity < 1 {
		capacity = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Scheduler{capacity: capacity, maxQueue: maxQueue}
}

// ticketState tracks a ticket through its lifecycle.
type ticketState uint8

const (
	ticketParked  ticketState = iota // issued, Acquire not yet called
	ticketWaiting                    // in the FIFO, waiting for capacity
	ticketRunning                    // holding cost units
	ticketDone                       // released
)

// Ticket is one job's admission handle. The holder must call Done
// exactly when the job is finished with the scheduler — whether or not
// Acquire was ever called (a deduplicated job waits on another job's run
// and releases its queue slot without acquiring capacity).
type Ticket struct {
	s        *Scheduler
	cost     int64
	state    ticketState
	admitted chan struct{} // closed on admission
}

// Enqueue reserves the job's place synchronously, so an HTTP handler can
// reject with 429 before acknowledging the job: when the cost fits into
// free capacity and nobody is ahead, the ticket is admitted on the spot
// (Acquire returns immediately); otherwise it takes a queue slot,
// failing with ErrQueueFull when maxQueue jobs are already waiting.
// Costs above the total capacity are clamped so an oversized job still
// runs (alone) instead of jamming the queue forever.
func (s *Scheduler) Enqueue(cost int64) (*Ticket, error) {
	if cost < 1 {
		cost = 1
	}
	if cost > s.capacity {
		cost = s.capacity
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &Ticket{s: s, cost: cost, admitted: make(chan struct{})}
	if s.queued == 0 && s.used+cost <= s.capacity {
		t.state = ticketRunning
		s.used += cost
		s.running++
		close(t.admitted)
		return t, nil
	}
	if s.queued >= s.maxQueue {
		return nil, ErrQueueFull
	}
	s.queued++
	return t, nil
}

// Acquire blocks until the ticket is admitted (its cost fits into free
// capacity and every earlier waiter was admitted first) or ctx is done.
// A cancelled waiter leaves the FIFO; its queue slot stays reserved
// until Done. If admission and cancellation race, the admission wins —
// the caller's own run observes the cancellation at its next boundary.
func (t *Ticket) Acquire(ctx context.Context) error {
	t.s.mu.Lock()
	switch t.state {
	case ticketRunning: // admitted synchronously at Enqueue
		t.s.mu.Unlock()
		return nil
	case ticketParked:
	default:
		t.s.mu.Unlock()
		return errors.New("service: ticket acquired twice")
	}
	t.state = ticketWaiting
	t.s.fifo = append(t.s.fifo, t)
	t.s.admitLocked()
	t.s.mu.Unlock()

	select {
	case <-t.admitted:
		return nil
	case <-ctx.Done():
		t.s.mu.Lock()
		defer t.s.mu.Unlock()
		if t.state == ticketRunning {
			return nil // admitted while cancelling; let the run observe ctx
		}
		t.removeLocked()
		t.state = ticketParked
		// A cancelled head may have been the only thing blocking smaller
		// waiters behind it.
		t.s.admitLocked()
		return ctx.Err()
	}
}

// Done releases whatever the ticket still holds — cost units if it was
// admitted, its queue slot otherwise — and admits now-runnable waiters.
// Done is idempotent.
func (t *Ticket) Done() {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	switch t.state {
	case ticketDone:
		return
	case ticketRunning:
		t.s.used -= t.cost
		t.s.running--
	default: // parked or waiting: still counted as queued
		t.removeLocked()
		t.s.queued--
	}
	t.state = ticketDone
	t.s.admitLocked()
}

// Stats is a point-in-time snapshot of the scheduler's occupancy.
type Stats struct {
	Capacity int64 // configured cost capacity
	UsedCost int64 // cost units held by running jobs
	Running  int   // jobs holding capacity
	Queued   int   // jobs issued but not yet admitted (parked + waiting)
	Waiting  int   // jobs blocked in Acquire
}

// Stats reports current occupancy (for tests, logs, and ops endpoints).
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Capacity: s.capacity,
		UsedCost: s.used,
		Running:  s.running,
		Queued:   s.queued,
		Waiting:  len(s.fifo),
	}
}

// admitLocked admits waiters from the FIFO head while their cost fits.
// Strict FIFO: if the head does not fit, nothing behind it is admitted
// (no starvation of large jobs). Called with s.mu held.
func (s *Scheduler) admitLocked() {
	for len(s.fifo) > 0 && s.used+s.fifo[0].cost <= s.capacity {
		t := s.fifo[0]
		copy(s.fifo, s.fifo[1:])
		s.fifo = s.fifo[:len(s.fifo)-1]
		t.state = ticketRunning
		s.used += t.cost
		s.queued--
		s.running++
		close(t.admitted)
	}
}

// removeLocked drops t from the FIFO if present. Called with s.mu held.
func (t *Ticket) removeLocked() {
	for i, w := range t.s.fifo {
		if w == t {
			copy(t.s.fifo[i:], t.s.fifo[i+1:])
			t.s.fifo = t.s.fifo[:len(t.s.fifo)-1]
			return
		}
	}
}
