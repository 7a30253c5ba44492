package perfmodel

import (
	"container/heap"

	"repro/internal/graph"
	"repro/internal/tasking"
)

// ConflictPairs derives which task pairs exclude each other under a
// mutexinoutset keying: two tasks conflict iff their tasking.MutexKeys
// sets intersect. KeyEdges conflicts exactly the adjacent pairs;
// KeyNeighbors (the paper's formulation) additionally serializes
// distance-2 pairs, whose key sets meet at the common neighbor.
func ConflictPairs(adj *graph.CSR, keying tasking.MutexKeying) *graph.CSR {
	keys, nkeys := tasking.MutexKeys(adj, keying)
	return graph.Shared(keys, graph.Transpose(keys, nkeys))
}

// eventHeap orders (time, task) completion events.
type event struct {
	t    float64
	task int32
}

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// readyHeap orders runnable tasks longest-duration-first.
type readyHeap struct {
	ids []int32
	d   []float64
}

func (h readyHeap) Len() int           { return len(h.ids) }
func (h readyHeap) Less(i, j int) bool { return h.d[h.ids[i]] > h.d[h.ids[j]] }
func (h readyHeap) Swap(i, j int)      { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *readyHeap) Push(x any)        { h.ids = append(h.ids, x.(int32)) }
func (h *readyHeap) Pop() any {
	old := h.ids
	n := len(old)
	e := old[n-1]
	h.ids = old[:n-1]
	return e
}

// ScheduleMutex simulates greedy list scheduling of tasks with the given
// durations on `workers` workers, under the constraint that conflicting
// tasks never run concurrently, and returns the makespan. Longest
// runnable task first, which approximates a work-first task runtime.
// Event-driven: each start/finish touches only the task's conflict list.
func ScheduleMutex(durations []float64, conflicts *graph.CSR, workers int) float64 {
	n := len(durations)
	if n == 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	blockedBy := make([]int32, n) // running conflicting tasks
	started := make([]bool, n)
	inReady := make([]bool, n)

	ready := &readyHeap{d: durations}
	for v := 0; v < n; v++ {
		ready.ids = append(ready.ids, int32(v))
		inReady[v] = true
	}
	heap.Init(ready)

	var done eventHeap
	now := 0.0
	free := workers
	remaining := n

	start := func(v int32) {
		started[v] = true
		free--
		for _, u := range conflicts.Neighbors(int(v)) {
			blockedBy[u]++
		}
		heap.Push(&done, event{t: now + durations[v], task: v})
	}

	// startAll pops runnable tasks while workers are free. Blocked tasks
	// popped along the way are parked and re-inserted when unblocked.
	var parked []int32
	startAll := func() {
		for free > 0 && ready.Len() > 0 {
			v := heap.Pop(ready).(int32)
			inReady[v] = false
			if started[v] {
				continue
			}
			if blockedBy[v] > 0 {
				parked = append(parked, v)
				continue
			}
			start(v)
		}
		// Re-insert parked tasks for future rounds.
		for _, v := range parked {
			if !started[v] && !inReady[v] {
				heap.Push(ready, v)
				inReady[v] = true
			}
		}
		parked = parked[:0]
	}

	startAll()
	for remaining > 0 && done.Len() > 0 {
		e := heap.Pop(&done).(event)
		now = e.t
		free++
		remaining--
		for _, u := range conflicts.Neighbors(int(e.task)) {
			blockedBy[u]--
		}
		startAll()
	}
	return now
}
