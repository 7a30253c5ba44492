package tasking

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// MutexKeys returns the mutexinoutset key set of every subdomain task as
// a CSR over dense key indices, plus the number of keys. KeyNeighbors
// gives task s the keys {s} ∪ adj(s) (key k names subdomain k); KeyEdges
// gives it one key per incident adjacency edge, shared with the task at
// the edge's other end. Two tasks exclude each other iff their key sets
// intersect. This is the only place the keying rule lives: the runner
// acquires these sets and perfmodel derives its conflict graph from them.
func MutexKeys(adj *graph.CSR, keying MutexKeying) (*graph.CSR, int) {
	n := adj.NumVertices()
	keys := &graph.CSR{Ptr: make([]int32, n+1)}
	if keying != KeyEdges {
		keys.Adj = make([]int32, 0, n+len(adj.Adj))
		for s := 0; s < n; s++ {
			keys.Adj = append(append(keys.Adj, int32(s)), adj.Neighbors(s)...)
			keys.Ptr[s+1] = int32(len(keys.Adj))
		}
		return keys, n
	}
	// Edge {s, t} with s < t gets a fresh key at t's slot in row s; row t
	// copies it from there. A self loop or a one-sided entry gets a key of
	// its own, which excludes nothing.
	keys.Adj = make([]int32, len(adj.Adj))
	nkeys := int32(0)
	for s := 0; s < n; s++ {
		for p := adj.Ptr[s]; p < adj.Ptr[s+1]; p++ {
			keys.Adj[p] = -1
			if t := int(adj.Adj[p]); t < s {
				for q := adj.Ptr[t]; q < adj.Ptr[t+1]; q++ {
					if int(adj.Adj[q]) == s {
						keys.Adj[p] = keys.Adj[q]
						break
					}
				}
			}
			if keys.Adj[p] < 0 {
				keys.Adj[p] = nkeys
				nkeys++
			}
		}
		keys.Ptr[s+1] = adj.Ptr[s+1]
	}
	return keys, int(nkeys)
}

// mutexRunner executes a multidep plan: task s walks subdomain s's
// elements while holding every key of its MutexKeys set. Everything that
// does not change between steps — the key sets, the element lists, one
// submit closure per task and the run state — is built once per plan, so
// a steady-state run performs zero heap allocations: the OmpSs runtime
// the paper's multidependences strategy relies on keeps its task
// metadata out of the per-step path, and this is the Go analogue.
//
// Runs must not overlap: one runner models one rank's assembly phase,
// executed once per time step.
type mutexRunner struct {
	keys    *graph.CSR // task -> dense key indices
	elems   [][]int32  // elements per task, ascending
	submits []func()   // prebuilt pool.Submit closures, one per task

	// Argument slots the task bodies read; set by run around the
	// parallel section, never while one is in flight.
	kernel Kernel
	plain  *Scatter

	// Reusable run state, reset at the top of every run.
	mu        sync.Mutex
	done      sync.Cond // run waits here for the last task
	pool      *Pool
	busy      []bool  // key held by a running task
	blocked   []int32 // not-yet-started tasks
	doneCount int
	firstErr  error
	running   bool
}

func newMutexRunner(adj *graph.CSR, keying MutexKeying, subElems [][]int32) *mutexRunner {
	keys, nkeys := MutexKeys(adj, keying)
	n := len(subElems)
	r := &mutexRunner{
		keys:    keys,
		elems:   subElems,
		submits: make([]func(), n),
		busy:    make([]bool, nkeys),
		blocked: make([]int32, 0, n),
	}
	r.done.L = &r.mu
	for i := range r.submits {
		s := int32(i)
		r.submits[i] = func() { r.runTask(s) }
	}
	return r
}

// run executes every task on pool with kernel and plain in the argument
// slots and blocks until the last one finished. It returns the first
// task panic as an error. A second run entered while one is in flight
// panics.
func (r *mutexRunner) run(pool *Pool, kernel Kernel, plain *Scatter) error {
	n := len(r.submits)
	if n == 0 {
		return nil
	}
	r.mu.Lock()
	if r.running {
		r.mu.Unlock()
		panic("tasking: multidep run while a run is in flight")
	}
	r.running = true
	r.pool, r.kernel, r.plain = pool, kernel, plain
	clear(r.busy)
	r.doneCount = 0
	r.firstErr = nil
	r.blocked = r.blocked[:0]
	for s := 0; s < n; s++ {
		r.blocked = append(r.blocked, int32(s))
	}
	r.tryStart()
	for r.doneCount != n {
		r.done.Wait()
	}
	err := r.firstErr
	r.running = false
	r.pool, r.kernel, r.plain = nil, nil, nil
	r.mu.Unlock()
	return err
}

// tryStart launches every blocked task whose keys are all free (mu
// held). It walks the blocked list forward and swap-removes each task it
// starts; on a one-worker pool, where submission order is execution
// order, this fixes the order in which conflicting scatters accumulate,
// so the scan must not change without re-pinning the goldens.
func (r *mutexRunner) tryStart() {
	for i := 0; i < len(r.blocked); {
		t := r.blocked[i]
		if r.canAcquire(t) {
			r.setKeys(t, true)
			r.blocked[i] = r.blocked[len(r.blocked)-1]
			r.blocked = r.blocked[:len(r.blocked)-1]
			r.pool.Submit(r.submits[t])
			continue
		}
		i++
	}
}

// canAcquire reports whether every key of task t is free (mu held).
func (r *mutexRunner) canAcquire(t int32) bool {
	for _, k := range r.keys.Neighbors(int(t)) {
		if r.busy[k] {
			return false
		}
	}
	return true
}

// setKeys marks every key of task t held or free (mu held).
func (r *mutexRunner) setKeys(t int32, held bool) {
	for _, k := range r.keys.Neighbors(int(t)) {
		r.busy[k] = held
	}
}

// runTask is the body of task s's prebuilt submit closure.
func (r *mutexRunner) runTask(s int32) {
	panicked := true
	defer func() {
		var rec any
		if panicked {
			rec = recover()
		}
		r.mu.Lock()
		if panicked && r.firstErr == nil {
			// Formatted only here: the hot path builds no names.
			r.firstErr = fmt.Errorf("tasking: task \"subdomain-%d\" panicked: %v", s, rec)
		}
		r.setKeys(s, false)
		r.doneCount++
		r.tryStart()
		if r.doneCount == len(r.submits) {
			r.done.Broadcast()
		}
		r.mu.Unlock()
	}()
	k, sc := r.kernel, r.plain
	for _, e := range r.elems[s] {
		k(int(e), sc)
	}
	panicked = false
}
