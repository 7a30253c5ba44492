package tasking

import (
	"fmt"
	"sync"
)

// The fresh task-graph executor: the pre-compilation runtime, kept as the
// oracle the CompiledGraph is pinned against and as the "fresh" side of
// BenchmarkAssembleMultidep.

// Run executes the graph on pool and blocks until every task completed.
// It returns an error if a task panicked or if the dependences are
// unsatisfiable (which cannot happen for graphs built through Add, whose
// edges always point forward in submission order).
func (tg *TaskGraph) Run(pool *Pool) error {
	n := len(tg.tasks)
	if n == 0 {
		return nil
	}
	tg.buildEdges()

	var (
		mu        sync.Mutex
		keyBusy   = make(map[any]int32) // key -> running holder (+1 offset)
		doneCount int
		firstErr  error
		done      = make(chan struct{})
		blocked   []int32
	)

	canAcquire := func(t *task) bool {
		for _, k := range t.mutexKeys {
			if keyBusy[k] != 0 {
				return false
			}
		}
		return true
	}
	acquire := func(t *task) {
		for _, k := range t.mutexKeys {
			keyBusy[k] = t.id + 1
		}
	}
	release := func(t *task) {
		for _, k := range t.mutexKeys {
			delete(keyBusy, k)
		}
	}

	var launch func(t *task) // forward declaration; submits t to the pool
	// tryStart must be called with mu held; it starts every startable
	// blocked task.
	tryStart := func() {
		for i := 0; i < len(blocked); {
			t := tg.tasks[blocked[i]]
			if t.preds == 0 && canAcquire(t) {
				acquire(t)
				blocked[i] = blocked[len(blocked)-1]
				blocked = blocked[:len(blocked)-1]
				launch(t)
				continue
			}
			i++
		}
	}

	launch = func(t *task) {
		pool.Submit(func() {
			panicked := true
			defer func() {
				if panicked {
					r := recover()
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("tasking: task %q panicked: %v", tg.taskName(int(t.id)), r)
					}
					mu.Unlock()
				}
				mu.Lock()
				release(t)
				for _, s := range t.succs {
					tg.tasks[s].preds--
				}
				doneCount++
				finished := doneCount == n
				tryStart()
				mu.Unlock()
				if finished {
					close(done)
				}
			}()
			t.fn()
			panicked = false
		})
	}

	mu.Lock()
	for _, t := range tg.tasks {
		blocked = append(blocked, t.id)
	}
	tryStart()
	mu.Unlock()

	<-done
	mu.Lock()
	err := firstErr
	mu.Unlock()
	return err
}

// taskName resolves the display name of task i: the eager name if one
// was given, then NameFn, then a positional fallback. Called only on
// error paths.
func (tg *TaskGraph) taskName(i int) string {
	if n := tg.tasks[i].name; n != "" {
		return n
	}
	if tg.NameFn != nil {
		return tg.NameFn(i)
	}
	return fmt.Sprintf("task-%d", i)
}

// TaskGraph builds the uncompiled task-graph front-end for a multidep
// plan: one task per subdomain whose mutexinoutset dependences come from
// the runtime iterator over the subdomain adjacency, capturing kernel
// and scatter directly. Every call builds a fresh graph: the reference
// for the compiled-vs-fresh equivalence tests and A/B benchmarks.
func (plan *AssemblyPlan) TaskGraph(kernel Kernel, plain *Scatter) *TaskGraph {
	tg := &TaskGraph{NameFn: subdomainName}
	for s := 0; s < plan.NumSub; s++ {
		elems := plan.subElems[s]
		tg.Add("", plan.mutexDeps(s), func() {
			for _, e := range elems {
				kernel(int(e), plain)
			}
		})
	}
	return tg
}
