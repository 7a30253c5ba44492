package tasking

import "fmt"

// DepType classifies a task dependence, mirroring OpenMP's depend clause.
type DepType uint8

// Dependence types. Mutexinoutset is the OpenMP 5.0 addition the paper
// evaluates: tasks holding a mutexinoutset dependence on the same key may
// run in either order but never concurrently.
const (
	In DepType = iota
	Out
	Inout
	Mutexinoutset
)

// String names the dependence type using OpenMP vocabulary.
func (d DepType) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case Inout:
		return "inout"
	case Mutexinoutset:
		return "mutexinoutset"
	}
	return fmt.Sprintf("DepType(%d)", uint8(d))
}

// Dep is one dependence on a storage region identified by Key. Keys are
// compared with ==; any comparable value works (ints for subdomain ids,
// strings for named fields, ...).
type Dep struct {
	Type DepType
	Key  any
}

// DepsFromIterator collects dependence keys produced by iter into a
// dependence list of type t. This is the Go rendering of the OpenMP 5.0
// dependence iterator (`depend(iterator(i=0:n), mutexinoutset: x[nb[i]])`)
// used by the multidependences strategy: the number of dependences is
// decided at run time, not compile time.
func DepsFromIterator(t DepType, iter func(yield func(key any))) []Dep {
	var deps []Dep
	iter(func(key any) { deps = append(deps, Dep{Type: t, Key: key}) })
	return deps
}

type task struct {
	name      string
	fn        func()
	deps      []Dep
	preds     int     // unresolved ordering predecessors
	succs     []int32 // ordering successors
	mutexKeys []any   // keys this task must hold exclusively while running
	id        int32
}

// TaskGraph accumulates tasks with dependences and executes them on a
// Pool respecting ordering (in/out/inout) and mutual exclusion
// (mutexinoutset) semantics once frozen with Compile; the CompiledGraph
// is what runs, and reruns, over the same structure.
type TaskGraph struct {
	tasks []*task

	// NameFn, when set, names task i lazily for error messages. Tasks
	// added with an empty name are formatted through it only on the
	// panic path, so the hot path never builds name strings.
	NameFn func(i int) string

	edgesBuilt bool
}

// keyState tracks, per key, the tasks relevant for edge construction.
type keyState struct {
	lastWriter   int32   // last out/inout task, -1 if none
	readers      []int32 // in-tasks since last writer
	mutexWriters []int32 // mutexinoutset tasks since last writer
}

// Add registers a task with the given dependences. Tasks are ordered
// against previously added tasks exactly as OpenMP sibling tasks are
// ordered by their depend clauses.
func (tg *TaskGraph) Add(name string, deps []Dep, fn func()) {
	t := &task{name: name, fn: fn, deps: deps, id: int32(len(tg.tasks))}
	for _, d := range deps {
		if d.Type == Mutexinoutset {
			t.mutexKeys = append(t.mutexKeys, d.Key)
		}
	}
	tg.tasks = append(tg.tasks, t)
}

// Len reports the number of registered tasks.
func (tg *TaskGraph) Len() int { return len(tg.tasks) }

// buildEdges computes ordering edges from the dependence declarations.
// It consumes the declaration state, so a graph may be Run or Compiled
// only once (the compiled form is the reusable one).
func (tg *TaskGraph) buildEdges() {
	if tg.edgesBuilt {
		panic("tasking: TaskGraph may be Run or Compiled only once; reuse the CompiledGraph instead")
	}
	tg.edgesBuilt = true
	states := make(map[any]*keyState)
	get := func(key any) *keyState {
		s, ok := states[key]
		if !ok {
			s = &keyState{lastWriter: -1}
			states[key] = s
		}
		return s
	}
	addEdge := func(from, to int32, seen map[int32]bool) {
		if from == to || seen[from] {
			return
		}
		seen[from] = true
		tg.tasks[from].succs = append(tg.tasks[from].succs, to)
		tg.tasks[to].preds++
	}
	for _, t := range tg.tasks {
		seen := make(map[int32]bool)
		for _, d := range t.deps {
			s := get(d.Key)
			switch d.Type {
			case In:
				// Readers wait for the last writer and for any
				// mutexinoutset tasks in the current window (they write).
				if s.lastWriter >= 0 {
					addEdge(s.lastWriter, t.id, seen)
				}
				for _, m := range s.mutexWriters {
					addEdge(m, t.id, seen)
				}
				s.readers = append(s.readers, t.id)
			case Out, Inout:
				if s.lastWriter >= 0 {
					addEdge(s.lastWriter, t.id, seen)
				}
				for _, r := range s.readers {
					addEdge(r, t.id, seen)
				}
				for _, m := range s.mutexWriters {
					addEdge(m, t.id, seen)
				}
				s.lastWriter = t.id
				s.readers = s.readers[:0]
				s.mutexWriters = s.mutexWriters[:0]
			case Mutexinoutset:
				// Behaves as a writer toward ordinary readers/writers,
				// but commutes with other mutexinoutset tasks on the
				// same key (mutual exclusion is enforced at run time).
				if s.lastWriter >= 0 {
					addEdge(s.lastWriter, t.id, seen)
				}
				for _, r := range s.readers {
					addEdge(r, t.id, seen)
				}
				s.mutexWriters = append(s.mutexWriters, t.id)
			}
		}
	}
}
