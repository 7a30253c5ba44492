package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/tasking"
)

// Event is one progress notification from a Runner: a scenario started
// (Done == false) or finished (Done == true, with its error and elapsed
// wall time). Index is the scenario's position in the input selection.
type Event struct {
	Index    int
	Total    int
	Scenario string
	Done     bool
	Err      error
	Elapsed  time.Duration
}

// Result is one scenario's outcome. Results keep the input order
// regardless of how many scenarios ran concurrently.
type Result struct {
	Scenario string
	Artifact *Artifact
	Err      error
	Elapsed  time.Duration
}

// Runner executes a selected set of scenarios, optionally concurrently
// over a worker pool. Ordering of the returned results is deterministic
// (input order); completion order is not.
type Runner struct {
	// Parallel is the number of scenarios in flight at once (<= 1 runs
	// them serially on the calling goroutine).
	Parallel int
	// Progress, when set, receives start and finish events. Calls are
	// serialized; the callback must not invoke the Runner.
	Progress func(Event)
}

// Run executes scs with shared params p. A ctx cancellation stops
// scenarios at their next step boundary and marks not-yet-started ones
// with ctx.Err(); Run itself returns nil error unless the cancellation
// actually interrupted the batch (at least one result carries ctx's
// error — a cancel that lands after every scenario finished, e.g. a
// server's deferred cancel, must not spoil a complete result set).
func (r *Runner) Run(ctx context.Context, scs []Scenario, p Params) ([]Result, error) {
	results := make([]Result, len(scs))
	var mu sync.Mutex
	emit := func(ev Event) {
		if r.Progress == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		r.Progress(ev)
	}
	runOne := func(i int) {
		s := scs[i]
		res := Result{Scenario: s.Name()}
		if err := ctx.Err(); err != nil {
			res.Err = err
			results[i] = res
			return
		}
		emit(Event{Index: i, Total: len(scs), Scenario: s.Name()})
		start := time.Now()
		art, err := s.Run(ctx, p)
		res.Elapsed = time.Since(start)
		if err != nil {
			res.Err = fmt.Errorf("scenario %s: %w", s.Name(), err)
		} else if art == nil {
			res.Err = fmt.Errorf("scenario %s: returned no artifact", s.Name())
		} else {
			res.Artifact = art
		}
		results[i] = res
		emit(Event{Index: i, Total: len(scs), Scenario: s.Name(), Done: true,
			Err: res.Err, Elapsed: res.Elapsed})
	}

	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			runOne(i)
		}
	}
	if len(scs) <= 1 || r.Parallel <= 1 {
		body(0, len(scs))
	} else {
		// The pool's ParallelFor with grain 1 hands each scenario to one
		// puller; the caller participates, so Parallel counts it.
		workers := r.Parallel - 1
		pool := tasking.NewPool(workers)
		defer pool.Close()
		pool.ParallelFor(len(scs), 1, body)
	}
	// Report cancellation only when it had an effect: a ctx that was
	// cancelled after the last scenario completed leaves no result marked
	// with its error, and the full result set stands.
	if err := ctx.Err(); err != nil {
		for i := range results {
			if errors.Is(results[i].Err, err) {
				return results, err
			}
		}
	}
	return results, nil
}
