package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunnerDeterministicOrdering: results keep the input order at any
// parallelism, even when earlier scenarios finish last.
func TestRunnerDeterministicOrdering(t *testing.T) {
	const n = 8
	var scs []Scenario
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		delay := time.Duration(n-i) * time.Millisecond // first input finishes last
		scs = append(scs, New(name, "", nil, func(ctx context.Context, p Params) (*Artifact, error) {
			time.Sleep(delay)
			return &Artifact{Scenario: name, Kind: KindReport, Report: name + "\n"}, nil
		}))
	}
	for _, parallel := range []int{1, 4} {
		r := Runner{Parallel: parallel}
		results, err := r.Run(context.Background(), scs, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != n {
			t.Fatalf("parallel=%d: %d results", parallel, len(results))
		}
		for i, res := range results {
			want := fmt.Sprintf("s%d", i)
			if res.Scenario != want || res.Artifact == nil || res.Artifact.Scenario != want {
				t.Fatalf("parallel=%d: slot %d holds %q, want %q", parallel, i, res.Scenario, want)
			}
		}
	}
}

// TestRunnerProgressEvents: one start and one finish event per scenario,
// with errors attached to the finish event.
func TestRunnerProgressEvents(t *testing.T) {
	boom := errors.New("boom")
	scs := []Scenario{
		stub("ok"),
		New("bad", "", nil, func(ctx context.Context, p Params) (*Artifact, error) {
			return nil, boom
		}),
	}
	var events []Event
	r := Runner{Parallel: 2, Progress: func(ev Event) { events = append(events, ev) }}
	results, err := r.Run(context.Background(), scs, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("%d events, want 4 (start+finish per scenario)", len(events))
	}
	starts, finishes := 0, 0
	for _, ev := range events {
		if ev.Total != 2 {
			t.Fatalf("event total %d", ev.Total)
		}
		if ev.Done {
			finishes++
			if ev.Scenario == "bad" && !errors.Is(ev.Err, boom) {
				t.Fatalf("bad finish event err = %v", ev.Err)
			}
		} else {
			starts++
		}
	}
	if starts != 2 || finishes != 2 {
		t.Fatalf("starts=%d finishes=%d", starts, finishes)
	}
	if results[1].Err == nil || !errors.Is(results[1].Err, boom) {
		t.Fatalf("result err = %v", results[1].Err)
	}
	if results[0].Err != nil || results[0].Artifact == nil {
		t.Fatal("failure of one scenario must not affect the others")
	}
}

// TestRunnerCancellation: scenarios not yet started when ctx is
// cancelled are marked with ctx.Err(); Run reports it.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	scs := []Scenario{
		New("first", "", nil, func(ctx context.Context, p Params) (*Artifact, error) {
			ran.Add(1)
			cancel() // cancel while the first scenario is "running"
			return &Artifact{Scenario: "first", Kind: KindReport, Report: "x\n"}, nil
		}),
		stub("second"),
		stub("third"),
	}
	r := Runner{} // serial: deterministic which scenario observes the cancel
	results, err := r.Run(ctx, scs, Params{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want Canceled", err)
	}
	if ran.Load() != 1 {
		t.Fatalf("ran %d scenarios, want 1", ran.Load())
	}
	if results[0].Err != nil {
		t.Fatal("in-flight scenario completed before the cancel was observed; its result must stand")
	}
	for _, res := range results[1:] {
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("%s err = %v, want Canceled", res.Scenario, res.Err)
		}
	}
}

// TestRunnerLateCancelDoesNotSpoilSuccess: a cancellation that lands
// after every scenario already finished (the natural server pattern —
// Run succeeds, then a deferred cancel fires while Run is returning)
// must not turn a complete result set into an error.
func TestRunnerLateCancelDoesNotSpoilSuccess(t *testing.T) {
	for _, parallel := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		// The last scenario body to finish cancels: by then every
		// scenario has passed its pre-run ctx check and none consults
		// ctx again, so all results are recorded successfully and the
		// cancellation is visible only to Run's final error report.
		// Deterministic at any parallelism.
		const n = 3
		var remaining atomic.Int32
		remaining.Store(n)
		var scs []Scenario
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("s%d", i)
			scs = append(scs, New(name, "", nil, func(ctx context.Context, p Params) (*Artifact, error) {
				if remaining.Add(-1) == 0 {
					cancel()
				}
				return &Artifact{Scenario: name, Kind: KindReport, Report: "x\n"}, nil
			}))
		}
		r := Runner{Parallel: parallel}
		results, err := r.Run(ctx, scs, Params{})
		if err != nil {
			t.Fatalf("parallel=%d: Run returned %v for a fully successful batch", parallel, err)
		}
		for _, res := range results {
			if res.Err != nil || res.Artifact == nil {
				t.Fatalf("parallel=%d: %s: err=%v", parallel, res.Scenario, res.Err)
			}
		}
		cancel()
	}
}

// TestRunnerNilArtifact: a scenario returning (nil, nil) is an error,
// not a nil dereference later.
func TestRunnerNilArtifact(t *testing.T) {
	scs := []Scenario{New("empty", "", nil, func(ctx context.Context, p Params) (*Artifact, error) {
		return nil, nil
	})}
	r := Runner{}
	results, err := r.Run(context.Background(), scs, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("nil artifact must be reported as an error")
	}
}
