package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/scenario"
)

// testEnv is one server under httptest with controllable scenarios.
type testEnv struct {
	ts   *httptest.Server
	srv  *Server
	runs *atomic.Int32 // underlying executions of the "gated" scenario
	gate chan struct{} // closed to let "gated" runs finish
}

// newTestEnv builds a registry of controllable scenarios and serves it.
//
//	echo   - returns instantly, report artifact echoing the step count
//	gated  - counts its executions, blocks until the gate opens (or ctx)
//	block  - blocks until ctx cancellation, then returns ctx.Err()
//	fail   - always errors
//	heavy  - measured-tagged echo (cost = ranks x steps x gens)
func newTestEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	env := &testEnv{runs: &atomic.Int32{}, gate: make(chan struct{})}
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.New("echo", "echoes params", []string{"test"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			return &scenario.Artifact{Scenario: "echo", Kind: scenario.KindReport,
				Report: fmt.Sprintf("steps=%d\n", p.Steps)}, nil
		}))
	reg.MustRegister(scenario.New("gated", "counts runs, waits for the gate", []string{"test"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			env.runs.Add(1)
			select {
			case <-env.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &scenario.Artifact{Scenario: "gated", Kind: scenario.KindReport, Report: "ran\n"}, nil
		}))
	reg.MustRegister(scenario.New("block", "runs until cancelled", []string{"test"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			<-ctx.Done() // a simulation observing cancellation at a step boundary
			return nil, ctx.Err()
		}))
	reg.MustRegister(scenario.New("fail", "always fails", []string{"test"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			return nil, fmt.Errorf("synthetic failure")
		}))
	reg.MustRegister(scenario.New("heavy", "measured echo", []string{"test", "measured"},
		func(ctx context.Context, p scenario.Params) (*scenario.Artifact, error) {
			return &scenario.Artifact{Scenario: "heavy", Kind: scenario.KindReport, Report: "heavy\n"}, nil
		}))
	cfg.Registry = reg
	srv := New(cfg)
	env.srv = srv
	env.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		env.ts.Close()
	})
	return env
}

func (e *testEnv) do(t *testing.T, method, path string, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewBufferString(body)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// submit POSTs a job and returns its ID, asserting 201.
func (e *testEnv) submit(t *testing.T, body string) string {
	t.Helper()
	code, out := e.do(t, "POST", "/jobs", body)
	if code != http.StatusCreated {
		t.Fatalf("POST /jobs = %d: %s", code, out)
	}
	var j jobJSON
	if err := json.Unmarshal(out, &j); err != nil {
		t.Fatal(err)
	}
	return j.ID
}

// status fetches a job's state.
func (e *testEnv) status(t *testing.T, id string) jobJSON {
	t.Helper()
	code, out := e.do(t, "GET", "/jobs/"+id, "")
	if code != http.StatusOK {
		t.Fatalf("GET /jobs/%s = %d: %s", id, code, out)
	}
	var j jobJSON
	if err := json.Unmarshal(out, &j); err != nil {
		t.Fatal(err)
	}
	return j
}

// await polls until the job reaches a terminal state.
func (e *testEnv) await(t *testing.T, id string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j := e.status(t, id)
		switch j.State {
		case StateDone, StateFailed, StateCancelled:
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobJSON{}
}

// TestNewCheckpointDefaults: a Config that sets no checkpoint period
// or generation count gets the same defaults as respira's flags.
func TestNewCheckpointDefaults(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	if srv.ckptEvery != 10 || srv.ckptKeep != 2 {
		t.Fatalf("checkpoint every=%d keep=%d, want 10 and 2", srv.ckptEvery, srv.ckptKeep)
	}
}

func TestScenariosEndpoint(t *testing.T) {
	env := newTestEnv(t, Config{})
	code, out := env.do(t, "GET", "/scenarios", "")
	if code != http.StatusOK {
		t.Fatalf("GET /scenarios = %d", code)
	}
	var scs []scenarioJSON
	if err := json.Unmarshal(out, &scs); err != nil {
		t.Fatal(err)
	}
	if len(scs) != 5 || scs[0].Name != "echo" || len(scs[0].Tags) == 0 {
		t.Fatalf("scenarios = %+v", scs)
	}
}

func TestSubmitStatusArtifact(t *testing.T) {
	env := newTestEnv(t, Config{})
	id := env.submit(t, `{"scenario":"echo","options":{"steps":7}}`)
	j := env.await(t, id)
	if j.State != StateDone {
		t.Fatalf("state = %s (%s)", j.State, j.Error)
	}
	if len(j.Events) != 2 || !j.Events[1].Done {
		t.Fatalf("events = %+v, want start+finish", j.Events)
	}
	code, out := env.do(t, "GET", "/jobs/"+id+"/artifact", "")
	if code != http.StatusOK || !strings.Contains(string(out), "steps=7") {
		t.Fatalf("text artifact = %d: %s", code, out)
	}
	code, out = env.do(t, "GET", "/jobs/"+id+"/artifact?format=json", "")
	var art scenario.Artifact
	if code != http.StatusOK || json.Unmarshal(out, &art) != nil || art.Scenario != "echo" {
		t.Fatalf("json artifact = %d: %s", code, out)
	}
	code, out = env.do(t, "GET", "/jobs/"+id+"/artifact?format=csv", "")
	if code != http.StatusOK || !strings.HasPrefix(string(out), "scenario,kind,section") {
		t.Fatalf("csv artifact = %d: %s", code, out)
	}
	if code, out = env.do(t, "GET", "/jobs/"+id+"/artifact?format=yaml", ""); code != http.StatusBadRequest {
		t.Fatalf("bad format = %d: %s", code, out)
	}
	// The job listing includes it.
	code, out = env.do(t, "GET", "/jobs", "")
	var jobs []jobJSON
	if code != http.StatusOK || json.Unmarshal(out, &jobs) != nil || len(jobs) != 1 {
		t.Fatalf("GET /jobs = %d: %s", code, out)
	}
}

func TestNotFound(t *testing.T) {
	env := newTestEnv(t, Config{})
	for _, req := range [][2]string{
		{"GET", "/jobs/nope"},
		{"GET", "/jobs/nope/artifact"},
		{"DELETE", "/jobs/nope"},
	} {
		if code, _ := env.do(t, req[0], req[1], ""); code != http.StatusNotFound {
			t.Fatalf("%s %s = %d, want 404", req[0], req[1], code)
		}
	}
}

func TestBadSubmissions(t *testing.T) {
	env := newTestEnv(t, Config{})
	for name, c := range map[string]struct {
		body string
		want int
	}{
		"unknown scenario":    {`{"scenario":"nope"}`, http.StatusBadRequest},
		"negative steps":      {`{"scenario":"echo","options":{"steps":-1}}`, http.StatusBadRequest},
		"zero gens":           {`{"scenario":"echo","options":{"meshGenerations":0}}`, http.StatusBadRequest},
		"negative parts":      {`{"scenario":"echo","options":{"particles":-5}}`, http.StatusBadRequest},
		"unknown strategy":    {`{"scenario":"echo","options":{"strategy":"yolo"}}`, http.StatusBadRequest},
		"unknown mode":        {`{"scenario":"echo","options":{"mode":"warp"}}`, http.StatusBadRequest},
		"unknown field":       {`{"scenario":"echo","options":{"stepz":3}}`, http.StatusBadRequest},
		"removed sgsStrategy": {`{"scenario":"echo","options":{"sgsStrategy":"serial"}}`, http.StatusBadRequest},
		"malformed json":      {`{"scenario":`, http.StatusBadRequest},
		"trailing object":     {`{"scenario":"echo"} {}`, http.StatusBadRequest},
		"body over 1 MiB": {`{"scenario":"echo","options":{"inflow":"` + strings.Repeat("x", 2<<20) + `"}}`,
			http.StatusRequestEntityTooLarge},
	} {
		if code, out := env.do(t, "POST", "/jobs", c.body); code != c.want {
			t.Fatalf("%s: POST = %d, want %d: %s", name, code, c.want, out)
		}
	}
	var jobs []jobJSON
	if code, out := env.do(t, "GET", "/jobs", ""); code != http.StatusOK || json.Unmarshal(out, &jobs) != nil || len(jobs) != 0 {
		t.Fatalf("rejected submissions created jobs: GET /jobs = %d: %s", code, out)
	}
}

func TestArtifactBeforeDone(t *testing.T) {
	env := newTestEnv(t, Config{})
	id := env.submit(t, `{"scenario":"block"}`)
	if code, out := env.do(t, "GET", "/jobs/"+id+"/artifact", ""); code != http.StatusConflict {
		t.Fatalf("artifact of unfinished job = %d: %s", code, out)
	}
	env.do(t, "DELETE", "/jobs/"+id, "")
	env.await(t, id)
}

func TestFailedJob(t *testing.T) {
	env := newTestEnv(t, Config{})
	id := env.submit(t, `{"scenario":"fail"}`)
	j := env.await(t, id)
	if j.State != StateFailed || !strings.Contains(j.Error, "synthetic failure") {
		t.Fatalf("job = %+v", j)
	}
	if code, _ := env.do(t, "GET", "/jobs/"+id+"/artifact", ""); code != http.StatusConflict {
		t.Fatalf("artifact of failed job must be 409")
	}
}

// TestCancelRunningJob: DELETE stops a running job (the scenario observes
// ctx at its next step boundary) and the status reports cancelled.
func TestCancelRunningJob(t *testing.T) {
	env := newTestEnv(t, Config{})
	id := env.submit(t, `{"scenario":"block"}`)
	// Wait until it actually runs, so the cancel exercises the
	// step-boundary path rather than the queue path.
	deadline := time.Now().Add(5 * time.Second)
	for env.status(t, id).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := env.do(t, "DELETE", "/jobs/"+id, ""); code != http.StatusOK {
		t.Fatal("DELETE failed")
	}
	if j := env.await(t, id); j.State != StateCancelled {
		t.Fatalf("state after cancel = %s", j.State)
	}
	// Cancelling a finished job is a no-op that reports the final state.
	if code, out := env.do(t, "DELETE", "/jobs/"+id, ""); code != http.StatusOK || !strings.Contains(string(out), "cancelled") {
		t.Fatalf("second DELETE = %d: %s", code, out)
	}
}

// TestQueueOverflow429: capacity 1 and queue 1 admit one running and one
// queued job; the third distinct submission is rejected with 429.
func TestQueueOverflow429(t *testing.T) {
	env := newTestEnv(t, Config{Capacity: 1, MaxQueue: 1})
	a := env.submit(t, `{"scenario":"block"}`)
	deadline := time.Now().Add(5 * time.Second)
	for env.status(t, a).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Distinct options: not deduplicated, needs its own capacity.
	b := env.submit(t, `{"scenario":"block","options":{"steps":2}}`)
	if st := env.status(t, b).State; st != StateQueued {
		t.Fatalf("second job state = %s, want queued", st)
	}
	code, out := env.do(t, "POST", "/jobs", `{"scenario":"block","options":{"steps":3}}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submission = %d: %s", code, out)
	}
	// Cancel both; the queued one resolves too.
	env.do(t, "DELETE", "/jobs/"+a, "")
	env.do(t, "DELETE", "/jobs/"+b, "")
	env.await(t, a)
	env.await(t, b)
}

// TestSingleflightDedup: N concurrent identical submissions trigger
// exactly one underlying scenario run; every job gets the artifact, and
// the jobs that never ran themselves are marked shared. Run under -race
// in CI.
func TestSingleflightDedup(t *testing.T) {
	env := newTestEnv(t, Config{Capacity: 100, MaxQueue: 100})
	const n = 8
	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(env.ts.URL+"/jobs", "application/json",
				strings.NewReader(`{"scenario":"gated","options":{"steps":4}}`))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusCreated {
				errs[i] = fmt.Errorf("POST = %d: %s", resp.StatusCode, out)
				return
			}
			var j jobJSON
			if err := json.Unmarshal(out, &j); err != nil {
				errs[i] = err
				return
			}
			ids[i] = j.ID
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Every submission was accepted while the first run was still gated;
	// release it and check all jobs adopt the single run's artifact.
	close(env.gate)
	shared := 0
	for _, id := range ids {
		j := env.await(t, id)
		if j.State != StateDone {
			t.Fatalf("job %s = %s (%s)", id, j.State, j.Error)
		}
		if j.Shared {
			shared++
		}
		code, out := env.do(t, "GET", "/jobs/"+id+"/artifact", "")
		if code != http.StatusOK || string(out) != "ran\n" {
			t.Fatalf("job %s artifact = %d: %q", id, code, out)
		}
	}
	if got := env.runs.Load(); got != 1 {
		t.Fatalf("underlying runs = %d, want 1 (singleflight)", got)
	}
	if shared != n-1 {
		t.Fatalf("shared jobs = %d, want %d", shared, n-1)
	}
	// A submission with different options is its own run.
	id := env.submit(t, `{"scenario":"gated","options":{"steps":5}}`)
	if j := env.await(t, id); j.State != StateDone {
		t.Fatalf("distinct-options job = %s", j.State)
	}
	if got := env.runs.Load(); got != 2 {
		t.Fatalf("underlying runs after distinct options = %d, want 2", got)
	}
}

// TestPlatformNameCannotSpellAnotherKey: a platform name that spells
// another spec's memo key (`Thunder;seed=5` against Thunder at seed 5,
// `MareNostrum4+Thunder` against both machines) is rejected with 400
// instead of being served the other job's cached artifact.
func TestPlatformNameCannotSpellAnotherKey(t *testing.T) {
	env := newTestEnv(t, Config{})
	close(env.gate)
	for _, opts := range []string{`{"platforms":["Thunder"],"seed":5}`, `{"platforms":["MareNostrum4","Thunder"]}`} {
		if j := env.await(t, env.submit(t, `{"scenario":"gated","options":`+opts+`}`)); j.State != StateDone {
			t.Fatalf("%s: job = %s (%s)", opts, j.State, j.Error)
		}
	}
	for _, opts := range []string{`{"platforms":["Thunder;seed=5"]}`, `{"platforms":["MareNostrum4+Thunder"]}`} {
		if code, out := env.do(t, "POST", "/jobs", `{"scenario":"gated","options":`+opts+`}`); code != http.StatusBadRequest {
			t.Fatalf("%s: POST = %d, want 400: %s", opts, code, out)
		}
	}
	if got := env.runs.Load(); got != 2 {
		t.Fatalf("underlying runs = %d, want 2", got)
	}
}

// TestCancelledLeaderDoesNotPoisonFollowers: cancelling the job that
// leads a deduplicated run fails only that job; a follower with a live
// context retries and completes.
func TestCancelledLeaderDoesNotPoisonFollowers(t *testing.T) {
	env := newTestEnv(t, Config{Capacity: 100, MaxQueue: 100})
	leader := env.submit(t, `{"scenario":"gated"}`)
	deadline := time.Now().Add(5 * time.Second)
	for env.runs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started")
		}
		time.Sleep(time.Millisecond)
	}
	follower := env.submit(t, `{"scenario":"gated"}`)
	env.do(t, "DELETE", "/jobs/"+leader, "")
	if j := env.await(t, leader); j.State != StateCancelled {
		t.Fatalf("leader state = %s", j.State)
	}
	// The follower retries as the new leader; open the gate so it can
	// finish (its retry re-executes the scenario).
	close(env.gate)
	if j := env.await(t, follower); j.State != StateDone {
		t.Fatalf("follower state = %s (%s)", j.State, j.Error)
	}
	if got := env.runs.Load(); got != 2 {
		t.Fatalf("underlying runs = %d, want 2 (leader + follower retry)", got)
	}
}

// TestEstimateCost: measured scenarios price ranks x steps x gens with
// Table-1 defaults for unset fields; others are nominal.
func TestEstimateCost(t *testing.T) {
	measured := scenario.New("m", "", []string{"measured"}, nil)
	modeled := scenario.New("f", "", []string{"model"}, nil)
	if c := EstimateCost(modeled, scenario.Params{Ranks: 500}); c != 1 {
		t.Fatalf("modeled cost = %d", c)
	}
	if c := EstimateCost(measured, scenario.Params{}); c != 96*2*4 {
		t.Fatalf("default measured cost = %d", c)
	}
	if c := EstimateCost(measured, scenario.Params{Ranks: 8, Steps: 3, MeshGenerations: 2}); c != 48 {
		t.Fatalf("overridden measured cost = %d", c)
	}
}

// TestEstimateCostConsultsCoster: a scenario that knows its own
// parameter-dependent cost (the sweep family) overrides the flat
// measured formula — its cost scales with the work it will actually do.
func TestEstimateCostConsultsCoster(t *testing.T) {
	sweep := scenario.NewCosted("s", "", []string{"measured", "sweep"}, nil,
		func(p scenario.Params) int64 {
			return int64(len(p.SweepDiameters)+1) * 10
		})
	if c := EstimateCost(sweep, scenario.Params{}); c != 10 {
		t.Fatalf("coster default cost = %d, want 10", c)
	}
	if c := EstimateCost(sweep, scenario.Params{SweepDiameters: []float64{1e-6, 2e-6, 4e-6}}); c != 40 {
		t.Fatalf("coster cost = %d, want 40 (grows with cardinality)", c)
	}
	// A degenerate self-estimate must not price the job at zero: the
	// scheduler's capacity accounting needs every job to weigh something.
	zero := scenario.NewCosted("z", "", nil, nil, func(scenario.Params) int64 { return 0 })
	if c := EstimateCost(zero, scenario.Params{}); c != 1 {
		t.Fatalf("zero self-estimate priced at %d, want 1", c)
	}
}
