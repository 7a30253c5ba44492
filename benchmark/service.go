package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/tasking"
	"repro/internal/telemetry"
)

// serviceInstance is one in-process job service behind a real loopback
// HTTP listener, configured the way cmd/respirad wires it.
type serviceInstance struct {
	base    string
	srv     *service.Server
	httpSrv *http.Server
	pool    *tasking.Pool
	served  chan error
}

// startService brings a service up in dir and returns once the first
// GET /scenarios answers 200; setupS is that whole interval (store open,
// service.New, listener, first request). The checkpoint directory is
// created beforehand, as an operator would.
func startService(dir string, ckptEvery int, client *http.Client) (inst *serviceInstance, setupS float64, err error) {
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	store, err := telemetry.OpenDir(filepath.Join(dir, "telemetry"))
	if err != nil {
		return nil, 0, err
	}
	pool := tasking.NewPool(runtime.NumCPU())
	srv := service.New(service.Config{
		RunnerPool:      pool,
		Telemetry:       store,
		CheckpointDir:   ckptDir,
		CheckpointEvery: ckptEvery,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return nil, 0, err
	}
	inst = &serviceInstance{
		base:    "http://" + ln.Addr().String(),
		srv:     srv,
		httpSrv: &http.Server{Handler: srv.Handler()},
		pool:    pool,
		served:  make(chan error, 1),
	}
	go func() { inst.served <- inst.httpSrv.Serve(ln) }()
	status, _, err := httpDo(client, http.MethodGet, inst.base+"/scenarios", "")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /scenarios: status %d", status)
	}
	if err != nil {
		inst.stop()
		return nil, 0, err
	}
	return inst, time.Since(t0).Seconds(), nil
}

// stop shuts the listener down, cancels whatever still runs, and waits
// for the serve goroutine and the pool workers to end.
func (s *serviceInstance) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.httpSrv.Shutdown(ctx) //nolint:errcheck // best effort on the way out
	<-s.served
	s.srv.Close()
	s.pool.Close()
}

func httpDo(client *http.Client, method, url, body string) (status int, data []byte, err error) {
	var rd io.Reader
	if body != "" {
		rd = bytes.NewBufferString(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// jobWire is the part of the service's job JSON the client reads.
type jobWire struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Shared   bool       `json:"shared"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

// jobSample is one submission as its client saw it.
type jobSample struct {
	cold       bool
	ok         bool
	rejected   bool
	detail     string
	latencyS   float64
	polls      int
	submitUS   float64
	statusUS   []float64
	artifactUS float64
	phasesUS   float64
	queueS     float64
	runS       float64
}

var reportCounts = regexp.MustCompile(`(?m)^released over \d+ steps:\s+(\d+) particles\ndeposited on walls:\s+(\d+)\nreached the deep lung:\s+(\d+)\nstill airborne:\s+(\d+)$`)

// verifyArtifact checks the bytes of a cold job's JSON artifact: right
// scenario, and the report's particle counts conserve.
func verifyArtifact(data []byte) error {
	var art struct {
		Scenario string `json:"scenario"`
		Report   string `json:"report"`
	}
	if err := json.Unmarshal(data, &art); err != nil {
		return err
	}
	if art.Scenario != "breathing" {
		return fmt.Errorf("artifact of scenario %q", art.Scenario)
	}
	m := reportCounts.FindStringSubmatch(art.Report)
	if m == nil {
		return fmt.Errorf("report carries no particle counts")
	}
	var n [4]int
	for i := range n {
		n[i], _ = strconv.Atoi(m[i+1])
	}
	if n[0] == 0 || n[0] != n[1]+n[2]+n[3] {
		return fmt.Errorf("released %d != deposited %d + exited %d + airborne %d", n[0], n[1], n[2], n[3])
	}
	return nil
}

// runJob drives one submission: POST, poll every 5 ms until terminal,
// fetch the artifact and verify its bytes (against want for a repeat).
func runJob(client *http.Client, rec *rankSpans, base, body string, want []byte, withPhases bool) (s jobSample, artifact []byte) {
	s.cold = want == nil
	rec.begin(spanJob)
	defer rec.end()
	t0 := time.Now()
	timed := func(kind spanKind, method, url, body string) (int, []byte, float64, error) {
		rec.begin(kind)
		t := time.Now()
		status, data, err := httpDo(client, method, url, body)
		us := float64(time.Since(t)) / 1e3
		rec.end()
		return status, data, us, err
	}
	status, data, us, err := timed(spanHTTPSubmit, http.MethodPost, base+"/jobs", body)
	s.submitUS = us
	if err != nil {
		s.detail = err.Error()
		return s, nil
	}
	if status != http.StatusCreated {
		s.rejected = status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
		s.detail = fmt.Sprintf("POST /jobs: status %d: %s", status, bytes.TrimSpace(data))
		return s, nil
	}
	var job jobWire
	if err := json.Unmarshal(data, &job); err != nil {
		s.detail = "POST /jobs: " + err.Error()
		return s, nil
	}
	guard := time.Now().Add(childGuard)
	for job.State != "done" && job.State != "failed" && job.State != "cancelled" {
		if time.Now().After(guard) {
			s.detail = "job " + job.ID + " still " + job.State + " at the hang guard"
			return s, nil
		}
		time.Sleep(5 * time.Millisecond)
		status, data, us, err = timed(spanHTTPStatus, http.MethodGet, base+"/jobs/"+job.ID, "")
		s.statusUS = append(s.statusUS, us)
		s.polls++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil {
			err = json.Unmarshal(data, &job)
		}
		if err != nil {
			s.detail = "GET /jobs/" + job.ID + ": " + err.Error()
			return s, nil
		}
	}
	if job.State != "done" {
		s.detail = "job " + job.ID + " " + job.State + ": " + job.Error
		return s, nil
	}
	status, artifact, s.artifactUS, err = timed(spanHTTPArtifact, http.MethodGet, base+"/jobs/"+job.ID+"/artifact?format=json", "")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		if s.cold {
			err = verifyArtifact(artifact)
		} else if !bytes.Equal(artifact, want) {
			err = fmt.Errorf("repeat artifact differs from the original's bytes")
		}
	}
	if err != nil {
		s.detail = "artifact of " + job.ID + ": " + err.Error()
		return s, nil
	}
	s.latencyS = time.Since(t0).Seconds()
	s.ok = true
	if job.Started != nil && job.Finished != nil {
		s.queueS = job.Started.Sub(job.Created).Seconds()
		s.runS = job.Finished.Sub(*job.Started).Seconds()
	}
	if withPhases && s.cold {
		// After the latency clock stopped: what the timeline endpoint costs.
		if status, _, us, err := timed(spanHTTPPhases, http.MethodGet, base+"/jobs/"+job.ID+"/phases", ""); err == nil && status == http.StatusOK {
			s.phasesUS = us
		}
	}
	return s, artifact
}

// runServiceLeg is the service_jobs workload: set the service up several
// times (set-up samples), then drive the last instance with a closed loop
// of nproc clients for spec.Seconds, every 4th submission of a client
// repeating a body that client already finished.
func runServiceLeg(w *workload, spec legSpec, tmp string) (*legResult, error) {
	sz := spec.sizing()
	client := &http.Client{Timeout: childGuard}
	defer client.CloseIdleConnections()
	res := &legResult{Layer: map[string]float64{}}

	// A set-up is under a millisecond, so one run affords many samples.
	setups := 100
	if spec.Quick {
		setups = 2
	}
	var inst *serviceInstance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.stop()
		}
		dir := filepath.Join(tmp, fmt.Sprintf("svc%d", i))
		var s float64
		var err error
		if inst, s, err = startService(dir, w.ckptEvery, client); err != nil {
			return nil, err
		}
		res.SetupSamples = append(res.SetupSamples, s)
	}
	defer inst.stop()
	res.SetupS = median(res.SetupSamples)

	clients := runtime.NumCPU()
	minPerClient := (sz.minJobs + clients - 1) / clients
	t0 := time.Now()
	deadline := t0.Add(time.Duration(spec.Seconds * float64(time.Second)))
	recs := make([]*rankSpans, clients)
	samples := make([][]jobSample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		if spec.Trace {
			recs[c] = newRankSpans(t0, 1<<12)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var bodies []string
			var artifacts [][]byte
			for n := 0; n < minPerClient || time.Now().Before(deadline); n++ {
				var body string
				var want []byte
				if n%4 == 3 {
					prev := len(bodies) - 3 // the first cold job of this group of four
					body, want = bodies[prev], artifacts[prev]
				} else {
					jobSeed := spec.Seed*1000 + int64(n*clients+c) + 1
					body = fmt.Sprintf(`{"scenario":"breathing","options":{"ranks":2,"meshGenerations":2,"steps":%d,"particles":%d,"seed":%d}}`,
						sz.jobSteps, sz.count(1000), jobSeed)
				}
				s, artifact := runJob(client, recs[c], inst.base, body, want, spec.Trace)
				samples[c] = append(samples[c], s)
				if !s.ok {
					return // a failed job ends this client: later repeats would have nothing to repeat
				}
				if s.cold {
					bodies, artifacts = append(bodies, body), append(artifacts, artifact)
				}
			}
		}(c)
	}
	wg.Wait()
	res.LoopS = time.Since(t0).Seconds()

	var cold, warm, submit, status, artifact, phases, queue, run, polls []float64
	repeats, rejected := 0, 0
	for _, cs := range samples {
		for _, s := range cs {
			res.Attempted++
			if !s.cold {
				repeats++
			}
			if s.rejected {
				rejected++
			}
			if !s.ok {
				res.Failed++
				res.check("job_done_and_verified", false, "%s", s.detail)
				continue
			}
			submit = append(submit, s.submitUS)
			status = append(status, s.statusUS...)
			artifact = append(artifact, s.artifactUS)
			if s.cold {
				cold = append(cold, s.latencyS)
				queue, run = append(queue, s.queueS*1e3), append(run, s.runS*1e3)
				polls = append(polls, float64(s.polls))
				if s.phasesUS > 0 {
					phases = append(phases, s.phasesUS)
				}
			} else {
				warm = append(warm, s.latencyS*1e3)
			}
		}
	}
	res.Latencies = cold
	res.SimSteps = len(cold) * sz.jobSteps
	if res.Failed == 0 {
		res.check("job_done_and_verified", true, "")
	}
	if err := serviceEndState(client, inst.base, repeats, res); err != nil {
		return nil, err
	}
	if spec.Trace {
		out := res.Layer
		out["service.submit_us"] = median(submit)
		out["service.status_us"] = median(status)
		out["service.artifact_us"] = median(artifact)
		out["service.phases_us"] = median(phases)
		out["service.queue_wait_p50_ms"] = median(queue)
		out["service.run_p50_ms"] = median(run)
		out["service.polls_per_job"] = mean(polls)
		out["service.rejected_ratio"] = float64(rejected) / float64(res.Attempted)
		out["service.jobs_per_s"] = float64(res.Attempted-res.Failed) / res.LoopS
		out["service.job_p50_ms"] = median(cold) * 1e3
		out["service.job_p80_ms"] = percentile(cold, 80) * 1e3
		out["service.cold_jobs"] = float64(len(cold))
		out["memo.warm_job_p50_ms"] = median(warm)
		if err := writeTraceFile(filepath.Join(spec.OutDir, "trace_"+w.name+".json"), w.name,
			fmt.Sprintf("%s-seed%d", w.name, spec.Seed), recs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// serviceEndState checks what the service reports about itself once the
// loop is over: nothing left in the scheduler, exactly the repeats as
// cache hits, and a clean integrity scrub of everything it wrote.
func serviceEndState(client *http.Client, base string, repeats int, res *legResult) error {
	var stats struct {
		Scheduler struct {
			UsedCost int64 `json:"usedCost"`
			Running  int   `json:"running"`
			Queued   int   `json:"queued"`
		} `json:"scheduler"`
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	if err := getJSON(client, base+"/stats", &stats); err != nil {
		return err
	}
	sch := stats.Scheduler
	res.check("scheduler_idle", sch.UsedCost == 0 && sch.Running == 0 && sch.Queued == 0,
		"scheduler still holds usedCost %d, running %d, queued %d", sch.UsedCost, sch.Running, sch.Queued)
	res.check("cache_hits_equal_repeats", int(stats.Cache.Hits) == repeats, "cache.hits %d, repeats sent %d", stats.Cache.Hits, repeats)
	if total := stats.Cache.Hits + stats.Cache.Misses; total > 0 {
		res.Layer["memo.hit_ratio"] = float64(stats.Cache.Hits) / float64(total)
	}
	var scrub struct {
		OK bool `json:"ok"`
	}
	if err := getJSON(client, base+"/admin/integrity", &scrub); err != nil {
		return err
	}
	res.check("integrity_ok", scrub.OK, "GET /admin/integrity reports corruption")
	return nil
}

func getJSON(client *http.Client, url string, v any) error {
	status, data, err := httpDo(client, http.MethodGet, url, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, status)
	}
	return json.Unmarshal(data, v)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
