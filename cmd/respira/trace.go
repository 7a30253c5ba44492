package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/coupling"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/scenario"
)

// traceCmd is `respira trace`: Paraver-style timelines, the
// reproduction's stand-in for opening an Extrae trace in Paraver (the
// paper's Figure 2 workflow). It reads one of three sources:
//
//   - a telemetry store directory written by `respira serve` (-store
//     DIR): list its runs, or re-render one byte-identically to the
//     in-memory render, with its per-phase makespan/imbalance table;
//   - a live `respira serve` (-url http://host:port): the same listing
//     and rendering over its /telemetry endpoints;
//   - a fresh run of a registry scenario (-scenario NAME, the default
//     mode), recorded into -store when one is given.
func traceCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("respira trace", flag.ContinueOnError)
	var (
		store = fs.String("store", "", "telemetry store directory to render from (or record into with -scenario)")
		url   = fs.String("url", "", "base URL of a live respira serve to query instead of a store directory")
		list  = fs.Bool("list", false, "list recorded runs and exit (-store or -url mode)")
		runID = fs.String("run", "", "run ID to render (default: the newest recorded run)")
		scen  = fs.String("scenario", "fig2", "registry scenario to run fresh (ignored with -url or a bare -store)")
	)
	// An unset override keeps the scenario's own default on a fresh run;
	// stored runs render 110 wide and 32 rows deep.
	spec := bindOverrides(fs, "ranks", "steps", "particles", "meshGenerations", "width", "rows")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *url != "" && *store != "" {
		return usagef("-store and -url are mutually exclusive")
	}
	params, err := spec.Params()
	if err != nil {
		return err
	}
	// A scenario run happens only when the user asked for one (or gave
	// neither source); a bare -store/-url is a pure reader.
	scenarioSet := false
	fs.Visit(func(f *flag.Flag) { scenarioSet = scenarioSet || f.Name == "scenario" })
	width, rows := 110, 32
	if params.Width > 0 {
		width = params.Width
	}
	if params.Rows > 0 {
		rows = params.Rows
	}

	switch {
	case *url != "":
		if scenarioSet {
			return usagef("-scenario runs locally; drop it when querying a server with -url")
		}
		return traceRemote(*url, *list, *runID, width, rows, stdout)
	case *store != "" && !scenarioSet:
		st, err := telemetry.OpenDir(*store)
		if err != nil {
			return err
		}
		return traceStored(st, *list, *runID, width, rows, stdout)
	case *list || *runID != "":
		return usagef("-list and -run need a source: -store DIR or -url URL")
	}
	sc, err := scenario.Default.Get(*scen) // unknown names list the registry
	if err != nil {
		return err
	}
	if *store != "" {
		// The store rides the context's coupling.Env down to RunContext.
		st, err := telemetry.OpenDir(*store)
		if err != nil {
			return err
		}
		before := st.RunCount()
		ctx = coupling.WithEnv(ctx, coupling.Env{Telemetry: namedSink{st: st, scenario: *scen}})
		defer func() {
			if n := st.RunCount() - before; n > 0 {
				fmt.Fprintf(stderr, "respira trace: recorded %d run(s) into %s\n", n, *store)
			}
		}()
	}
	return runScenarios(ctx, &scenario.Runner{}, []scenario.Scenario{sc}, params, "text", stdout, stderr)
}

// namedSink stamps the scenario name onto runs the simulation records,
// so store listings can say what produced each run.
type namedSink struct {
	st       *telemetry.Store
	scenario string
}

func (s namedSink) BeginRun(meta telemetry.RunMeta) (*telemetry.RunWriter, error) {
	if meta.Scenario == "" {
		meta.Scenario = s.scenario
	}
	return s.st.BeginRun(meta)
}

// traceStored lists or renders runs of an on-disk store.
func traceStored(st *telemetry.Store, list bool, runID string, width, rows int, stdout io.Writer) error {
	runs := st.Runs()
	if list {
		listRuns(stdout, runs)
		return nil
	}
	if runID == "" {
		if len(runs) == 0 {
			return fmt.Errorf("store holds no runs")
		}
		runID = runs[len(runs)-1].Run
	}
	tr, meta, err := st.Trace(runID)
	if err != nil {
		return err
	}
	render(stdout, tr, meta, width, rows)
	return nil
}

// traceRemote is traceStored over a live server's /telemetry endpoints.
func traceRemote(base string, list bool, runID string, width, rows int, stdout io.Writer) error {
	base = strings.TrimRight(base, "/")
	if list || runID == "" {
		var runs []telemetry.RunMeta
		if err := getJSON(base+"/telemetry/runs", &runs); err != nil {
			return err
		}
		if list {
			// The server lists newest first; the local listing prints
			// oldest first.
			for i, j := 0, len(runs)-1; i < j; i, j = i+1, j-1 {
				runs[i], runs[j] = runs[j], runs[i]
			}
			listRuns(stdout, runs)
			return nil
		}
		if len(runs) == 0 {
			return fmt.Errorf("server holds no runs")
		}
		runID = runs[0].Run
	}
	var tw service.TraceWire
	if err := getJSON(base+"/telemetry/runs/"+runID, &tw); err != nil {
		return err
	}
	telRows := make([]telemetry.Row, len(tw.Rows))
	for i, rw := range tw.Rows {
		telRows[i] = rw.Row()
	}
	render(stdout, telemetry.TraceFromRows(tw.Meta.Ranks, telRows), tw.Meta, width, rows)
	return nil
}

// getJSON fetches one endpoint into out, surfacing the server's JSON
// error body on non-200 statuses.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", url, e.Error)
		}
		return fmt.Errorf("%s: HTTP %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// listRuns prints one line per run, oldest first.
func listRuns(w io.Writer, runs []telemetry.RunMeta) {
	fmt.Fprintf(w, "%-20s %-12s %-12s %5s %5s %8s %-8s %s\n",
		"RUN", "SCENARIO", "MODE", "RANKS", "STEPS", "ROWS", "STATE", "CREATED")
	for _, m := range runs {
		state := "complete"
		if !m.Complete {
			state = "partial"
		}
		fmt.Fprintf(w, "%-20s %-12s %-12s %5d %5d %8d %-8s %s\n",
			m.Run, m.Scenario, m.Mode, m.Ranks, m.Steps, m.Rows, state,
			m.Created.Format(time.RFC3339))
	}
}

// render prints a stored run: a metadata header, the Paraver-style
// timeline (byte-identical to the in-memory render of the original
// run), and the per-phase makespan/imbalance table.
func render(w io.Writer, tr *trace.Trace, meta telemetry.RunMeta, width, rows int) {
	fmt.Fprintf(w, "run %s", meta.Run)
	if meta.Job != "" {
		fmt.Fprintf(w, "  job=%s", meta.Job)
	}
	if meta.Scenario != "" {
		fmt.Fprintf(w, "  scenario=%s", meta.Scenario)
	}
	fmt.Fprintf(w, "  mode=%s ranks=%d steps=%d makespan=%.4g\n\n", meta.Mode, meta.Ranks, meta.Steps, meta.Makespan)
	fmt.Fprint(w, tr.Render(width, rows))
	pw := service.PhasesFromTrace(tr, meta)
	if len(pw.Phases) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-16s %10s %8s %8s\n", "Phase", "max", "L_n", "%time")
	for _, p := range pw.Phases {
		fmt.Fprintf(w, "%-16s %10.4g %8.2f %7.1f%%\n", p.Phase, p.Max, p.Ln, p.Percent)
	}
}
