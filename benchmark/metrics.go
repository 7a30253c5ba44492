package main

// metricDef declares one metric: BENCHMARK.json is generated from these
// tables (`benchmark manifest`), so the file and the program cannot
// drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 20

// endToEndMetrics are printed by every untraced run of every workload.
// The bounds are shares of the parent's median; README.md quotes the
// run-to-run spreads they were sized from.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"steps_per_s", "1/s", higher, 0.25},
	{"time_to_solution_s", "s", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.15},
}

// perLayerMetrics are printed by every traced run of every workload. A
// metric of a layer the workload never enters (service.* and memo.* on
// the simulation workloads) reads 0.
var perLayerMetrics = []metricDef{
	{"mesh.generate_ms", "ms", lower, 0},
	{"mesh.elements", "count", lower, 0},
	{"mesh.nodes", "count", lower, 0},
	{"partition.kway_ms", "ms", lower, 0},
	{"partition.rankmeshes_ms", "ms", lower, 0},
	{"partition.edge_cut", "count", lower, 0},
	{"partition.imbalance", "ratio", lower, 0},
	{"fem.momentum_element_ns", "ns", lower, 0},
	{"fem.sgs_element_ns", "ns", lower, 0},
	{"tasking.assemble_serial_ns_per_elem", "ns", lower, 0},
	{"tasking.assemble_atomic_ns_per_elem", "ns", lower, 0},
	{"tasking.assemble_coloring_ns_per_elem", "ns", lower, 0},
	{"tasking.assemble_multidep_ns_per_elem", "ns", lower, 0},
	{"tasking.parallelfor_dispatch_us", "us", lower, 0},
	{"la.nnz", "count", lower, 0},
	{"la.spmv_ns_per_nnz", "ns", lower, 0},
	{"la.spmv_gbs_computed", "GB/s", higher, 0},
	{"la.spmv_bw_ratio", "ratio", higher, 0},
	{"la.dot_ns_per_elem", "ns", lower, 0},
	{"la.axpy_ns_per_elem", "ns", lower, 0},
	{"la.pcg_ns_per_iter", "ns", lower, 0},
	{"la.bicgstab_ns_per_iter", "ns", lower, 0},
	{"host.triad_gbs", "GB/s", higher, 0},
	{"host.llc_bytes", "B", higher, 0},
	{"host.triad_array_bytes", "B", higher, 0},
	{"host.nproc", "count", higher, 0},
	{"navierstokes.newsolver_ms", "ms", lower, 0},
	{"navierstokes.step_self_ms", "ms", lower, 0},
	{"navierstokes.momentum_iters_per_step", "count", lower, 0},
	{"navierstokes.pressure_iters_per_step", "count", lower, 0},
	{"navierstokes.pressure_capped_ratio", "ratio", lower, 0},
	{"navierstokes.pressure_residual_max", "ratio", lower, 0},
	{"navierstokes.max_velocity", "m/s", lower, 0},
	{"simmpi.allreduce_us", "us", lower, 0},
	{"simmpi.halo_roundtrip_us", "us", lower, 0},
	{"simmpi.blocking_calls_per_step", "count", lower, 0},
	{"simmpi.wait_share", "ratio", lower, 0},
	{"simmpi.wait_ms_per_step_max", "ms", lower, 0},
	{"particles.step_ns_per_particle", "ns", lower, 0},
	{"particles.inject_ns_per_particle", "ns", lower, 0},
	{"particles.migrate_self_ms_per_step", "ms", lower, 0},
	{"particles.migrated_per_step", "count", lower, 0},
	{"particles.finalized_per_step", "count", lower, 0},
	{"particles.work_units_per_step", "count", lower, 0},
	{"particles.load_balance_ln", "ratio", higher, 0},
	{"dlb.lends_per_step", "count", lower, 0},
	{"dlb.peak_workers", "count", higher, 0},
	{"dlb.on_off_wall_ratio", "ratio", lower, 0},
	{"coupling.speedup_vs_serial", "ratio", higher, 0},
	{"coupling.driver_gap_pct", "%", lower, 0},
	{"coupling.cpu_busy_ratio", "ratio", higher, 0},
	{"coupling.alloc_kb_per_step", "kB", lower, 0},
	{"checkpoint.bytes", "B", lower, 0},
	{"checkpoint.encode_mb_s", "MB/s", higher, 0},
	{"checkpoint.decode_mb_s", "MB/s", higher, 0},
	{"checkpoint.save_ms", "ms", lower, 0},
	{"checkpoint.run_overhead_pct", "%", lower, 0},
	{"telemetry.rows_per_run", "count", lower, 0},
	{"telemetry.append_rows_s", "1/s", higher, 0},
	{"telemetry.query_rows_s", "1/s", higher, 0},
	{"telemetry.verify_read_overhead_pct", "%", lower, 0},
	{"telemetry.run_overhead_pct", "%", lower, 0},
	{"integrity.scan_mb_s", "MB/s", higher, 0},
	{"integrity.bad_verdicts", "count", lower, 0},
	{"trace.advance_ns", "ns", lower, 0},
	{"trace.render_ms", "ms", lower, 0},
	{"scenario.canonical_key_ns", "ns", lower, 0},
	{"scenario.artifact_json_us", "us", lower, 0},
	{"scenario.artifact_text_us", "us", lower, 0},
	{"memo.hit_ratio", "ratio", higher, 0},
	{"memo.warm_job_p50_ms", "ms", lower, 0},
	{"service.submit_us", "us", lower, 0},
	{"service.status_us", "us", lower, 0},
	{"service.artifact_us", "us", lower, 0},
	{"service.phases_us", "us", lower, 0},
	{"service.queue_wait_p50_ms", "ms", lower, 0},
	{"service.run_p50_ms", "ms", lower, 0},
	{"service.polls_per_job", "count", lower, 0},
	{"service.rejected_ratio", "ratio", lower, 0},
	{"service.jobs_per_s", "1/s", higher, 0},
	{"service.job_p50_ms", "ms", lower, 0},
	{"service.job_p80_ms", "ms", lower, 0},
	{"service.cold_jobs", "count", higher, 0},
	{"harness.trace_overhead_pct", "%", lower, 0},
	{"harness.span_coverage_ratio", "ratio", higher, 0},
	{"harness.spans", "count", lower, 0},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []metricDef     `json:"end_to_end"`
	PerLayer   []layerEntry    `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type layerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{w.name, w.why})
	}
	for _, d := range perLayerMetrics {
		m.PerLayer = append(m.PerLayer, layerEntry{d.Name, d.Unit, d.Better})
	}
	return m
}
