package main

// metricDef names one metric. BENCHMARK.json is generated from these
// tables (-spec) and bench_test.go holds the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd returns what a user of the simulator sees, measured on the
// dark pass. The result schema carries one bound per metric, not one
// per workload. The issue proposed 8-10 % on the times; the host this
// was sized on drifts by that much on its own (README, "End-to-end
// metrics"), so the times take the widest bound the schema allows and
// the two allocation metrics, which repeat, carry the tight gate.
func endToEnd() []metricDef {
	return []metricDef{
		{"setup_s", "s", lower, 0.25},
		{"wall_s", "s", lower, 0.25},
		{"host_s_per_sim_s", "s/s", lower, 0.25},
		{"allocs_per_op", "count", lower, 0.01},
		{"alloc_mb_per_op", "MB", lower, 0.01},
	}
}

// perLayer returns the per-layer ledger, measured on the traced pass.
// The prefix before the first dot is the package the metric belongs to.
// A metric a workload does not exercise reads 0 there (README, table
// "which workload fills which metric").
func perLayer() []metricDef {
	var out []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// event: the scheduler every simulated word passes through.
	add(lower, "count", "event.events", "event.cluster_windows", "event.cluster_barriers", "event.cluster_cross_msgs")
	add(lower, "1/word", "event.events_per_word")
	add(lower, "ns", "event.ns_per_event")
	add(higher, "count", "event.events_per_window")
	add(lower, "ratio", "event.shard_imbalance", "event.cluster_w1_over_w2", "event.est_share")
	add(lower, "ns", "event.probe_dispatch_ns", "event.probe_handler_ns", "event.probe_timer_ns", "event.probe_coroutine_ns")
	add(lower, "count", "event.probe_allocs_per_event")
	// hssl, scu, scupkt: wire, link unit, packet codec.
	add(lower, "count", "hssl.frames", "hssl.bits", "hssl.corrupted", "hssl.dropped")
	add(lower, "1/word", "hssl.frames_per_word")
	add(lower, "ns", "hssl.probe_frame_ns")
	add(lower, "count", "scu.words_sent", "scu.acks_sent", "scu.resends", "scu.retrains", "scu.link_failures")
	add(higher, "ratio", "scu.goodput_ratio")
	add(lower, "ns", "scu.probe_word_ns")
	add(lower, "count", "scu.probe_word_allocs")
	add(lower, "ns", "scupkt.probe_encode_ns", "scupkt.probe_decode_ns")
	// fermion, latmath, solver: the lattice arithmetic.
	add(lower, "count", "fermion.applications", "solver.iterations")
	add(lower, "ns", "fermion.probe_wilson_ns_per_site", "fermion.probe_clover_ns_per_site",
		"fermion.probe_asqtad_ns_per_site", "fermion.probe_dwf_ns_per_site")
	add(higher, "Mflop/s", "fermion.host_mflops")
	add(lower, "ratio", "fermion.est_share")
	add(lower, "ns", "latmath.probe_su3_mulvec_ns", "latmath.probe_project_recon_ns")
	add(lower, "s", "solver.probe_ref_cgne_s")
	// core: spans that split a solve's wall_s, and the simulated outcome.
	add(lower, "s", "core.session_build_s", "core.solve_s", "core.verify_s", "core.close_s",
		"core.clover_s", "core.asqtad_s", "core.dwf_s")
	add(higher, "%", "core.pct_peak", "core.clover_pct_peak", "core.asqtad_pct_peak", "core.dwf_pct_peak")
	add(lower, "%", "core.paper_err_pct")
	add(lower, "s", "core.sim_s")
	add(lower, "ns", "core.sim_ns_per_iter")
	add(higher, "flag", "core.sim_digest_match")
	add(lower, "count", "core.chaos_attempts", "core.chaos_rungs", "core.recovery_chunk_retries",
		"core.recovery_generation_fallbacks", "core.recovery_repartitions")
	add(lower, "ns", "core.probe_scatter_gather_ns_per_site")
	// memsys, ppc440, qmp: the simulated node's cost model and collectives.
	add(lower, "B", "memsys.edram_bytes", "memsys.ddr_bytes")
	add(higher, "count", "memsys.prefetch_hits")
	add(lower, "count", "memsys.page_misses", "ppc440.kernels")
	add(lower, "flop", "ppc440.flops")
	add(lower, "cycles", "ppc440.compute_cycles", "ppc440.memory_cycles")
	add(lower, "ratio", "ppc440.memory_bound_ratio")
	add(lower, "count", "qmp.global_sums")
	add(lower, "ns", "qmp.gsum_sim_ns_p50")
	add(lower, "us", "qmp.probe_gsum_us")
	// machine: construction, boot, SPMD launch, teardown, pooling.
	add(lower, "s", "machine.build_s", "machine.boot_s", "machine.spmd_s", "machine.shutdown_s")
	add(lower, "MB", "machine.build_alloc_mb")
	add(higher, "ratio", "machine.link_utilization", "machine.pool_reuse_ratio")
	add(higher, "count", "machine.pool_plan_hits")
	add(lower, "count", "machine.pool_pending_events")
	// fleet, checkpoint, qdaemon, faultplan: the campaign layers.
	add(higher, "count", "fleet.runs")
	add(higher, "1/s", "fleet.runs_per_s")
	add(lower, "s", "fleet.serial_s")
	add(higher, "ratio", "fleet.parallel_speedup")
	add(higher, "flag", "fleet.serial_digest_match")
	add(lower, "count", "checkpoint.chunk_writes")
	add(lower, "us", "qdaemon.watchdog_detect_sim_us_p50")
	add(higher, "MB/s", "checkpoint.probe_write_mb_s", "checkpoint.probe_read_mb_s")
	add(lower, "us", "checkpoint.probe_manifest_us", "faultplan.probe_plan_us")
	// telemetry, obs: must move nothing end to end.
	add(lower, "ratio", "telemetry.overhead_ratio")
	add(lower, "ns", "telemetry.probe_hist_record_ns")
	add(lower, "us", "telemetry.probe_snapshot_us")
	add(lower, "ms", "obs.probe_scrape_ms")
	return out
}

// spec is BENCHMARK.json: exactly the keys the driver's contract names.
type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // Bound is zero, so omitted
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one driver run measures.
const runSeconds = 15

func benchmarkSpec() spec {
	s := spec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd(),
		PerLayer:   perLayer(),
	}
	for _, w := range workloads() {
		s.Workloads = append(s.Workloads, workloadDef{w.name, w.why})
	}
	return s
}
