package main

// metricDef is one row of BENCHMARK.json: the registry below and that
// file must agree (TestBenchmarkJSONMatchesRegistry).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// Every time metric is at reference speed (divided by the slowdown of
// the reference slices around the batch it was measured in); the
// contract's unit alphabet has no '@', so "ms" here is the issue's
// "ms@ref".
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.02},
	{"allocs_per_op", "count", "lower", 0.02},
	{"live_heap_mb", "MiB", "lower", 0.10},
	{"plan_tput_geomean", "samples/sec", "higher", 0.001},
}

var perLayer = []metricDef{
	{Name: "symbolic.evalframe_ns", Unit: "ns", Better: "lower"},
	{Name: "symbolic.compile_us", Unit: "us", Better: "lower"},
	{Name: "graph.trace_layer_us", Unit: "us", Better: "lower"},
	{Name: "interference.predict_ns", Unit: "ns", Better: "lower"},
	{Name: "interference.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.eval_ns_per_cand", Unit: "ns", Better: "lower"},
	{Name: "schedule.program_build_ms", Unit: "ms", Better: "lower"},
	{Name: "evalcache.miss_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "evalcache.hit_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "evalcache.bytes_per_point", Unit: "B", Better: "lower"},
	{Name: "core.candidates_per_op", Unit: "count", Better: "lower"},
	{Name: "core.unique_evals_per_op", Unit: "count", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.sg_pairs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.pruned_per_op", Unit: "count", Better: "higher"},
	{Name: "core.aborted_pairs_per_op", Unit: "count", Better: "higher"},
	{Name: "core.calibrate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.tune_ms_ref_cell", Unit: "ms", Better: "lower"},
	{Name: "core.tune_milp_ms", Unit: "ms", Better: "lower"},
	{Name: "core.intra_sweep_share", Unit: "ratio", Better: "lower"},
	{Name: "core.inter_stage_share", Unit: "ratio", Better: "lower"},
	{Name: "core.speedup_vs_megatron_geomean", Unit: "ratio", Better: "higher"},
	{Name: "milp.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.playback_us", Unit: "us", Better: "lower"},
	{Name: "trainsim.measure_us", Unit: "us", Better: "lower"},
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "store.get_ns", Unit: "ns", Better: "lower"},
	{Name: "store.nearest_us", Unit: "us", Better: "lower"},
	{Name: "store.put_disk_us", Unit: "us", Better: "lower"},
	{Name: "cluster.ring_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.forward_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.tune_hit_local_us", Unit: "us", Better: "lower"},
	{Name: "serve.tune_hit_forwarded_us", Unit: "us", Better: "lower"},
	{Name: "serve.simulate_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.stats_us", Unit: "us", Better: "lower"},
	{Name: "serve.metrics_us", Unit: "us", Better: "lower"},
	{Name: "serve.tune_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.reject_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.phase.admission_us", Unit: "us", Better: "lower"},
	{Name: "serve.phase.forward_us", Unit: "us", Better: "lower"},
	{Name: "serve.phase.store_check_us", Unit: "us", Better: "lower"},
	{Name: "serve.phase.prepare_us", Unit: "us", Better: "lower"},
	{Name: "serve.phase.search_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.phase.replication_us", Unit: "us", Better: "lower"},
	{Name: "jobs.submit_us", Unit: "us", Better: "lower"},
	{Name: "jobs.submit_to_done_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.expose_us", Unit: "us", Better: "lower"},
	{Name: "trace.span_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "slo.evaluate_ns", Unit: "ns", Better: "lower"},
	{Name: "pilot.evaluate_ns", Unit: "ns", Better: "lower"},
	{Name: "client.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.op_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ops", Unit: "count", Better: "higher"},
	{Name: "client.failed", Unit: "count", Better: "lower"},
	{Name: "bench.raw_ops_per_s", Unit: "op/s", Better: "higher"},
	{Name: "bench.raw_op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.slowdown_p50", Unit: "ratio", Better: "lower"},
	{Name: "bench.slowdown_p90", Unit: "ratio", Better: "lower"},
	{Name: "bench.ref_share", Unit: "ratio", Better: "lower"},
}

var workloads = []workload{
	{
		name:    "search-cold",
		why:     "fresh full-space searches: symbolic, interference, schedule and core's sweep do nearly all the work, evalcache is write-mostly, serve/cluster/store do nothing",
		clients: 1,
		setup:   setupSearchCold,
	},
	{
		name:    "search-reuse",
		why:     "batch sweeps and re-tunes on a shared analyzer and evalcache: lookup, interning and incumbent pruning dominate, raw pricing does little - the other side of the cache trade",
		clients: 1,
		setup:   setupSearchReuse,
	},
	{
		name:    "fleet-warm",
		why:     "service read path on a 3-node fleet: repeats of 24 tuned fingerprints plus /stats and /metrics - serve, cluster and metrics do all the work, the paper core none",
		clients: warmClients,
		setup:   setupFleetWarm,
	},
	{
		name:    "fleet-mixed",
		why:     "service write path on fresh 3-node fleets: cold tunes, repeats, simulates and async jobs - store puts, replication, jobs and eval-registry prepare run beside core",
		clients: 1,
		setup:   setupFleetMixed,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
