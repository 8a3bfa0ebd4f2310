package main

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's output schema: every run prints every metric of its
// mode, so the names here and in BENCHMARK.json must agree (a test checks).
type metricDef struct {
	name, unit string
}

// endToEnd is printed with --trace 0, measured with tracing off.
var endToEnd = []metricDef{
	{"sim_instr_per_s", "instr/s"},
	{"window_s_p50", "s"},
	{"job_s_p50", "s"},
	{"job_s_p90", "s"},
	{"jobs_per_s", "jobs/s"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"allocs_per_minstr", "count"},
}

// perLayer is printed with --trace 1. A layer a workload does not run
// through, or cannot be timed from outside on it, reads 0 (README.md lists
// which layers each workload exercises).
var perLayer = []metricDef{
	// sim driver and event scheduling (loaded, idle).
	{"sim.tick_calls", "count"},
	{"sim.tick_s", "s"},
	{"sim.ns_per_tick", "ns"},
	{"sim.tick_self_s", "s"},
	{"sim.cycles", "cycles"},
	{"sim.skip_ratio", "ratio"},
	{"sim.next_event_calls", "count"},
	{"sim.next_event_s", "s"},
	{"sim.next_event_share", "ratio"},
	// sim construction and warm state (all).
	{"sim.capture_warm_s", "s"},
	{"sim.new_system_s", "s"},
	// cxl backend, including its device DDR FR-FCFS (loaded, idle).
	{"cxl.tick_calls", "count"},
	{"cxl.tick_s", "s"},
	{"cxl.ns_per_tick", "ns"},
	{"cxl.next_event_calls", "count"},
	{"cxl.next_event_s", "s"},
	{"cxl.sync_calls", "count"},
	{"cxl.enqueue_calls", "count"},
	{"cxl.enqueue_refused", "count"},
	{"cxl.refused_ratio", "ratio"},
	// trace generation (all).
	{"trace.ns_per_instr", "ns"},
	// model counts from the Result (all); must not move under perf work.
	{"cpu.ipc", "instr/cycle"},
	{"cpu.retired_instr", "count"},
	{"cache.llc_mpki", "1/kinstr"},
	{"cache.llc_miss_ratio", "ratio"},
	{"dram.row_hit_ratio", "ratio"},
	{"dram.queue_ns", "ns"},
	{"dram.service_ns", "ns"},
	{"dram.utilization", "ratio"},
	{"cxl.link_ns", "ns"},
	{"noc.onchip_ns", "ns"},
	{"calm.fp_discarded", "count"},
	// rack (rack2h).
	{"rack.measure_cycles_per_s", "cycles/s"},
	{"rack.jain_fairness", "ratio"},
	{"rack.device_queue_p99_cycles", "cycles"},
	// serve (serve_sweep).
	{"serve.submit_s_p50", "s"},
	{"serve.queue_wait_s_p50", "s"},
	{"serve.engine_s_p50", "s"},
	{"serve.overhead_s_p50", "s"},
	{"serve.points_started", "count"},
	{"serve.points_coalesced", "count"},
	{"serve.rejected", "count"},
	// coaxial Runner warm cache (all).
	{"coaxial.warm_captures", "count"},
	{"coaxial.warm_entries", "count"},
	// Go runtime over the traced phase, per operation except the p99 (all).
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_objects", "count"},
	{"runtime.alloc_bytes", "bytes"},
	{"runtime.sched_latency_p99_s", "s"},
	// traced median operation time over the untraced one, minus one.
	{"trace_overhead_ratio", "ratio"},
}
