package main

// The benchmark's definition: which workloads exist and why, which
// end-to-end metrics gate a change and by how much they may worsen, and
// which per-layer metrics explain them. BENCHMARK.json at the repository
// root repeats these names for the driver; TestBenchmarkJSONAgrees keeps
// the two in step.

// Workload names.
const (
	wPaperSuite     = "paper_suite"
	wWideGroup      = "wide_group"
	wCacheOverflow  = "cache_overflow"
	wCongestedChurn = "congested_churn"
	wWireReplay     = "wire_replay"
)

// workloadSpec names a workload and records why it was chosen.
type workloadSpec struct {
	Name string
	Why  string
}

// workloadSpecs lists the five workloads in the order a full run
// executes them.
var workloadSpecs = []workloadSpec{
	{wPaperSuite, "the paper's evaluation: 14 small trees, long streams, so per-packet delivery, agent data path and plan replay dominate"},
	{wWideGroup, "512 receivers: per-member O(n^2) session handling and wide fan-out dominate while the flood-plan working set still fits"},
	{wCacheOverflow, "1024 receivers: past the hop matrix and the plan budget, so plan hits ~ misses and tour compilation plus allocation appear"},
	{wCongestedChurn, "finite link queues plus leave/join: floods bypass plans and take the queuing per-hop path; a plan-replay gain must show no change"},
	{wWireReplay, "loopback mesh capture replayed through decode, driver discipline, agent and encode: the per-datagram path with no simulator fan-out"},
}

// Metric directions.
const (
	lower  = "lower"
	higher = "higher"
)

// metricSpec defines one metric. Bound is the share of the baseline's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// End-to-end metric names.
const (
	mWall      = "wall_s"
	mCrossings = "link_crossings_per_s"
	mRecords   = "wire_records_per_s"
	mPeakHeap  = "peak_heap_mb"
	mMallocs   = "mallocs_m"
	mSetup     = "setup_s"
)

// endToEnd lists the six end-to-end metrics with the bounds the driver
// applies (BENCHMARK.json carries the same numbers). The driver takes
// each metric's spread over ten runs of ten different seeds on a shared
// host and wants it inside the bound, so these are wide; compareBound is
// what two results files of one seed are held to. Every metric is host
// cost; simulated-time statistics live under model.* in the per-layer
// list and are correctness evidence, never speed.
var endToEnd = []metricSpec{
	{mWall, "s", lower, 0.25},
	{mCrossings, "1/s", higher, 0.25},
	{mRecords, "1/s", higher, 0.25},
	{mPeakHeap, "MB", lower, 0.25},
	{mMallocs, "M", lower, 0.15},
	{mSetup, "s", lower, 0.25},
}

// compareBound returns the bound -compare applies to an end-to-end
// metric on one workload: 10 % on time, throughput and heap; on
// mallocs_m 2 % for the simulated workloads, where two files of one seed
// run the same allocation sequence, and 10 % for wire_replay, whose
// capture differs from run to run; 25 % on set-up.
func compareBound(m metricSpec, workload string) float64 {
	switch {
	case m.Name == mSetup:
		return 0.25
	case m.Name == mMallocs && workload != wWireReplay:
		return 0.02
	}
	return 0.10
}

// perLayer lists every per-layer metric a traced run reports. A metric
// that does not apply to a workload (the wire.* rows on a simulated
// workload, the simulator rows on wire_replay) reads 0 there.
var perLayer = []metricSpec{
	{"experiment.run_s.srm", "s", lower, 0},
	{"experiment.run_s.cesrm", "s", lower, 0},
	{"experiment.sim_time_ratio", "ratio", higher, 0},
	{"experiment.sharded_speedup", "ratio", higher, 0},
	{"sim.barrier_event_frac", "ratio", lower, 0},
	{"trace.generate_s", "s", lower, 0},
	{"trace.packets", "count", higher, 0},
	{"trace.losses", "count", higher, 0},
	{"lossinfer.estimate_s", "s", lower, 0},
	{"lossinfer.infer_s", "s", lower, 0},
	{"lossinfer.share_of_wall", "ratio", lower, 0},
	{"netsim.crossings.data", "count", higher, 0},
	{"netsim.crossings.session", "count", higher, 0},
	{"netsim.crossings.recovery", "count", lower, 0},
	{"netsim.plan_hit_ratio", "ratio", higher, 0},
	{"netsim.plan_misses", "count", lower, 0},
	{"netsim.plan_evictions", "count", lower, 0},
	{"netsim.queue_drops", "count", lower, 0},
	{"netsim.send.multicast.calls", "count", lower, 0},
	{"netsim.send.multicast.ns_per_call", "ns", lower, 0},
	{"netsim.send.multicast.self_s", "s", lower, 0},
	{"netsim.send.unicast.calls", "count", lower, 0},
	{"netsim.send.unicast.ns_per_call", "ns", lower, 0},
	{"netsim.send.unicast.self_s", "s", lower, 0},
	{"topology.tour_compile_ns_per_entry", "ns", lower, 0},
	{"sim.schedule.calls", "count", lower, 0},
	{"sim.schedule.ns_per_call", "ns", lower, 0},
	{"sim.cancel.calls", "count", lower, 0},
	{"sim.cancel.ns_per_call", "ns", lower, 0},
	{"sim.dispatch_and_delivery.self_s", "s", lower, 0},
	{"srm.deliver.data.calls", "count", lower, 0},
	{"srm.deliver.data.ns_per_call", "ns", lower, 0},
	{"srm.deliver.data.self_s", "s", lower, 0},
	{"srm.deliver.session.calls", "count", lower, 0},
	{"srm.deliver.session.ns_per_call", "ns", lower, 0},
	{"srm.deliver.session.self_s", "s", lower, 0},
	{"srm.deliver.request.calls", "count", lower, 0},
	{"srm.deliver.request.ns_per_call", "ns", lower, 0},
	{"srm.deliver.request.self_s", "s", lower, 0},
	{"srm.deliver.reply.calls", "count", lower, 0},
	{"srm.deliver.reply.ns_per_call", "ns", lower, 0},
	{"srm.deliver.reply.self_s", "s", lower, 0},
	{"srm.timer_fire.calls", "count", lower, 0},
	{"srm.timer_fire.self_s", "s", lower, 0},
	{"core.deliver.data.calls", "count", lower, 0},
	{"core.deliver.data.ns_per_call", "ns", lower, 0},
	{"core.deliver.data.self_s", "s", lower, 0},
	{"core.deliver.session.calls", "count", lower, 0},
	{"core.deliver.session.ns_per_call", "ns", lower, 0},
	{"core.deliver.session.self_s", "s", lower, 0},
	{"core.deliver.request.calls", "count", lower, 0},
	{"core.deliver.request.ns_per_call", "ns", lower, 0},
	{"core.deliver.request.self_s", "s", lower, 0},
	{"core.deliver.exp_request.calls", "count", lower, 0},
	{"core.deliver.exp_request.ns_per_call", "ns", lower, 0},
	{"core.deliver.exp_request.self_s", "s", lower, 0},
	{"core.deliver.reply.calls", "count", lower, 0},
	{"core.deliver.reply.ns_per_call", "ns", lower, 0},
	{"core.deliver.reply.self_s", "s", lower, 0},
	{"core.expedited_success_ratio", "ratio", higher, 0},
	{"srm.requests", "count", lower, 0},
	{"srm.replies", "count", lower, 0},
	{"core.exp_requests", "count", lower, 0},
	{"core.exp_replies", "count", higher, 0},
	{"srm.sessions", "count", lower, 0},
	{"srm.abandoned", "count", lower, 0},
	{"stats.observer.calls", "count", lower, 0},
	{"stats.observer.ns_per_call", "ns", lower, 0},
	{"stats.observer.self_s", "s", lower, 0},
	{"runtime.alloc_mb", "MB", lower, 0},
	{"runtime.gc_cpu_frac", "ratio", lower, 0},
	{"runtime.gc_cycles", "count", lower, 0},
	{"wire.live.wall_s", "s", lower, 0},
	{"wire.live.datagrams_sent", "count", higher, 0},
	{"wire.live.datagrams_received", "count", higher, 0},
	{"wire.live.proxy_forwarded", "count", higher, 0},
	{"wire.live.proxy_dropped", "count", lower, 0},
	{"wire.live.decode_errors", "count", lower, 0},
	{"wire.live.completed_nodes", "count", higher, 0},
	{"wire.live.recoveries", "count", lower, 0},
	{"wire.live.recovery_p50_ms", "ms", lower, 0},
	{"wire.live.recovery_tail_ms", "ms", lower, 0},
	{"wire.live.recovery_tail_pct", "%", higher, 0},
	{"wire.replay.ns_per_record", "ns", lower, 0},
	{"wire.read_capture.ns_per_record", "ns", lower, 0},
	{"netsim.codec.encode_ns", "ns", lower, 0},
	{"netsim.codec.decode_ns", "ns", lower, 0},
	{"netsim.codec.allocs_per_op", "count", lower, 0},
	{"wire.driver.inject_to_deliver_p50_us", "us", lower, 0},
	{"wire.driver.inject_to_deliver_tail_us", "us", lower, 0},
	{"wire.driver.inject_to_deliver_tail_pct", "%", higher, 0},
	{"model.recovery_rtt.srm", "rtt", lower, 0},
	{"model.recovery_rtt.cesrm", "rtt", lower, 0},
	{"model.latency_reduction_pct", "%", higher, 0},
	{"model.expedited_success_pct", "%", higher, 0},
	{"tracing.overhead_frac", "ratio", lower, 0},
	{"tracing.coverage_frac", "ratio", higher, 0},
	{"host.wall_raw_s", "s", lower, 0},
	{"host.slowdown", "ratio", lower, 0},
}
