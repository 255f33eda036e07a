// Package cesrm is the public API of the CESRM library: a complete Go
// implementation of Caching-Enhanced Scalable Reliable Multicast
// (Livadas & Keidar, DSN 2004) together with the SRM baseline of Floyd
// et al., a deterministic packet-level multicast network simulator, a
// calibrated synthetic MBone-trace substrate, the paper's loss-location
// inference pipeline, and a trace-driven evaluation harness.
//
// The package re-exports the stable surface of the internal
// implementation packages so that downstream users need a single
// import:
//
//	import "cesrm"
//
//	tr, _ := cesrm.TraceByName("WRN951216")
//	trace, _ := tr.Load(0.1)
//	pair, _ := cesrm.RunPair(trace, cesrm.RunConfig{})
//	fmt.Printf("CESRM cuts latency %.0f%%\n", pair.LatencyReductionPct())
//
// # Layering
//
//	Engine/RNG        discrete-event simulation core
//	Tree              multicast topology
//	Network           packet transport with loss injection
//	SRMAgent          the SRM baseline protocol endpoint
//	Agent             the CESRM protocol endpoint
//	Trace/Generate    loss traces (synthetic Gilbert-model generator)
//	Infer             §4.2 link attribution
//	Run/RunPair/Suite the paper's evaluation harness
//
// Lower layers are usable on their own: the engine and network make a
// general-purpose deterministic multicast simulator, and the trace and
// inference stages are independent of the protocols.
package cesrm
