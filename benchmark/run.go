package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"cesrm/internal/experiment"
	"cesrm/internal/lossinfer"
	"cesrm/internal/topology"
)

// runOptions selects what one workload run measures.
type runOptions struct {
	Seed int64
	// EndToEnd asks for the timed passes; Layers for the per-layer
	// metrics (one reference pass, reusing a timed one when there is one,
	// plus the traced pass).
	EndToEnd, Layers bool
	// Seconds, when positive, keeps adding timed passes until that much
	// measurement has accumulated; otherwise Passes passes run.
	Seconds float64
	Passes  int
	// Scale shrinks the inputs; 1 is the benchmark, less is for tests.
	Scale float64
	// SpansOut, when non-nil, receives the traced pass's raw spans.
	SpansOut io.Writer
	// Probe, when non-nil, is the host yardstick every timed pass carries.
	Probe *hostProbe
}

// sample is one end-to-end metric's values over the timed passes.
type sample struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func newSample(unit string, values []float64) sample {
	s := sorted(values)
	return sample{Unit: unit, Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s), Values: values}
}

// workloadResult is everything one workload run reports.
type workloadResult struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]sample `json:"end_to_end,omitempty"`
	// Host holds, per timed pass, the measured wall seconds and the host
	// yardstick's slowdown that wall_s and the two rates were derived from.
	Host     map[string]sample  `json:"host,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Runs holds the first pass's per-run records: the fingerprints,
	// crossing counts and simulated statistics two files must agree on.
	Runs []runRecord `json:"runs,omitempty"`
	// Link says what the wire tier's traffic crossed.
	Link string `json:"link,omitempty"`
}

func (w *workloadResult) absorb(p *passResult) {
	w.Attempted += p.Attempted
	w.Failures = append(w.Failures, p.Failures...)
}

// timedPasses runs the timed passes o asks for and reduces them to the
// end-to-end metrics; a run that wants only the per-layer metrics gets
// the one untraced pass they are derived from. pass is handed the first
// pass (nil while there is none) to compare later ones with.
func (w *workloadResult) timedPasses(o runOptions, setups []float64, pass func(first *passResult) *passResult) []*passResult {
	var passes []*passResult
	add := func() float64 {
		var first *passResult
		if len(passes) > 0 {
			first = passes[0]
		}
		p := pass(first)
		w.absorb(p)
		passes = append(passes, p)
		return p.WallS
	}
	if !o.EndToEnd {
		add()
		return passes
	}
	for measured := 0.0; len(passes) < o.Passes || measured < o.Seconds; {
		measured += add()
	}
	w.EndToEnd, w.Host = endToEndSamples(passes, setups)
	return passes
}

// tracedEvery is the traced pass's sampling period: every 32nd top-level
// event is timed with all of its children, every call is counted.
const tracedEvery = 32

// A simulated workload's set-up is repeated so setup_s can be a median:
// at least setupMinReps times, then until setupBudget has been spent or
// setupMaxReps is reached (the smoke tests' scale shrinks the budget with
// the inputs). The two big groups set up in 13 and 34 ms, and
// the median of five such readings moved by half its value between runs.
// The wire mesh runs in real time (about ten seconds, fixed by its timers)
// and is set up once.
const (
	setupMinReps = 5
	setupMaxReps = 41
	setupBudget  = 2 * time.Second
)

// runWorkload measures one workload.
func runWorkload(name string, o runOptions) (*workloadResult, error) {
	if name == wWireReplay {
		return runWireWorkload(o)
	}
	w := &workloadResult{Name: name}

	var in *simInputs
	var setups []float64
	budget := time.Duration(float64(setupBudget) * o.Scale)
	for begun := time.Now(); len(setups) < setupMinReps || (len(setups) < setupMaxReps && time.Since(begun) < budget); {
		started := time.Now()
		var err error
		if in, err = buildSimInputs(name, o.Seed, o.Scale); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(started).Seconds())
	}

	// Warm up on the smallest input: page in the code and let the runtime
	// size its heap before anything is timed.
	size := func(r simRun) int { return r.Trace.NumPackets() * r.Trace.NumReceivers() }
	smallest := in.Runs[0]
	for _, r := range in.Runs {
		if size(r) < size(smallest) {
			smallest = r
		}
	}
	w.Attempted++
	if _, err := runOne(smallest, in.Seed, 0, nil); err != nil {
		w.Failures = append(w.Failures, fmt.Sprintf("warm-up %s/%s: %v", smallest.Trace.Name, smallest.Protocol, err))
	}

	passes := w.timedPasses(o, setups, func(first *passResult) *passResult {
		var want []runRecord
		if first != nil {
			want = first.Runs
		}
		return runSimPass(name, in, 0, want, o.Probe)
	})
	if o.Layers {
		if err := simLayers(w, name, in, passes[len(passes)-1], median(setups), o); err != nil {
			return nil, err
		}
	}
	w.Runs = passes[0].Runs
	w.Failed = len(w.Failures)
	return w, nil
}

// quietSeconds converts a pass's measured wall time to quiet-host
// seconds: divided by the yardstick's slowdown during that pass.
func quietSeconds(p *passResult) float64 { return p.WallS / p.Slowdown }

// endToEndSamples reduces the timed passes to the six end-to-end
// metrics. The three time-based ones are in quiet-host seconds.
func endToEndSamples(passes []*passResult, setups []float64) (metrics, host map[string]sample) {
	cols := map[string][]float64{}
	var raw, slowdown []float64
	for _, p := range passes {
		raw, slowdown = append(raw, p.WallS), append(slowdown, p.Slowdown)
		wall := quietSeconds(p)
		cols[mWall] = append(cols[mWall], wall)
		cols[mCrossings] = append(cols[mCrossings], float64(p.Work)/wall)
		cols[mRecords] = append(cols[mRecords], float64(p.Records)/wall)
		cols[mPeakHeap] = append(cols[mPeakHeap], p.PeakHeapMB)
		cols[mMallocs] = append(cols[mMallocs], p.MallocsM)
	}
	cols[mSetup] = setups
	metrics = map[string]sample{}
	for _, m := range endToEnd {
		metrics[m.Name] = newSample(m.Unit, cols[m.Name])
	}
	return metrics, map[string]sample{"wall_raw_s": newSample("s", raw), "slowdown": newSample("ratio", slowdown)}
}

// passLayers records the reference pass's runtime counters and what it
// measured before the yardstick's correction.
func passLayers(l map[string]float64, ref *passResult) {
	l["runtime.alloc_mb"] = ref.AllocMB
	l["runtime.gc_cpu_frac"] = ref.GCCPUFrac
	l["runtime.gc_cycles"] = ref.GCCycles
	l["host.wall_raw_s"] = ref.WallS
	l["host.slowdown"] = ref.Slowdown
}

// zeroLayers returns a per-layer map with every metric present; a layer
// a workload never enters stays 0.
func zeroLayers() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = 0
	}
	return out
}

// simLayers fills in a simulated workload's per-layer metrics from the
// reference pass's outside counters, standalone spans around the layers
// Run calls once per run, and the traced pass.
func simLayers(w *workloadResult, name string, in *simInputs, ref *passResult, setupS float64, o runOptions) error {
	l := zeroLayers()
	w.PerLayer = l

	var simSeconds float64
	var hits, misses float64
	var srmRTT, cesrmRTT, reduction, expSuccess []float64
	for i, r := range ref.Runs {
		switch in.Runs[i].Protocol {
		case experiment.SRM:
			l["experiment.run_s.srm"] += r.WallS
			srmRTT = append(srmRTT, r.MeanRTT)
		case experiment.CESRM:
			l["experiment.run_s.cesrm"] += r.WallS
			cesrmRTT = append(cesrmRTT, r.MeanRTT)
			if s := ref.Runs[i-1]; s.MeanRTT > 0 {
				reduction = append(reduction, 100*(s.MeanRTT-r.MeanRTT)/s.MeanRTT)
			}
			if r.Counts.ExpRequests > 0 {
				expSuccess = append(expSuccess, 100*float64(r.Counts.ExpReplies)/float64(r.Counts.ExpRequests))
			}
		}
		simSeconds += time.Duration(r.FinishedAtNS).Seconds()
		l["netsim.crossings.data"] += float64(r.Data)
		l["netsim.crossings.session"] += float64(r.Session)
		l["netsim.crossings.recovery"] += float64(r.Recovery)
		hits += float64(r.Plan.Hits)
		misses += float64(r.Plan.Misses)
		l["netsim.plan_evictions"] += float64(r.Plan.Evictions)
		l["netsim.queue_drops"] += float64(r.QueueDrops)
		l["srm.requests"] += float64(r.Counts.Requests)
		l["srm.replies"] += float64(r.Counts.Replies)
		l["core.exp_requests"] += float64(r.Counts.ExpRequests)
		l["core.exp_replies"] += float64(r.Counts.ExpReplies)
		l["srm.sessions"] += float64(r.Counts.Sessions)
		l["srm.abandoned"] += float64(r.Abandoned)
	}
	l["experiment.sim_time_ratio"] = simSeconds / ref.WallS
	l["netsim.plan_misses"] = misses
	if hits+misses > 0 {
		l["netsim.plan_hit_ratio"] = hits / (hits + misses)
	}
	if e := l["core.exp_requests"]; e > 0 {
		l["core.expedited_success_ratio"] = l["core.exp_replies"] / e
	}
	l["model.recovery_rtt.srm"] = mean(srmRTT)
	l["model.recovery_rtt.cesrm"] = mean(cesrmRTT)
	l["model.latency_reduction_pct"] = mean(reduction)
	l["model.expedited_success_pct"] = mean(expSuccess)
	passLayers(l, ref)

	l["trace.generate_s"] = setupS
	var tourNS, tourEntries float64
	for _, tr := range in.Traces {
		l["trace.packets"] += float64(tr.NumPackets())
		l["trace.losses"] += float64(tr.TotalLosses())

		// Every Run repeats the two inference steps on its trace; time
		// them once each, alone.
		started := time.Now()
		rates := lossinfer.EstimateYajnik(tr)
		estimated := time.Now()
		if _, err := lossinfer.Infer(tr, rates); err != nil {
			return err
		}
		l["lossinfer.estimate_s"] += estimated.Sub(started).Seconds()
		l["lossinfer.infer_s"] += time.Since(estimated).Seconds()

		// What a plan-cache miss compiles: the tour from every host.
		started = time.Now()
		for _, origin := range append([]topology.NodeID{tr.Tree.Root()}, tr.Tree.Receivers()...) {
			tourEntries += float64(len(tr.Tree.FloodTour(origin, false).Entries))
		}
		tourNS += float64(time.Since(started))
	}
	runsPerTrace := float64(len(in.Runs) / len(in.Traces))
	l["lossinfer.share_of_wall"] = runsPerTrace * (l["lossinfer.estimate_s"] + l["lossinfer.infer_s"]) / ref.WallS
	l["topology.tour_compile_ns_per_entry"] = tourNS / tourEntries

	var barrier float64
	if name == wWideGroup {
		// The sharded configuration is ROADMAP item 2's keep-or-delete
		// number. It gates nothing end to end (every end-to-end metric is
		// serial); its fingerprints must equal the serial pass's.
		sharded := runSimPass(name, in, runtime.GOMAXPROCS(0), ref.Runs, nil)
		w.absorb(sharded)
		l["experiment.sharded_speedup"] = ref.WallS / sharded.WallS
		for _, r := range sharded.Runs {
			barrier += float64(r.Barrier)
		}
	}
	if name != wCongestedChurn {
		executed, err := tracedLayers(w, in, ref, o.SpansOut)
		if err != nil {
			return err
		}
		// Sharded and serial dispatch execute the same events, so the
		// traced serial runs supply the denominator.
		if executed > 0 {
			l["sim.barrier_event_frac"] = barrier / float64(executed)
		}
	}
	return nil
}

// tracedLayers runs the traced pass over the workload's operations and
// turns its spans into the per-layer span metrics. A traced run whose
// counters differ from the reference pass's untraced run of the same
// configuration did not perform the same computation and is a failed
// operation. It returns the number of engine events the traced runs
// executed.
func tracedLayers(w *workloadResult, in *simInputs, ref *passResult, spansOut io.Writer) (uint64, error) {
	l := w.PerLayer
	t := newTracer(tracedEvery, spansOut)
	shared := layerNames{
		timerFire: t.name("srm.timer_fire"),
		schedule:  t.name("sim.schedule"),
		cancel:    t.name("sim.cancel"),
		multicast: t.name("netsim.send.multicast"),
		unicast:   t.name("netsim.send.unicast"),
		observer:  t.name("stats.observer"),
		transmit:  t.name("experiment.transmit"),
		monitor:   t.name("experiment.monitor"),
	}
	kinds := [numDeliverKinds]string{"data", "session", "request", "exp_request", "reply"}
	names := map[experiment.Protocol]*layerNames{}
	for proto, prefix := range map[experiment.Protocol]string{experiment.SRM: "srm", experiment.CESRM: "core"} {
		n := shared
		for k, kind := range kinds {
			n.deliver[k] = t.name(prefix + ".deliver." + kind)
		}
		names[proto] = &n
	}

	var wall, engineWall time.Duration
	var executed uint64
	for i, run := range in.Runs {
		w.Attempted++
		label := "traced " + run.Trace.Name + "/" + run.Protocol.String()
		got, err := runAssembled(t, names[run.Protocol], run.Trace, run.Protocol, in.Seed)
		if err != nil {
			w.Failures = append(w.Failures, label+": "+err.Error())
			continue
		}
		want := ref.Runs[i]
		if got.Crossings != want.crossings || got.Counts != want.Counts || got.Losses != want.Losses || int64(got.FinishedAt) != want.FinishedAtNS {
			w.Failures = append(w.Failures, fmt.Sprintf("%s: counters differ from the untraced run: crossings %+v vs %+v, messages %+v vs %+v, losses %d vs %d, finished %d vs %d",
				label, got.Crossings, want.crossings, got.Counts, want.Counts, got.Losses, want.Losses, got.FinishedAt, want.FinishedAtNS))
		}
		wall += got.Wall
		engineWall += got.EngineWall
		executed += got.Executed
	}

	for i, n := range t.names {
		id := spanName(i)
		for suffix, v := range map[string]float64{".calls": t.calls(id), ".ns_per_call": t.nsPerCall(id), ".self_s": t.selfSeconds(id)} {
			if _, ok := l[n+suffix]; ok {
				l[n+suffix] = v
			}
		}
	}
	// What is left of the engine's wall time once every top-level event
	// and the tracer's own cost are taken out: the wheel and netsim's
	// delivery events. Timing an event serializes it, so on the two big
	// groups, where consecutive deliveries' cache misses otherwise
	// overlap, the timed spans can add up to more than the wall time;
	// nothing is left then, and tracing.coverage_frac reads above 1.
	l["sim.dispatch_and_delivery.self_s"] = math.Max(0, engineWall.Seconds()-float64(t.topLevel+t.overheadNS)/1e9)
	l["tracing.overhead_frac"] = wall.Seconds()/ref.WallS - 1
	l["tracing.coverage_frac"] = t.selfTotal() / wall.Seconds()
	return executed, nil
}

// runWireWorkload measures wire_replay. Its operations are the mesh
// nodes, which must all complete, and the replays, which must all
// conform.
func runWireWorkload(o runOptions) (*workloadResult, error) {
	w := &workloadResult{Name: wWireReplay, Link: "loopback"}
	started := time.Now()
	in, err := captureMesh(o.Seed, scaled(meshPackets, o.Scale, 40))
	if err != nil {
		return nil, err
	}
	setupS := time.Since(started).Seconds()
	w.Attempted += len(in.Nodes)
	w.Failures = append(w.Failures, in.Failures...)

	warm := &passResult{}
	replayOnce(in, warm, func() {})
	w.absorb(warm)

	replays := scaled(replaysPerRound, o.Scale, 2)
	passes := w.timedPasses(o, []float64{setupS}, func(*passResult) *passResult {
		return runReplayRound(in, replays, o.Probe)
	})
	if o.Layers {
		ref := passes[len(passes)-1]
		spans, err := measureWireSpans(in, o.Scale)
		if err != nil {
			return nil, err
		}
		w.Attempted++
		w.Failures = append(w.Failures, spans.driverFailures...)
		l := zeroLayers()
		w.PerLayer = l
		live := in.Live
		l["wire.live.wall_s"] = live.WallS
		l["wire.live.datagrams_sent"] = float64(live.Sent)
		l["wire.live.datagrams_received"] = float64(live.Received)
		l["wire.live.proxy_forwarded"] = float64(live.Forwarded)
		l["wire.live.proxy_dropped"] = float64(live.Dropped)
		l["wire.live.decode_errors"] = float64(live.DecodeErrors)
		l["wire.live.completed_nodes"] = float64(live.Completed)
		l["wire.live.recoveries"] = float64(live.Recoveries)
		l["wire.live.recovery_p50_ms"] = live.RecoveryP50MS
		l["wire.live.recovery_tail_ms"] = live.RecoveryTailMS
		l["wire.live.recovery_tail_pct"] = live.RecoveryPct
		l["wire.replay.ns_per_record"] = 1e9 * ref.WallS / float64(ref.Records)
		l["wire.read_capture.ns_per_record"] = spans.ReadCaptureNS
		l["netsim.codec.encode_ns"] = spans.EncodeNS
		l["netsim.codec.decode_ns"] = spans.DecodeNS
		l["netsim.codec.allocs_per_op"] = spans.CodecAllocs
		l["wire.driver.inject_to_deliver_p50_us"] = spans.DriverP50US
		l["wire.driver.inject_to_deliver_tail_us"] = spans.DriverTailUS
		l["wire.driver.inject_to_deliver_tail_pct"] = spans.DriverTailPct
		passLayers(l, ref)
	}
	w.Failed = len(w.Failures)
	return w, nil
}
