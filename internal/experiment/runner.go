// Package experiment wires together traces, loss inference, the network
// simulator, the protocol agents and metrics collection to reproduce the
// paper's trace-driven evaluation (§4): it replays a trace's packet loss
// pattern through SRM or CESRM and reports the figures' metrics.
package experiment

import (
	"fmt"
	"strings"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/core"
	"cesrm/internal/lms"
	"cesrm/internal/lossinfer"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// Protocol selects which recovery protocol a run simulates.
type Protocol int

const (
	// SRM is the baseline Scalable Reliable Multicast protocol.
	SRM Protocol = iota
	// CESRM is the caching-enhanced protocol.
	CESRM
	// LMS is the router-assisted Light-weight Multicast Services
	// baseline (§3.3/§5 comparison).
	LMS
)

// String returns the protocol name.
func (p Protocol) String() string {
	switch p {
	case SRM:
		return "SRM"
	case CESRM:
		return "CESRM"
	case LMS:
		return "LMS"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// ParseProtocol parses a protocol name, case-insensitively.
func ParseProtocol(s string) (Protocol, error) {
	for _, p := range []Protocol{SRM, CESRM, LMS} {
		if strings.EqualFold(strings.TrimSpace(s), p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("experiment: unknown protocol %q", s)
}

// RunConfig parameterizes one trace-driven simulation run.
type RunConfig struct {
	// Trace is the transmission to reenact.
	Trace *trace.Trace
	// Protocol selects SRM or CESRM.
	Protocol Protocol
	// Net holds the physical network parameters; the zero value selects
	// netsim.DefaultConfig (20 ms links, 1.5 Mbps).
	Net netsim.Config
	// SRM holds scheduling parameters; the zero value selects
	// srm.DefaultParams.
	SRM srm.Params
	// CESRM holds CESRM-specific settings; its SRM field is overwritten
	// by the run's SRM parameters.
	CESRM core.Config
	// LMSRefresh is the router replier-state staleness window after a
	// crash report; zero selects 5 s.
	LMSRefresh time.Duration
	// Adaptive enables SRM's adaptive timer adjustment on every host
	// (Floyd et al. ToN 1997 §VI); the paper's evaluation uses fixed
	// parameters.
	Adaptive srm.AdaptiveConfig
	// Jitter adds a uniform random delay in [0, Jitter) to every
	// delivery, producing transient packet reordering. The paper's
	// simulations never reorder (REORDER-DELAY is 0 there); jitter
	// exercises the REORDER-DELAY mechanism. With jitter enabled hosts
	// may transiently classify in-flight packets as lost, so the
	// detected-loss cross-check against the trace is skipped.
	Jitter time.Duration
	// LossyRecovery additionally drops recovery traffic (requests,
	// replies, expedited traffic — never session messages) with the
	// per-link estimated loss probabilities, as in the paper's companion
	// experiments. The default reproduces the paper's main setup:
	// lossless recovery.
	LossyRecovery bool
	// Chaos, when non-nil, installs the deterministic fault-injection
	// harness, the one way to fault a host: crashes and restarts,
	// graceful leaves and joins, plus link flaps, jitter ramps, duplicate
	// storms, queue-cap windows and session starvation, all scheduled
	// through the engine so the run fingerprint stays a pure function of
	// the configuration. Crashed and departed receivers are exempt from
	// the completion and reliability checks; the source can be neither.
	// Chaos runs skip the trace loss cross-check (a restarted host
	// legitimately re-detects everything) and arm the validator's
	// post-crash-silence and bounded-fallback invariants.
	Chaos *chaos.Spec
	// Budget installs the engine's optional guardrails: bounds on
	// virtual time, dispatched events and pending timers, plus the
	// same-instant progress watchdog. A run that trips a bound
	// terminates with a structured RunResult.Status and Diag instead of
	// overflowing or hanging. The zero value disables every guardrail
	// and leaves run fingerprints byte-identical to budget-free builds.
	Budget sim.Budget
	// KeepEvents retains the ordered protocol-event stream in
	// RunResult.Events. The v2 fingerprint digests events as they happen,
	// so retention is opt-in: timeline dumps (-events) and
	// event-inspecting tests set it; everything else runs with Events nil
	// and memory independent of the event count.
	KeepEvents bool
	// ReleaseRecovered enables mid-run release of fully-recovered
	// per-packet state: once every present host holds every packet below
	// a watermark — and a drain lag has covered in-flight traffic — the
	// protocol agents, the group's reply plane and the validator discard
	// that prefix, and the collector folds recovery-latency metrics into
	// online accumulators instead of retaining records.
	// Release performs no engine operations, so fingerprints are
	// byte-identical with it on or off. Retained-record APIs
	// (Collector.Recoveries) are empty for such runs. Forced off when
	// Chaos contains restart faults: a restarted host re-detects and
	// re-recovers everything, so no prefix is ever globally dead. Every
	// other chaos kind (crash-only, link flaps, jitter ramps, duplicate
	// storms, starvation, queue caps, leaves and joins) keeps the
	// watermark sound and releases normally: a departed host does not
	// vote, and one that joins is owed nothing below the floor its first
	// post-join evidence sets, which the run checks lies at or above the
	// watermark (see watermarkRelease).
	ReleaseRecovered bool
	// Shards is accepted and ignored: sharded dispatch was deleted
	// (DESIGN.md §13) and every run is serial. The field remains only
	// because benchmark/, which this repo may not edit outside a
	// benchmark PR, still sets it; it goes with that pass (ROADMAP item 5).
	Shards int
	// HeapProbe, when non-nil, is invoked on every monitor tick (once
	// per session period of virtual time); the benchmark installs a heap
	// high-watermark sampler so peak-memory reporting cannot miss spikes
	// between wall-clock samples.
	HeapProbe func()
	// Seed drives all protocol randomness (timer draws, session
	// offsets, lossy-recovery drops).
	Seed int64
}

// warmupPeriods is the session exchange before the first data packet,
// in session periods: long enough for hosts to learn inter-host
// distances.
const warmupPeriods = 3

// maxTail bounds the virtual time a run may spend recovering after the
// last data packet. Exceeding it fails the run with a QuiesceError.
const maxTail = 10 * time.Minute

// RunResult carries a completed run's metrics.
type RunResult struct {
	// Config echoes the run configuration.
	Config RunConfig
	// Collector holds the protocol-event metrics.
	Collector *stats.Collector
	// Crossings holds the link-crossing cost counters.
	Crossings netsim.CrossingCounts
	// InferredRates is the link loss estimate that drove loss injection.
	InferredRates lossinfer.LinkRates
	// InferenceConfidence95 is the §4.2 confidence statistic of the
	// link attribution (fraction of selections above 0.95 probability).
	InferenceConfidence95 float64
	// FinishedAt is the virtual time at which all losses had been
	// recovered and the run quiesced.
	FinishedAt sim.Time
	// Fingerprint is the run's canonical determinism digest
	// ("v2:<32 hex chars>"): a hash over the ordered protocol-event
	// stream, the link-crossing counters, the finish time and the
	// per-receiver recovery metrics. Two runs of the same RunConfig must
	// produce identical fingerprints; see VerifyDeterminism.
	Fingerprint string
	// Events is the ordered protocol-event stream the fingerprint
	// digests, usable as a debugging timeline
	// (stats.WriteEventsNDJSON). Nil unless RunConfig.KeepEvents was
	// set.
	Events []stats.Event
	// SpuriousExpedited counts expedited requests sent for packets the
	// trace never lost — reordering mirages (only nonzero with Jitter
	// and a REORDER-DELAY below the jitter magnitude).
	SpuriousExpedited int
	// RTT returns a receiver's round-trip normalization basis (its RTT
	// to the source), for use with the Collector's aggregations.
	RTT stats.RTTFunc
	// Receivers lists the receiver nodes in trace order.
	Receivers []topology.NodeID
	// PlanStats snapshots the flood plan cache's hit/miss/evict counters.
	PlanStats netsim.PlanStats
	// Engine snapshots the engine as the run ended: events executed,
	// records allocated and cascades, for the cost ledger (RenderCosts).
	Engine sim.Snapshot
	// FloodEvents counts the flood delivery events the network allocated.
	FloodEvents uint64
	// Deliveries counts the packets the network handed to hosts, by path.
	Deliveries netsim.Deliveries
	// Inline and InlineReply count the session and reply cohort
	// deliveries the member group served without a Deliver call
	// (srm.Group.DeliverCohort); zero for LMS.
	Inline, InlineReply uint64
	// BarrierEvents is always 0; like RunConfig.Shards it remains only
	// because benchmark/ still reads it.
	BarrierEvents uint64
	// QueueDrops counts packets tail-dropped by finite link queues
	// (congestion loss), separate from the Gilbert/trace-driven channel
	// loss in Crossings. Zero unless a queue cap was configured.
	QueueDrops uint64
	// WatermarkCells counts the per-packet cells the release monitor's
	// watermark scans read over the run (zero with release off): on the
	// order of hosts × the in-flight window a tick, however long one
	// stalled host pins the watermark.
	WatermarkCells uint64
	// RepliesArmed counts the reply timers SRM's request handling armed
	// (srm.Agent.RepliesArmed), summed over hosts; zero for LMS.
	RepliesArmed uint64
	// AuditCells is the validator's per-packet audit table at its
	// largest (stats.Validator.PeakCells): the whole run's losses with
	// release off, about the in-flight window with it on.
	AuditCells int
	// PeakOutstanding is the most detected-but-unrecovered losses one
	// host held at once (the agents' PeakOutstanding, maximised over
	// hosts): the largest loss backlog the run needed.
	PeakOutstanding int
	// Abandoned counts losses receivers gave up on after the
	// bounded-retry limit (Params.MaxRequestRounds), summed over hosts.
	// Stage 5 reconciles each receiver's missing packets against its
	// abandonment count, so a nonzero value is accounted-for degradation,
	// not silent data loss.
	Abandoned int
	// Status reports how the engine terminated. The zero value,
	// sim.Completed, is the only status budget-free runs ever produce;
	// any other value means a RunConfig.Budget guardrail aborted the run
	// and Diag describes where it stood.
	Status sim.TerminationStatus
	// Diag is the diagnostic snapshot of a budget-aborted run; nil when
	// Status is sim.Completed.
	Diag *Diagnostic
}

// Diagnostic snapshots a budget-aborted run: where the virtual clock
// stood, how much work was queued and done, which receivers still had
// unrecovered losses, and any invariant violations the online validator
// had already accumulated.
type Diagnostic struct {
	// Clock is the virtual instant of the last executed event.
	Clock sim.Time
	// Pending counts live scheduled events left in the queue.
	Pending int
	// Executed counts events dispatched before the abort.
	Executed uint64
	// Outstanding lists receivers with unrecovered losses, in trace
	// receiver order (crashed hosts excluded — they can never recover).
	Outstanding []HostOutstanding
	// Violations holds the validator's breaches observed before the
	// abort, if any.
	Violations []stats.Violation
}

// HostOutstanding is one receiver's unrecovered-loss count.
type HostOutstanding struct {
	Host        topology.NodeID
	Outstanding int
}

// String renders the diagnostic on one line.
func (d *Diagnostic) String() string {
	s := fmt.Sprintf("clock=%v pending=%d executed=%d", d.Clock, d.Pending, d.Executed)
	for _, h := range d.Outstanding {
		s += fmt.Sprintf(" host%d:outstanding=%d", h.Host, h.Outstanding)
	}
	if n := len(d.Violations); n > 0 {
		s += fmt.Sprintf(" violations=%d first=%q", n, d.Violations[0].Detail)
	}
	return s
}

// QuiesceError reports that a run failed to recover every loss within
// maxTail after the last data packet — a protocol liveness failure (or
// extreme lossy-recovery unluck). It is typed so harnesses can classify
// it apart from invariant violations.
type QuiesceError struct {
	Trace    string
	Protocol Protocol
	MaxTail  time.Duration
}

// Error implements error.
func (e *QuiesceError) Error() string {
	return fmt.Sprintf("experiment: %s/%s did not quiesce within %v after last data packet",
		e.Trace, e.Protocol, e.MaxTail)
}

// endpoint is one protocol host as a run sees it: the lifecycle the run
// drives and chaos faults crash, restart, remove and admit, plus the
// completion-checking and state-release surface every protocol shares.
// A run's table of them is indexed by NodeID; routers keep nil.
type endpoint interface {
	chaos.Host
	chaos.Member
	StartSessions()
	Stop()
	Transmit(seq int)
	ClassifiedThrough(source topology.NodeID) int
	Outstanding() int
	PeakOutstanding() int
	MissingIn(source topology.NodeID, n int) int
	AbandonedIn(source topology.NodeID) int
	HeldWindow(source topology.NodeID) (base, held int, open bool)
	ReleasableBelow(source topology.NodeID, limit int) (n, visited int)
	ReleaseThrough(source topology.NodeID, n int)
}

// repliesArmed sums the reply timers the run's SRM and CESRM agents
// armed.
func repliesArmed(hosts []topology.NodeID, members []endpoint) uint64 {
	var n uint64
	for _, id := range hosts {
		if a, ok := members[id].(interface{ RepliesArmed() int }); ok {
			n += uint64(a.RepliesArmed())
		}
	}
	return n
}

// peakOutstanding is the largest loss backlog any host held.
func peakOutstanding(hosts []topology.NodeID, members []endpoint) int {
	peak := 0
	for _, id := range hosts {
		peak = max(peak, members[id].PeakOutstanding())
	}
	return peak
}

// expFallbackBound is invariant 7's request-round budget: a loss chased
// by an expedited request whose cached replier turned out dead must
// fall back to ordinary SRM recovery within this many request rounds.
// Back-off round k waits on the order of 2^k·C3·d, so 12 rounds cover
// outages orders of magnitude longer than any scenario window while
// still catching a protocol that stops retrying.
const expFallbackBound = 12

// defaultChurnRequestRounds is the bounded-retry limit armed for runs
// with membership churn when the caller left SRM.MaxRequestRounds at
// its unbounded default. A requester whose cached repliers all departed
// must degrade to a typed abandonment instead of doubling its back-off
// interval forever (the overflow-by-construction bug class); 20 rounds
// sit comfortably above the expedited-fallback bound of 12, so
// legitimate fallback recovery is never cut short.
const defaultChurnRequestRounds = 20

// agentOrder, when non-nil, permutes the host order that drives per-host
// RNG assignment and Stage 4 scheduling. It is a test seam that reenacts
// the historical bug where Go map iteration fed event scheduling, letting
// the determinism-audit tests prove the fingerprint catches order-
// dependent runs. Production code leaves it nil (trace order).
var agentOrder func([]topology.NodeID) []topology.NodeID

// networkBuilt, when non-nil, is handed each run's network and loss
// model once both loss hooks are installed. It is a test seam: the
// retention tests set a finalizer through it to prove a RunResult does
// not keep its network alive, and tests that fault traffic beyond the
// trace reinstall the hooks around the model's drop. Production code
// leaves it nil.
var networkBuilt func(*netsim.Network, *lossModel)

// inferenceBuilt is the same seam for the link attribution infer
// returns, which no finished run or pair may keep alive either.
var inferenceBuilt func(*lossinfer.Result)

// infer is Stage 1 (§4.2): estimate link loss rates and attribute each
// lost packet to a link combination; the simulation injects losses on
// exactly those links. It depends on the trace alone, so RunPair
// computes it once for both runs.
func infer(tr *trace.Trace) (*lossinfer.Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("experiment: nil trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.NumPackets() > srm.MaxSeq+1 {
		return nil, fmt.Errorf("experiment: trace %q has %d packets, more than a stream may carry (%d)", tr.Name, tr.NumPackets(), srm.MaxSeq+1)
	}
	inferred, err := lossinfer.Infer(tr, lossinfer.EstimateYajnik(tr))
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	if inferenceBuilt != nil {
		inferenceBuilt(inferred)
	}
	return inferred, nil
}

// Run reenacts cfg.Trace under cfg.Protocol and returns the collected
// metrics. The run is deterministic in cfg.
func Run(cfg RunConfig) (*RunResult, error) {
	inferred, err := infer(cfg.Trace)
	if err != nil {
		return nil, err
	}
	return run(cfg, inferred)
}

// run is Run given cfg.Trace's link attribution.
func run(cfg RunConfig, inferred *lossinfer.Result) (*RunResult, error) {
	if cfg.Net == (netsim.Config{}) {
		cfg.Net = netsim.DefaultConfig()
	}
	if cfg.SRM == (srm.Params{}) {
		cfg.SRM = srm.DefaultParams()
	}
	// Membership churn arms bounded-retry degradation: without it, a
	// receiver whose cached repliers departed would double its back-off
	// interval forever. Callers that set an explicit bound keep it.
	if cfg.Chaos != nil && cfg.Chaos.HasMembership() && cfg.SRM.MaxRequestRounds == 0 {
		cfg.SRM.MaxRequestRounds = defaultChurnRequestRounds
	}

	tr := cfg.Trace
	tree := tr.Tree
	source := tree.Root()

	// Stage 2: build the simulated network with the loss-injection hook.
	eng := sim.NewEngine()
	eng.SetBudget(cfg.Budget)
	net, err := netsim.New(eng, tree, cfg.Net)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	// The normalization basis is a table, not a call into net: the
	// closure outlives the run in RunResult.RTT (and in the collector),
	// and must not keep the network — hosts, agents, arenas, loss tables —
	// alive with it. Hop counts and Config.LinkDelay are fixed for the
	// run, so reading them now and at collection time is the same thing.
	rtts := make([]time.Duration, tree.NumNodes())
	for id := range rtts {
		rtts[id] = net.RTT(topology.NodeID(id), source)
	}
	rtt := func(h topology.NodeID) time.Duration { return rtts[h] }
	rootRNG := sim.NewRNG(cfg.Seed)
	dropRNG := rootRNG.Split()
	if cfg.Jitter > 0 {
		net.EnableJitter(rootRNG.Split(), cfg.Jitter)
	}
	// Chaos RNG splits happen only when chaos is enabled, so crash-free
	// configurations draw exactly the random streams they always did and
	// their fingerprints are untouched.
	var chaosCtl *chaos.Controller
	var chaosRNG *sim.RNG
	if cfg.Chaos != nil {
		chaosRNG = rootRNG.Split()
		if cfg.Chaos.HasJitter() && cfg.Jitter <= 0 {
			// Install the rng at zero magnitude; jitter ramps raise it.
			net.EnableJitter(chaosRNG.Split(), 0)
		}
	}
	// The loss pattern is handed to the network as data: one verdict per
	// flood where it is known, the per-link hook everywhere else.
	loss := newLossModel(&cfg, inferred.Drops, inferred.Rates, dropRNG)
	net.SetDropFunc(loss.drop)
	net.SetLossFunc(loss.verdict)
	if networkBuilt != nil {
		networkBuilt(net, loss)
	}

	// Stage 3: instantiate protocol agents at the source and receivers.
	// Every run carries an online invariant validator alongside the
	// metrics collector.
	collector := stats.New()
	collector.Reserve(tree.NumNodes())
	// Release is gated on restart-free configurations only: a restarted
	// host legitimately re-detects and re-recovers everything from
	// sequence 0, so no prefix of the stream is ever globally dead. Every
	// other fault — permanent crashes, link flaps,
	// jitter ramps, duplicate storms, starvation, queue caps — leaves the
	// watermark sound: crashed hosts never rejoin and are skipped, and
	// the remaining faults only delay recovery, which the watermark
	// already waits for. Membership churn does too: a departed host does
	// not vote, and a joiner's floor lies at or above what was released
	// (watermarkRelease states the argument and checks it every tick).
	releaseOn := cfg.ReleaseRecovered && (cfg.Chaos == nil || !cfg.Chaos.HasRestart())
	if releaseOn {
		collector.StreamAggregates(rtt)
	}
	validator := stats.NewValidator()
	validator.Reserve(tree.NumNodes())
	validator.SetClock(eng.Now)
	recorder := stats.NewRecorder(eng.Now)
	// The v2 fingerprint folds each event into the digest as it is
	// observed; retention exists only for callers that asked for the
	// timeline.
	fp := newFPHasher()
	recorder.SetSink(fp.event)
	recorder.SetKeep(cfg.KeepEvents)
	observer := stats.Tee{collector, validator, recorder}
	hosts := append([]topology.NodeID{source}, tree.Receivers()...)
	if agentOrder != nil {
		hosts = agentOrder(hosts)
	}
	members := make([]endpoint, tree.NumNodes())
	var fabric *lms.Fabric
	if cfg.Protocol == LMS {
		refresh := cfg.LMSRefresh
		if refresh == 0 {
			refresh = 5 * time.Second
		}
		fabric = lms.NewFabric(eng, tree, refresh)
		if cfg.Adaptive.Enabled {
			return nil, fmt.Errorf("experiment: adaptive timers are an SRM mechanism, not applicable to LMS")
		}
	}
	// SRM and CESRM members form one srm.Group, column = position in
	// hosts: their distance estimates in one plane and their stream heads
	// in dense slots, laid out the way a flood reads them. The network
	// offers it every session hop cohort.
	var group *srm.Group
	if cfg.Protocol != LMS {
		group = srm.NewGroup(tree.NumNodes(), len(hosts))
		net.SetCohortHost(group)
	}
	for col, id := range hosts {
		hostRNG := rootRNG.Split()
		var srmAgent *srm.Agent
		switch cfg.Protocol {
		case SRM:
			a, err := srm.NewAgent(eng, net, hostRNG, id, cfg.SRM, observer, nil)
			if err != nil {
				return nil, err
			}
			members[id] = a
			srmAgent = a
		case CESRM:
			cc := cfg.CESRM
			cc.SRM = cfg.SRM
			a, err := core.NewAgent(eng, net, hostRNG, id, cc, observer)
			if err != nil {
				return nil, err
			}
			members[id] = a
			srmAgent = a.SRM()
		case LMS:
			a := lms.NewAgent(eng, net, fabric, id, observer)
			members[id] = a
		default:
			return nil, fmt.Errorf("experiment: unknown protocol %v", cfg.Protocol)
		}
		if srmAgent == nil {
			continue
		}
		if err := srmAgent.UseGroup(group, col); err != nil {
			return nil, err
		}
		if cfg.Adaptive.Enabled {
			if err := srmAgent.EnableAdaptiveTimers(cfg.Adaptive); err != nil {
				return nil, err
			}
		}
	}

	// Stage 4: schedule chaos faults, session start, data transmission
	// and the completion monitor. Scheduling assigns the engine's FIFO
	// tie-breaker sequence numbers, so every loop here must iterate in a
	// deterministic order — the ordered hosts slice, never a map. Chaos
	// faults are scheduled first, in spec order, so a crash coinciding
	// exactly with a protocol timer dispatches before it.
	if cfg.Chaos != nil {
		validator.BoundExpFallback(expFallbackBound)
		host := func(id topology.NodeID) chaos.Host { return members[id] }
		ctl, err := chaos.Install(eng, net, chaosRNG, cfg.Chaos, host, validator)
		if err != nil {
			return nil, err
		}
		chaosCtl = ctl
		loss.chaos = ctl
	}
	// Late joiners start the run outside the group: they are marked
	// absent before anything runs (the validator arms leave-silence from
	// t=0) and skip the session start below — their Join fault starts
	// sessions. Agent construction above is unchanged, so the per-host
	// RNG split order, and with it every churn-free fingerprint, is
	// untouched.
	var absentAtStart map[topology.NodeID]bool
	if cfg.Chaos != nil {
		absentAtStart = cfg.Chaos.InitialAbsent()
		for _, id := range hosts {
			if absentAtStart[id] {
				members[id].Leave()
				validator.NoteLeave(id, 0)
			}
		}
	}
	for _, id := range hosts {
		if !absentAtStart[id] {
			members[id].StartSessions()
		}
	}
	numPackets := tr.NumPackets()
	srcAgent := members[source]
	warmup := warmupPeriods * cfg.SRM.SessionPeriod
	// The data stream is one train: numPackets reserved FIFO sequence
	// numbers, one wheel record.
	eng.ScheduleTrain(sim.Time(warmup), tr.Period, numPackets, func(seq int, _ sim.Time) {
		srcAgent.Transmit(seq)
	})

	lastData := sim.Time(warmup + time.Duration(numPackets-1)*tr.Period)
	deadline := lastData.Add(maxTail)
	complete := func() bool {
		if chaosCtl != nil && !chaosCtl.Quiesced() {
			// A fault is still outstanding; a restart scheduled after
			// apparent quiescence reopens recovery work.
			return false
		}
		for _, r := range tree.Receivers() {
			a := members[r]
			if !present(a) {
				continue
			}
			if a.ClassifiedThrough(source) < numPackets || a.Outstanding() > 0 {
				return false
			}
		}
		return true
	}
	rel := &watermarkRelease{
		source:     source,
		hosts:      hosts,
		members:    members,
		validator:  validator,
		numPackets: numPackets,
		group:      group,
	}
	stop := func() {
		for _, id := range hosts {
			members[id].Stop()
		}
	}
	halt := func() {
		stop()
		eng.Stop()
	}
	var monitor func(now sim.Time)
	timedOut := false
	monitor = func(now sim.Time) {
		if cfg.HeapProbe != nil {
			cfg.HeapProbe()
		}
		if releaseOn {
			rel.tick(now)
			if rel.unsound {
				// State some host is owed may already be gone: what the
				// run did from here on would not be the release-off run.
				halt()
				return
			}
		}
		if complete() {
			stop()
			return
		}
		if now.After(deadline) {
			timedOut = true
			halt()
			return
		}
		eng.Schedule(cfg.SRM.SessionPeriod, monitor)
	}
	eng.Schedule(cfg.SRM.SessionPeriod, monitor)

	finished := eng.Run()
	receivers := tree.Receivers()
	// result assembles everything a budget-aborted and a completed run
	// report alike, as of the given final instant.
	result := func(at sim.Time) *RunResult {
		return &RunResult{
			Config:                cfg,
			Collector:             collector,
			Crossings:             net.Counts(),
			InferredRates:         inferred.Rates,
			InferenceConfidence95: inferred.Confidence(0.95),
			FinishedAt:            at,
			Fingerprint:           fp.finish(net.Counts(), at, receivers, collector, rtt),
			Events:                recorder.Events(),
			RTT:                   rtt,
			Receivers:             receivers,
			PlanStats:             net.PlanStats(),
			Engine:                eng.Snapshot(),
			FloodEvents:           net.FloodEvents(),
			Deliveries:            net.Deliveries(),
			Inline:                group.Inline(),
			InlineReply:           group.InlineReply(),
			QueueDrops:            net.QueueDrops(),
			WatermarkCells:        rel.scanned,
			RepliesArmed:          repliesArmed(hosts, members),
			AuditCells:            validator.PeakCells(),
			PeakOutstanding:       peakOutstanding(hosts, members),
			Abandoned:             collector.TotalAbandoned(),
		}
	}
	if status := eng.Termination(); status != sim.Completed {
		// Graceful degradation: a guardrail aborted the run. Skip the
		// completion verification (the run did not finish and would fail
		// it vacuously) and hand back everything observed so far plus a
		// diagnostic snapshot, so sweeps and the soak harness can record
		// the trial and continue. The event prefix is deterministic, so
		// the partial fingerprint is still a pure function of cfg.
		snap := eng.Snapshot()
		diag := &Diagnostic{Clock: snap.Now, Pending: snap.Pending, Executed: snap.Executed}
		for _, r := range receivers {
			a := members[r]
			if !present(a) {
				continue
			}
			if n := a.Outstanding(); n > 0 {
				diag.Outstanding = append(diag.Outstanding, HostOutstanding{Host: r, Outstanding: n})
			}
		}
		diag.Violations = validator.ViolationRecords()
		res := result(snap.Now)
		res.Status, res.Diag = status, diag
		return res, nil
	}
	if rel.unsound {
		return nil, fmt.Errorf("experiment: %s/%s: %w", tr.Name, cfg.Protocol, validator.Err())
	}
	if timedOut {
		return nil, &QuiesceError{Trace: tr.Name, Protocol: cfg.Protocol, MaxTail: maxTail}
	}

	// Stage 5: verify the run reenacted the trace faithfully. A receiver
	// may detect fewer losses than the trace records — a repair reply
	// instigated by another receiver can deliver a packet before its own
	// detection fires — but never more, and every receiver must end up
	// holding every packet (full reliability).
	for ri, r := range tree.Receivers() {
		a := members[r]
		if !present(a) {
			continue
		}
		if got, want := collector.Losses(r), tr.ReceiverLosses(ri); got > want && cfg.Jitter == 0 && cfg.Chaos == nil {
			return nil, fmt.Errorf("experiment: %s/%s receiver %d detected %d losses, trace has only %d",
				tr.Name, cfg.Protocol, r, got, want)
		}
		if a.Outstanding() != 0 {
			return nil, fmt.Errorf("experiment: receiver %d finished with %d unrecovered losses", r, a.Outstanding())
		}
		// Bounded-retry degradation is accounted-for, never silent: each
		// missing packet must be matched by an explicit abandonment (and
		// vice versa — an abandoned packet that later arrived via a
		// straggling repair is no longer missing, and is not counted here).
		miss, abandoned := a.MissingIn(source, numPackets), a.AbandonedIn(source)
		if miss != abandoned {
			return nil, fmt.Errorf("experiment: receiver %d finished missing %d packets with %d abandoned",
				r, miss, abandoned)
		}
	}

	if err := validator.Err(); err != nil {
		return nil, fmt.Errorf("experiment: %s/%s: %w", tr.Name, cfg.Protocol, err)
	}

	// Expedited requests for packets the trace never dropped are
	// reordering artifacts (possible only under jitter).
	row := make([]int, tree.NumNodes())
	for ri, r := range receivers {
		row[r] = ri + 1 // zero: not a receiver
	}
	spurious := 0
	for _, k := range collector.ExpRequestedPackets() {
		if ri := row[k.Host] - 1; ri >= 0 && k.Seq < numPackets && !tr.Lost(ri, k.Seq) {
			spurious++
		}
	}

	res := result(finished)
	res.SpuriousExpedited = spurious
	return res, nil
}
