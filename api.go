package cesrm

import (
	"io"
	"time"

	"cesrm/internal/chaos"
	"cesrm/internal/core"
	"cesrm/internal/experiment"
	"cesrm/internal/lossinfer"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/soak"
	"cesrm/internal/srm"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
	"cesrm/internal/wire"
)

// ---- Simulation core ----

// Engine is the deterministic discrete-event engine driving every
// simulation; see NewEngine.
type Engine = sim.Engine

// Time is an instant of virtual time.
type Time = sim.Time

// Timer handles cancellable scheduled events.
type Timer = sim.Timer

// RNG is the seeded random source all protocol randomness flows through.
type RNG = sim.RNG

// Budget holds the engine's optional guardrails: bounds on virtual
// time, dispatched events and pending timers, plus the same-instant
// progress watchdog. The zero value disables every guardrail.
type Budget = sim.Budget

// TerminationStatus reports how an engine run ended (Completed, or
// which guardrail tripped).
type TerminationStatus = sim.TerminationStatus

// Termination statuses.
const (
	Completed             = sim.Completed
	DeadlineExceeded      = sim.DeadlineExceeded
	EventBudgetExceeded   = sim.EventBudgetExceeded
	PendingBudgetExceeded = sim.PendingBudgetExceeded
	Stalled               = sim.Stalled
)

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine { return sim.NewEngine() }

// NewRNG returns a deterministic random source.
func NewRNG(seed int64) *RNG { return sim.NewRNG(seed) }

// ---- Topology ----

// NodeID identifies a node of the multicast tree.
type NodeID = topology.NodeID

// None is the "no node" sentinel.
const None = topology.None

// Tree is an immutable rooted multicast tree.
type Tree = topology.Tree

// TreeSpec parameterizes random tree generation.
type TreeSpec = topology.GenSpec

// NewTree builds a tree from a parent vector (None marks the root).
func NewTree(parents []NodeID) (*Tree, error) { return topology.New(parents) }

// GenerateTree builds a random multicast tree.
func GenerateTree(rng *RNG, spec TreeSpec) (*Tree, error) { return topology.Generate(rng, spec) }

// ---- Network ----

// Network simulates packet transport over a tree.
type Network = netsim.Network

// NetworkConfig holds link delay, bandwidth, packet sizes and queuing.
type NetworkConfig = netsim.Config

// Packet is a message in flight.
type Packet = netsim.Packet

// Host consumes delivered packets.
type Host = netsim.Host

// DropFunc injects per-link packet loss.
type DropFunc = netsim.DropFunc

// CrossingCounts aggregates link-crossing transmission cost.
type CrossingCounts = netsim.CrossingCounts

// NetworkConfigError is the typed error NewNetwork returns for a
// configuration that fails validation.
type NetworkConfigError = netsim.ConfigError

// NewNetwork builds a network over tree. It returns a
// *NetworkConfigError when cfg fails validation (non-positive
// LinkDelay, Bandwidth, or PayloadBytes; negative ControlBytes).
func NewNetwork(eng *Engine, tree *Tree, cfg NetworkConfig) (*Network, error) {
	return netsim.New(eng, tree, cfg)
}

// DefaultNetworkConfig returns the paper's physical parameters
// (20 ms links, 1.5 Mbps, 1 KB payloads, 0-byte control).
func DefaultNetworkConfig() NetworkConfig { return netsim.DefaultConfig() }

// ---- SRM ----

// SRMParams are SRM's scheduling parameters (C1..C3, D1..D3, session
// period).
type SRMParams = srm.Params

// AdaptiveConfig enables Floyd-style adaptive timer adjustment.
type AdaptiveConfig = srm.AdaptiveConfig

// DistanceMode selects the session-message distance estimator.
type DistanceMode = srm.DistanceMode

// Distance estimator modes.
const (
	DistOneWay  = srm.DistOneWay
	DistEchoRTT = srm.DistEchoRTT
)

// SRMAgent is one SRM protocol endpoint.
type SRMAgent = srm.Agent

// Protocol message types, exposed so loss-injection hooks can
// discriminate traffic classes.
type (
	// DataMsg is an original data packet.
	DataMsg = srm.DataMsg
	// RequestMsg is a repair request (multicast, or unicast when
	// expedited).
	RequestMsg = srm.RequestMsg
	// ReplyMsg is a repair reply (retransmission).
	ReplyMsg = srm.ReplyMsg
	// SessionMsg is a periodic group session message.
	SessionMsg = srm.SessionMsg
)

// Observer receives protocol events for metrics collection.
type Observer = srm.Observer

// RecoveryInfo describes how a loss was recovered.
type RecoveryInfo = srm.RecoveryInfo

// DefaultSRMParams returns the paper's SRM settings (C1=C2=2, C3=1.5,
// D1=D2=1, D3=1.5, 1 s sessions).
func DefaultSRMParams() SRMParams { return srm.DefaultParams() }

// DefaultAdaptiveConfig returns an enabled adaptive-timer configuration.
func DefaultAdaptiveConfig() AdaptiveConfig { return srm.DefaultAdaptiveConfig() }

// NewSRMAgent constructs an SRM endpoint at node id and registers it
// with the network.
func NewSRMAgent(eng *Engine, net *Network, rng *RNG, id NodeID, p SRMParams, obs Observer) (*SRMAgent, error) {
	return srm.NewAgent(eng, net, rng, id, p, obs, nil)
}

// ---- CESRM ----

// Agent is one CESRM protocol endpoint: SRM plus the caching-based
// expedited recovery scheme.
type Agent = core.Agent

// Config parameterizes a CESRM endpoint (SRM params, reorder delay,
// cache capacity, policy, router assistance).
type Config = core.Config

// Tuple is one cached requestor/replier record.
type Tuple = core.Tuple

// Cache is a per-source requestor/replier cache.
type Cache = core.Cache

// Policy selects the expeditious requestor/replier pair.
type Policy = core.Policy

// MostRecentLoss is the paper's preferred expedition policy.
type MostRecentLoss = core.MostRecentLoss

// MostFrequentLoss selects the most frequent cached pair.
type MostFrequentLoss = core.MostFrequentLoss

// DefaultConfig returns the paper's CESRM configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewAgent constructs a CESRM endpoint at node id and registers it with
// the network.
func NewAgent(eng *Engine, net *Network, rng *RNG, id NodeID, cfg Config, obs Observer) (*Agent, error) {
	return core.NewAgent(eng, net, rng, id, cfg, obs)
}

// ---- Traces ----

// Trace is a single-source IP multicast transmission trace.
type Trace = trace.Trace

// TraceSpec parameterizes synthetic trace generation.
type TraceSpec = trace.GenSpec

// CatalogEntry is one row of the paper's Table 1 with its generation
// parameters.
type CatalogEntry = trace.CatalogEntry

// LocalityStats quantifies a trace's packet-loss locality.
type LocalityStats = trace.LocalityStats

// TraceCatalog returns the 14 Table 1 entries.
func TraceCatalog() []CatalogEntry { return trace.Catalog }

// TraceByName looks up a Table 1 entry.
func TraceByName(name string) (CatalogEntry, bool) { return trace.ByName(name) }

// TraceFromRows builds a trace from dense tables: loss[r][i] reports
// whether receiver r lost packet i; drops, when non-nil, lists at
// drops[i] the links (named by their downstream node) that dropped i.
func TraceFromRows(name string, tree *Tree, period time.Duration, loss [][]bool, drops [][]NodeID) (*Trace, error) {
	return trace.FromRows(name, tree, period, loss, drops)
}

// GenerateTrace builds a synthetic trace.
func GenerateTrace(spec TraceSpec) (*Trace, error) { return trace.Generate(spec) }

// AnalyzeLocality computes loss-locality statistics.
func AnalyzeLocality(t *Trace) LocalityStats { return trace.AnalyzeLocality(t) }

// MarshalTrace writes a trace in the text format.
func MarshalTrace(w io.Writer, t *Trace) error { return trace.Marshal(w, t) }

// UnmarshalTrace parses a trace in the text format.
func UnmarshalTrace(r io.Reader) (*Trace, error) { return trace.Unmarshal(r) }

// ---- Loss inference (§4.2) ----

// LinkRates maps links to estimated loss probabilities.
type LinkRates = lossinfer.LinkRates

// InferenceResult is the link trace representation plus confidence
// statistics.
type InferenceResult = lossinfer.Result

// EstimateYajnik estimates link loss rates with the subtree estimator.
func EstimateYajnik(t *Trace) LinkRates { return lossinfer.EstimateYajnik(t) }

// EstimateMLE estimates link loss rates with the Cáceres MINC MLE.
func EstimateMLE(t *Trace) LinkRates { return lossinfer.EstimateMLE(t) }

// Infer attributes every lost packet to its most probable link
// combination.
func Infer(t *Trace, rates LinkRates) (*InferenceResult, error) { return lossinfer.Infer(t, rates) }

// ---- Metrics ----

// Collector accumulates protocol events into the paper's metrics.
type Collector = stats.Collector

// Recovery records one completed loss recovery.
type Recovery = stats.Recovery

// NewCollector returns an empty metrics collector.
func NewCollector() *Collector { return stats.New() }

// ProtocolEvent is one entry of a run's ordered protocol-event stream
// (see RunResult.Events).
type ProtocolEvent = stats.Event

// WriteEventsNDJSON writes a protocol-event stream as newline-delimited
// JSON, one object per event — a run's debugging timeline.
func WriteEventsNDJSON(w io.Writer, events []ProtocolEvent) error {
	return stats.WriteEventsNDJSON(w, events)
}

// ---- Evaluation harness ----

// Protocol selects SRM or CESRM for a run.
type Protocol = experiment.Protocol

// Protocol values.
const (
	SRM   = experiment.SRM
	CESRM = experiment.CESRM
	LMS   = experiment.LMS
)

// RunConfig parameterizes one trace-driven run.
type RunConfig = experiment.RunConfig

// RunResult carries a completed run's metrics.
type RunResult = experiment.RunResult

// Pair couples the SRM and CESRM runs of one trace.
type Pair = experiment.Pair

// Suite reenacts catalog traces under both protocols.
type Suite = experiment.Suite

// SuiteResult is one trace's pair within a suite.
type SuiteResult = experiment.SuiteResult

// Run reenacts a trace under one protocol.
func Run(cfg RunConfig) (*RunResult, error) { return experiment.Run(cfg) }

// RunPair reenacts a trace under both protocols, applying base to both
// runs.
func RunPair(t *Trace, base RunConfig) (*Pair, error) { return experiment.RunPair(t, base) }

// VerifyDeterminism runs cfg once, reruns it extra more times, and
// fails if any rerun's RunResult.Fingerprint diverges from the first —
// the determinism audit behind `cesrm-sim -verify-determinism`.
func VerifyDeterminism(cfg RunConfig, extra int) (*RunResult, error) {
	return experiment.VerifyDeterminism(cfg, extra)
}

// ---- Wire mode ----

// WireNodeConfig describes one real-UDP group member: tree, identity,
// protocol, seed, source schedule, and nominal network parameters.
type WireNodeConfig = wire.NodeConfig

// WireNode is one live wire-mode process: a protocol agent driven from
// real UDP sockets under a wall clock, optionally recording a capture.
type WireNode = wire.Node

// WireResult summarizes a completed wire-node run.
type WireResult = wire.Result

// WireProtocol selects which agent a wire node runs.
type WireProtocol = wire.Protocol

// Wire protocols.
const (
	WireSRM   = wire.ProtocolSRM
	WireCESRM = wire.ProtocolCESRM
)

// WireProxy is the drop-injecting loopback forwarder used to make loss
// reproducible in localhost harness runs.
type WireProxy = wire.Proxy

// WireCapture is a parsed NDJSON capture of one node's run.
type WireCapture = wire.Capture

// WireReport is the outcome of replaying a capture through the
// deterministic simulator.
type WireReport = wire.Report

// WireDivergence is one conformance mismatch between a live capture and
// its replay.
type WireDivergence = wire.Divergence

// NewWireNode builds a wire node bound to bind (e.g. "127.0.0.1:0");
// captureW, when non-nil, receives the NDJSON capture.
func NewWireNode(cfg WireNodeConfig, bind string, captureW io.Writer) (*WireNode, error) {
	return wire.NewNode(cfg, bind, captureW)
}

// NewWireProxy binds the drop-injecting forwarder with the given drop
// probability for data and repair packets, seeded for reproducibility.
func NewWireProxy(bind string, dropProb float64, seed int64) (*WireProxy, error) {
	return wire.NewProxy(bind, dropProb, seed)
}

// ReadWireCapture parses an NDJSON capture.
func ReadWireCapture(r io.Reader) (*WireCapture, error) { return wire.ReadCapture(r) }

// ReplayWireCapture replays a capture through the deterministic
// simulator and reports every divergence from the live run — the
// conformance oracle behind `cesrm-node -mode conform`.
func ReplayWireCapture(c *WireCapture) (*WireReport, error) { return wire.Replay(c) }

// LoadWireTree parses a cesrm-node tree file (a parent vector; -1 marks
// the root, '#' starts a comment).
func LoadWireTree(path string) (*Tree, error) { return wire.LoadTree(path) }

// EncodePacket appends a packet's versioned wire encoding to buf. The
// packet's message type must be registered (all SRM/CESRM/LMS messages
// are).
func EncodePacket(buf []byte, p *Packet) ([]byte, error) { return netsim.EncodePacket(buf, p) }

// DecodePacket parses one wire-encoded packet; malformed input yields
// an error, never a panic.
func DecodePacket(data []byte) (*Packet, error) { return netsim.DecodePacket(data) }

// ---- Fault injection ----

// ChaosSpec is a deterministic fault-injection schedule; assign one to
// RunConfig.Chaos to run a trace under churn.
type ChaosSpec = chaos.Spec

// ChaosFault is one scheduled fault of a ChaosSpec.
type ChaosFault = chaos.Fault

// ChaosKind discriminates fault kinds.
type ChaosKind = chaos.Kind

// Fault kinds.
const (
	ChaosCrash     = chaos.Crash
	ChaosRestart   = chaos.Restart
	ChaosLinkDown  = chaos.LinkDown
	ChaosLinkUp    = chaos.LinkUp
	ChaosJitter    = chaos.Jitter
	ChaosDuplicate = chaos.Duplicate
	ChaosStarve    = chaos.Starve
)

// ParseChaosSpec parses the textual fault grammar
// ("kind@at[-until]:key=value,...", ";"-separated) behind
// `cesrm-sim -chaos`.
func ParseChaosSpec(text string) (*ChaosSpec, error) { return chaos.ParseSpec(text) }

// ChaosScenarios returns the named scenario matrix for tree, with fault
// instants placed inside horizon — the sweep behind
// `cesrm-bench -chaos-matrix`.
func ChaosScenarios(tree *Tree, horizon time.Duration) []*ChaosSpec {
	return chaos.Scenarios(tree, horizon)
}

// ---- Soak harness ----

// SoakConfig parameterizes a chaos-fuzzing soak campaign.
type SoakConfig = soak.Config

// SoakResult summarizes a soak campaign.
type SoakResult = soak.Result

// SoakFailure is one classified soak trial failure.
type SoakFailure = soak.Failure

// SoakEntry is one replayable corpus scenario
// (testdata/soak-corpus/*.spec).
type SoakEntry = soak.Entry

// Soak runs a seeded chaos-fuzzing campaign — the harness behind
// `cesrm-soak`.
func Soak(cfg SoakConfig) (*SoakResult, error) { return soak.Run(cfg) }

// DefaultSoakBudget returns the soak harness's guardrail configuration.
func DefaultSoakBudget() Budget { return soak.DefaultBudget() }
