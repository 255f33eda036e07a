// Package netsim simulates a packet network over a static IP multicast
// tree, following the evaluation setup of §4.3 of the paper: every link
// has the same propagation delay and bandwidth, payload-carrying packets
// (original transmissions and retransmissions) are 1 KB, control packets
// (requests and session messages) are 0 KB, and transmission cost is
// accounted as one unit per packet per link crossed.
//
// The network supports the three delivery primitives the protocols use:
//
//   - Multicast: IP-multicast flooding from any group member over the
//     whole tree (§2, §3);
//   - Unicast: point-to-point delivery along the tree path (CESRM's
//     expedited requests, §3.2);
//   - Subcast: delivery to the subtree below a router (the
//     router-assisted variant, §3.3).
//
// Packet loss is injected through a caller-provided DropFunc, which the
// experiment harness wires to the link-trace representation of §4.2; a
// caller that knows a packet's lost links up front also installs a
// LossFunc, so floods learn them once per send instead of per link.
package netsim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// Class partitions packets for cost accounting.
type Class int

const (
	// Payload marks 1 KB packets: original data and retransmissions.
	Payload Class = iota
	// Control marks 0 KB packets: requests, session messages, and
	// expedited requests.
	Control
)

// String returns the accounting class name.
func (c Class) String() string {
	switch c {
	case Payload:
		return "payload"
	case Control:
		return "control"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Mode is the delivery primitive a packet was sent with.
type Mode int

const (
	// ModeMulticast floods the entire tree.
	ModeMulticast Mode = iota
	// ModeUnicast follows the tree path between two hosts.
	ModeUnicast
	// ModeSubcast floods only the subtree below a router.
	ModeSubcast
)

// String returns the delivery-mode name.
func (m Mode) String() string {
	switch m {
	case ModeMulticast:
		return "multicast"
	case ModeUnicast:
		return "unicast"
	case ModeSubcast:
		return "subcast"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Packet is a message in flight. Msg carries the protocol-level payload;
// netsim treats it as opaque.
type Packet struct {
	// ID is a unique per-network sequence assigned at send time.
	ID uint64
	// From is the host (or, for subcasts, router) that sent the packet.
	From topology.NodeID
	// To is the destination host for unicasts, None otherwise.
	To topology.NodeID
	// Class drives size and cost accounting.
	Class Class
	// Mode records the delivery primitive used.
	Mode Mode
	// Session marks group session messages, which are excluded from
	// recovery-overhead accounting (the paper compares recovery traffic;
	// both protocols exchange identical session streams).
	Session bool
	// Cohort marks a packet whose flood's hop cohorts are offered whole
	// to the network's cohort host (see CohortHost); the sender sets it,
	// for the kinds most of whose deliveries the host can absorb. It is
	// not on the wire.
	Cohort bool
	// refs counts the network's holds on the packet: one for the send call
	// and one for each pending event that will read it.
	refs int32
	// Msg is the protocol message.
	Msg any
	// Owner, when set, takes the packet back once the network holds no
	// reference to it (see Recycler). A packet without one — a literal,
	// decoder output — is never handed back.
	Owner Recycler
}

// Recycler is the owner of the packets it built. The network hands a
// packet back through Recycle when nothing of it will read the packet
// again: after the last Deliver of its last delivery, or as the send call
// returns when it scheduled none. The owner may then rebuild it for
// another send, so the packet's ID changes only when it is really sent
// again — which is what StaleFrameError checks.
type Recycler interface {
	Recycle(p *Packet)
}

// hold takes one reference to p: for a send call, or for a pending event
// that will read it.
func (p *Packet) hold() { p.refs++ }

// release drops one reference, handing p back to its owner at the last.
func (p *Packet) release() {
	if p.refs--; p.refs == 0 && p.Owner != nil {
		p.Owner.Recycle(p)
	}
}

// StaleFrameError is the panic value of a pending event whose packet was
// handed back and sent again before the event fired: Want is the packet ID
// the event was scheduled for, Got the ID the packet carries now. Some
// holder released a reference it did not hold. Every packet-holding event
// checks, as a sim.Timer's generation guards a wheel record, so the bug
// surfaces at the first stale read instead of as a delivery of another
// message.
type StaleFrameError struct{ Want, Got uint64 }

// Error implements error.
func (e *StaleFrameError) Error() string {
	return fmt.Sprintf("netsim: stale frame: event scheduled for packet %d fired on packet %d", e.Want, e.Got)
}

// checkFrame panics with a *StaleFrameError unless p still carries id.
func checkFrame(p *Packet, id uint64) {
	if p.ID != id {
		panic(&StaleFrameError{Want: id, Got: p.ID})
	}
}

// Host consumes packets delivered by the network.
type Host interface {
	// Deliver hands the host a packet at virtual time now. The packet is
	// shared between all recipients of a multicast and must be treated
	// as immutable, and the host must not retain p, p.Msg or any slice
	// reachable from them past the call: once its last delivery returns,
	// the network hands the packet back to its owner, which rebuilds it
	// for another send (on the wire, the decoder overwrites it with the
	// next datagram). Copy whatever must outlive the call.
	Deliver(now sim.Time, p *Packet)
}

// CohortHost answers for a group of hosts at once. A flood offers it
// each hop cohort of a packet marked Cohort (the hosts one hop distance
// out, due at one instant) before delivering to any of them. Returning true,
// it has handled every host of the cohort, in cohort order, exactly as
// their own Deliver calls would have; returning false, it has done
// nothing, and the flood delivers per host. hosts is the network's, and
// must be neither written nor retained.
type CohortHost interface {
	DeliverCohort(now sim.Time, p *Packet, hosts []int32) bool
}

// DropFunc decides whether packet p is dropped when crossing the given
// link. down reports the traversal direction: true when moving away from
// the tree root. A nil DropFunc drops nothing.
type DropFunc func(p *Packet, link topology.LinkID, down bool) bool

// LossFunc declares p's loss pattern in one call, asked once per send
// before any link is checked: once per flood (plan replay or queuing)
// and once per unicast leg. known is a promise about the installed
// DropFunc: for p it would return true exactly on the downstream
// crossing of each link in lost and false on every other crossing (any
// link, either direction), drawing no randomness and having no side
// effect — so the send tests membership in lost itself and never calls
// DropFunc. A queuing flood crosses its links at later instants than the
// one it asked at, so a known answer must hold at every instant of that
// flood, and lost is held, unmodified, until the flood's last hop has
// fired. With known false, lost is ignored and the send asks DropFunc
// per link as if no LossFunc were installed. LossFunc accelerates
// DropFunc and never replaces it: DropFunc stays the oracle for every
// unknown verdict, so a caller installs both, answering from the same
// data.
type LossFunc func(p *Packet) (lost []topology.LinkID, known bool)

// DupFunc decides whether the end-to-end delivery of p scheduled for
// instant at is duplicated, and with how much extra delay the second
// copy arrives. Duplicate injection models links or routers that
// re-forward packets; like jitter it applies to the fast (non-queuing)
// delivery path. A nil DupFunc duplicates nothing.
type DupFunc func(p *Packet, at sim.Time) (extra time.Duration, dup bool)

// ConfigError reports an invalid Config field rejected by Validate. It
// is the typed error netsim.New returns so that callers (experiment.Run,
// the CLIs) can distinguish a bad network configuration from other
// construction failures.
type ConfigError struct {
	// Field names the offending Config field.
	Field string
	// Reason describes the constraint that was violated, including the
	// rejected value.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("netsim: invalid config: %s %s", e.Field, e.Reason)
}

// Config holds the physical parameters of the simulated network.
type Config struct {
	// LinkDelay is the one-way propagation delay of every link
	// (the paper sweeps 10/20/30 ms and reports 20 ms).
	LinkDelay time.Duration
	// Bandwidth is the link capacity in bits per second (1.5 Mbps in the
	// paper).
	Bandwidth float64
	// PayloadBytes is the size of payload-class packets (1 KB).
	PayloadBytes int
	// ControlBytes is the size of control-class packets (0 in the paper,
	// so control packets experience propagation delay only).
	ControlBytes int
	// Queuing enables per-link FIFO serialization: a link transmits one
	// packet at a time per direction. With the paper's parameters links
	// run far below capacity, so the default (false) models each hop as
	// an independent store-and-forward pipe.
	Queuing bool
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation (§4.3) with its 20 ms link delay.
func DefaultConfig() Config {
	return Config{
		LinkDelay:    20 * time.Millisecond,
		Bandwidth:    1.5e6,
		PayloadBytes: 1024,
		ControlBytes: 0,
	}
}

// Validate rejects physically meaningless configurations before they
// flow into delay arithmetic: a non-positive LinkDelay collapses (or
// inverts) propagation, a non-positive or non-finite Bandwidth turns
// serialization time into zero or garbage, and a non-positive
// PayloadBytes makes payload packets free. ControlBytes may be zero —
// the paper's control packets are costless — but not negative.
func (c Config) Validate() error {
	if c.LinkDelay <= 0 {
		return &ConfigError{"LinkDelay", fmt.Sprintf("must be positive, got %v", c.LinkDelay)}
	}
	if !(c.Bandwidth > 0) || math.IsInf(c.Bandwidth, 0) {
		return &ConfigError{"Bandwidth", fmt.Sprintf("must be positive and finite, got %v", c.Bandwidth)}
	}
	if c.PayloadBytes <= 0 {
		return &ConfigError{"PayloadBytes", fmt.Sprintf("must be positive, got %d", c.PayloadBytes)}
	}
	if c.ControlBytes < 0 {
		return &ConfigError{"ControlBytes", fmt.Sprintf("must be non-negative, got %d", c.ControlBytes)}
	}
	return nil
}

// CrossingCounts aggregates transmission cost in link-crossing units,
// the metric of Figure 5 (right): one unit per packet per link crossed.
// Session traffic is tallied separately so recovery overhead can be
// compared between protocols that share an identical session stream.
type CrossingCounts struct {
	// PayloadMulticast counts multicast retransmission crossings.
	PayloadMulticast uint64
	// PayloadUnicast counts unicast payload crossings (unused by the
	// basic protocols; the router-assisted variant unicasts replies to
	// turning points).
	PayloadUnicast uint64
	// PayloadSubcast counts subcast retransmission crossings.
	PayloadSubcast uint64
	// ControlMulticast counts multicast control crossings (SRM requests,
	// CESRM fallback requests).
	ControlMulticast uint64
	// ControlSubcast counts subcast control crossings. None of the
	// implemented protocols subcasts control packets today (router-
	// assisted replies subcast payload), so this counter is zero in every
	// current configuration; it exists so subcast control is not silently
	// lumped into ControlMulticast as it used to be. The determinism
	// fingerprint digests ControlMulticast+ControlSubcast combined,
	// preserving fingerprints across the split.
	ControlSubcast uint64
	// ControlUnicast counts unicast control crossings (CESRM expedited
	// requests).
	ControlUnicast uint64
	// Session counts session-message crossings (identical for SRM and
	// CESRM; excluded from recovery overhead).
	Session uint64
	// Data counts original data dissemination crossings (identical for
	// both protocols; excluded from recovery overhead).
	Data uint64
}

// RecoveryTotal returns the total recovery overhead: everything except
// original data dissemination and session traffic.
func (c CrossingCounts) RecoveryTotal() uint64 {
	return c.PayloadMulticast + c.PayloadUnicast + c.PayloadSubcast +
		c.ControlMulticast + c.ControlSubcast + c.ControlUnicast
}

// Endpoint is the network surface the protocol agents hold: the
// *Network in simulation, the wire session on real sockets, or a
// wrapper around either (the benchmark's span tracer is one).
type Endpoint interface {
	// Tree returns the underlying topology.
	Tree() *topology.Tree
	// RTT returns the round-trip control-plane latency between two nodes.
	RTT(a, b topology.NodeID) time.Duration
	// AttachHost registers the protocol agent at node id.
	AttachHost(id topology.NodeID, h Host)
	// Multicast sends p from host from to the entire group.
	Multicast(from topology.NodeID, p *Packet)
	// Unicast sends p from host from to host to along the tree path.
	Unicast(from, to topology.NodeID, p *Packet)
	// UnicastThenSubcast sends p point-to-point to router via, which
	// subcasts it down its subtree (§3.3).
	UnicastThenSubcast(from, via topology.NodeID, p *Packet)
}

// Network simulates the tree. Construct with New.
type Network struct {
	eng  *sim.Engine
	tree *topology.Tree
	cfg  Config
	drop DropFunc
	loss LossFunc
	dup  DupFunc

	// hostAt maps each node to its registered protocol agent, dense by
	// NodeID (nil for silent routers): the per-delivery host lookup sits
	// on the hottest path of every flood, where the old map probe cost
	// hashing and bucket chasing per visited node.
	hostAt []Host
	nextID uint64
	// cohortHost, when set, is offered every session hop cohort.
	cohortHost CohortHost

	// linkDown marks administratively-downed links (SetLinkUp), indexed
	// by the link's downstream endpoint like every LinkID. nil until the
	// first SetLinkUp call, so static-topology runs pay nothing. A downed
	// link severs all traffic in both directions — including session
	// messages — without counting crossings: the packet never enters the
	// link. downLinks counts the links currently down.
	linkDown  []bool
	downLinks int

	// busyUntil tracks per-link, per-direction transmit availability when
	// Queuing is enabled. Index 0 is downstream, 1 upstream.
	busyUntil [2][]sim.Time

	// queueCap bounds each link direction's FIFO to this many
	// queued-or-transmitting payload packets (0 = unbounded), set by
	// SetQueueCap.
	// queued holds the pending transmission finish times per direction
	// per link (monotone non-decreasing; pruned lazily against the
	// arrival instant, in place, so a link's slice stops growing once it
	// has held a full queue), nil until a cap is first engaged. queueDrops
	// counts tail-dropped packets; it lives outside CrossingCounts on
	// purpose — that struct is digested into the run fingerprint, and
	// congestion drops must not perturb fingerprints of cap-free runs.
	queueCap   int
	queued     [2][][]sim.Time
	queueDrops uint64

	// jitterRNG and maxJitter add a uniform random extra delay to each
	// delivery, reordering packets that are spaced more closely than the
	// jitter magnitude. See EnableJitter.
	jitterRNG *sim.RNG
	maxJitter time.Duration

	// txPayload and txControl are the per-link serialization delays of
	// the two packet classes, fixed by the config, precomputed so the
	// hot paths never divide.
	txPayload time.Duration
	txControl time.Duration

	// plans is the per-origin cohort cache. The flood scan's scratch: node
	// v's subtree is skipped iff skipMark[v] == skipGen (epoch-stamped,
	// never reset), and climb is the flood-order positions of the nodes
	// climbed through, origin first.
	plans    planCache
	skipMark []uint64
	skipGen  uint64
	climb    []int32

	// freeDeliveries and freeHops pool the reusable event structs that
	// replaced the closure-per-delivery and closure-per-hop allocations.
	freeDeliveries []*deliveryEvent
	freeHops       []*hopEvent

	// openHops is the hop run scheduleHop last scheduled or extended, nil
	// once it fires; openSeq is the engine's next sequence number as of
	// then.
	openHops *hopEvent
	openSeq  uint64

	// freeFloods pools flood delivery events; floodEvents counts pool
	// misses. byHop[h] holds the hosts h hops out of the flood being
	// assembled (addCohort); floods are never re-entered, so one suffices.
	freeFloods  []*floodEvent
	floodEvents uint64
	byHop       [][]int32

	// pathScratch is walkLeg's reusable path buffer; sends are
	// synchronous and never re-entered, so one suffices.
	pathScratch []topology.LinkID

	counts CrossingCounts
	// deliveries counts host deliveries by path (see Deliveries).
	deliveries Deliveries
}

// New builds a network over tree using engine eng. It returns a
// *ConfigError when cfg fails Validate.
func New(eng *sim.Engine, tree *topology.Tree, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		eng:       eng,
		tree:      tree,
		cfg:       cfg,
		hostAt:    make([]Host, tree.NumNodes()),
		txPayload: serializeTime(cfg.PayloadBytes, cfg.Bandwidth),
		txControl: serializeTime(cfg.ControlBytes, cfg.Bandwidth),
		plans:     newPlanCache(tree),
		skipMark:  make([]uint64, tree.NumNodes()),
	}
	if cfg.Queuing {
		n.busyUntil[0] = make([]sim.Time, tree.NumNodes())
		n.busyUntil[1] = make([]sim.Time, tree.NumNodes())
	}
	return n, nil
}

// MustNew is New for configurations known valid at the call site (tests,
// examples with literal defaults); it panics on a config error.
func MustNew(eng *sim.Engine, tree *topology.Tree, cfg Config) *Network {
	n, err := New(eng, tree, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Tree returns the underlying topology.
func (n *Network) Tree() *topology.Tree { return n.tree }

// Config returns the network's physical parameters.
func (n *Network) Config() Config { return n.cfg }

// Counts returns a snapshot of the crossing counters.
func (n *Network) Counts() CrossingCounts { return n.counts }

// AttachHost registers h as the protocol agent at node id. Only
// registered nodes receive deliveries; routers forward silently.
// Attaching discards any cached flood plans, counted as evictions: host
// flags are baked into their cohorts.
func (n *Network) AttachHost(id topology.NodeID, h Host) {
	if h == nil {
		panic("netsim: AttachHost with nil host")
	}
	n.hostAt[id] = h
	n.plans.purge()
}

// SetCohortHost installs the host that is offered the hop cohorts of
// each packet marked Cohort whole (see CohortHost); nil removes it.
func (n *Network) SetCohortHost(h CohortHost) { n.cohortHost = h }

// SetDropFunc installs the loss-injection hook.
func (n *Network) SetDropFunc(fn DropFunc) { n.drop = fn }

// SetLossFunc installs the once-per-flood loss declaration that stands
// in for DropFunc on floods whose pattern it knows; see LossFunc.
func (n *Network) SetLossFunc(fn LossFunc) { n.loss = fn }

// SetDupFunc installs the duplicate-delivery hook.
func (n *Network) SetDupFunc(fn DupFunc) { n.dup = fn }

// SetLinkUp raises or severs the link identified by its downstream
// endpoint. Links start up; a downed link carries no traffic in either
// direction until raised again. The root has no inbound link, so its
// NodeID is not a valid link.
func (n *Network) SetLinkUp(link topology.LinkID, up bool) {
	if link == n.tree.Root() || int(link) < 0 || int(link) >= n.tree.NumNodes() {
		panic(fmt.Sprintf("netsim: SetLinkUp on invalid link %d", link))
	}
	if n.linkDown == nil {
		if up {
			return
		}
		n.linkDown = make([]bool, n.tree.NumNodes())
	}
	if n.linkDown[link] == up {
		if up {
			n.downLinks--
		} else {
			n.downLinks++
		}
	}
	n.linkDown[link] = !up
}

// SetQueueCap engages (cap ≥ 1) or lifts (cap = 0) the finite
// link-queue bound: payload packets past it are tail-dropped, control
// packets occupy no buffer. While a cap is active every flood takes the
// event-per-hop queuing path even if the network was built without
// Queuing, so FIFO occupancy is actually modelled; lifting the cap
// restores plan replay. Engaging lazily allocates the serialization
// state, so cap-free runs pay nothing.
func (n *Network) SetQueueCap(cap int) {
	if cap < 0 {
		cap = 0
	}
	n.queueCap = cap
	if cap == 0 {
		return
	}
	if n.busyUntil[0] == nil {
		n.busyUntil[0] = make([]sim.Time, n.tree.NumNodes())
		n.busyUntil[1] = make([]sim.Time, n.tree.NumNodes())
	}
	if n.queued[0] == nil {
		n.queued[0] = make([][]sim.Time, n.tree.NumNodes())
		n.queued[1] = make([][]sim.Time, n.tree.NumNodes())
	}
}

// QueueCap returns the currently active link-queue bound (0 when
// unbounded).
func (n *Network) QueueCap() int { return n.queueCap }

// QueueDrops returns how many packets finite link queues have
// tail-dropped so far. Congestion drops are counted separately from
// DropFunc (channel) loss and from the crossing counters.
func (n *Network) QueueDrops() uint64 { return n.queueDrops }

// FloodEvents returns how many flood delivery events the network made.
func (n *Network) FloodEvents() uint64 { return n.floodEvents }

// Deliveries counts the packets handed to hosts, by the path that handed
// them over. Like every other counter here it is exact and a pure
// function of the run.
type Deliveries struct {
	// Cohort counts hosts reached through a flood's hop cohorts.
	Cohort uint64
	// PerHost counts every other delivery: per-host delivery events (a
	// flood that cannot group, a unicast leg), queuing hops that reach a
	// host, and subcast heads.
	PerHost uint64
}

// Deliveries returns the delivery counters.
func (n *Network) Deliveries() Deliveries { return n.deliveries }

// LinkUp reports whether the link is currently up.
func (n *Network) LinkUp(link topology.LinkID) bool {
	return n.linkDown == nil || !n.linkDown[link]
}

// linkSevered reports whether a downed link blocks the crossing.
func (n *Network) linkSevered(link topology.LinkID) bool {
	return n.linkDown != nil && n.linkDown[link]
}

// EnableJitter adds an independent uniform random delay in [0, max) to
// every end-to-end delivery, modelling the transient reordering that
// motivates CESRM's REORDER-DELAY (§3.2): packets spaced more closely
// than the jitter magnitude can arrive out of order. Jitter applies to
// the fast (non-queuing) delivery path; the queuing path models strict
// per-link FIFO and stays jitter-free. A nil rng disables jitter. A
// non-positive max keeps the rng installed but suppresses all draws, so
// SetMaxJitter can ramp the magnitude up later without perturbing any
// random stream in the meantime.
func (n *Network) EnableJitter(rng *sim.RNG, max time.Duration) {
	if rng == nil {
		n.jitterRNG = nil
		n.maxJitter = 0
		return
	}
	if max < 0 {
		max = 0
	}
	n.jitterRNG = rng
	n.maxJitter = max
}

// SetMaxJitter changes the jitter magnitude at runtime (delay-jitter
// ramps), keeping the rng installed by EnableJitter. While the
// magnitude is zero no random draws happen, so ramping down and back up
// is deterministic. A no-op when no jitter rng is installed.
func (n *Network) SetMaxJitter(max time.Duration) {
	if max < 0 {
		max = 0
	}
	n.maxJitter = max
}

// MaxJitter returns the current jitter magnitude.
func (n *Network) MaxJitter() time.Duration { return n.maxJitter }

// jitter draws one delivery's extra delay.
func (n *Network) jitter() time.Duration {
	if n.jitterRNG == nil {
		return 0
	}
	return n.jitterRNG.UniformDuration(0, n.maxJitter)
}

// txTime is the serialization delay of p on one link, precomputed per
// class at construction.
func (n *Network) txTime(p *Packet) time.Duration {
	if p.Class == Payload {
		return n.txPayload
	}
	return n.txControl
}

// serializeTime computes the serialization delay of a packet of the
// given size in integer arithmetic: bytes*8*time.Second/bandwidth,
// truncated to the nanosecond. The old floating-point formula
// (float64(bits)/bandwidth*1e9) produced the same value for every
// configuration used so far, but floats invite sub-nanosecond rounding
// that can differ across platforms and compiler versions — poison for
// run fingerprints. Fractional bandwidths truncate to whole bits/s.
func serializeTime(bytes int, bandwidth float64) time.Duration {
	bps := int64(bandwidth)
	if bytes == 0 || bps <= 0 {
		return 0
	}
	return time.Duration(int64(bytes) * 8 * int64(time.Second) / bps)
}

// Distance returns the control-plane one-way latency between two nodes:
// hop count times link propagation delay. This is what session-message
// timestamp exchange measures, since control packets serialize in zero
// time.
func (n *Network) Distance(a, b topology.NodeID) time.Duration {
	return time.Duration(n.tree.HopCount(a, b)) * n.cfg.LinkDelay
}

// RTT returns the round-trip control-plane latency between two nodes.
func (n *Network) RTT(a, b topology.NodeID) time.Duration {
	return 2 * n.Distance(a, b)
}

// lossVerdict asks the LossFunc once for p's send. Without one, only a
// network with no DropFunc either knows the (empty) answer.
func (n *Network) lossVerdict(p *Packet) (lost []topology.LinkID, known bool) {
	if n.loss != nil {
		return n.loss(p)
	}
	return nil, n.drop == nil
}

// dropped decides p's crossing of link from the send's verdict: a
// membership test when it is known, DropFunc otherwise.
func (n *Network) dropped(p *Packet, lost []topology.LinkID, known bool, link topology.LinkID, down bool) bool {
	if known {
		return down && slices.Contains(lost, link)
	}
	return n.drop != nil && n.drop(p, link, down)
}

// counterFor returns the crossing counter p's link crossings accrue to.
// The class is fixed for a whole flood or unicast leg, so senders resolve
// it once and increment through the pointer per crossing.
func (n *Network) counterFor(p *Packet) *uint64 {
	switch {
	case p.Session:
		return &n.counts.Session
	case p.Mode == ModeMulticast && p.Class == Payload && p.Msg != nil && isData(p):
		return &n.counts.Data
	case p.Mode == ModeMulticast && p.Class == Payload:
		return &n.counts.PayloadMulticast
	case p.Mode == ModeSubcast && p.Class == Payload:
		return &n.counts.PayloadSubcast
	case p.Mode == ModeUnicast && p.Class == Payload:
		return &n.counts.PayloadUnicast
	case p.Mode == ModeMulticast:
		return &n.counts.ControlMulticast
	case p.Mode == ModeSubcast:
		return &n.counts.ControlSubcast
	default:
		return &n.counts.ControlUnicast
	}
}

// DataTagger lets the harness mark which protocol messages are original
// data transmissions, so netsim can segregate their crossing cost
// without depending on protocol packages.
type DataTagger interface{ IsOriginalData() bool }

func isData(p *Packet) bool {
	t, ok := p.Msg.(DataTagger)
	return ok && t.IsOriginalData()
}

// Multicast sends p from host `from` to the entire group by flooding the
// tree. Every tree link is crossed at most once; links below a drop are
// not crossed at all. Delivery is scheduled for each registered host the
// flood reaches; the sender itself is not re-delivered to.
func (n *Network) Multicast(from topology.NodeID, p *Packet) {
	p.ID = n.nextID
	n.nextID++
	p.hold()
	p.From = from
	p.To = topology.None
	p.Mode = ModeMulticast
	n.flood(from, p, false)
	p.release()
}

// Subcast sends p downward from router root to the receivers in its
// subtree (§3.3). The sender does not receive its own subcast.
func (n *Network) Subcast(root topology.NodeID, p *Packet) {
	p.ID = n.nextID
	n.nextID++
	p.hold()
	p.To = topology.None
	p.Mode = ModeSubcast
	n.flood(root, p, true)
	p.release()
}

// deliveryEvent is the pooled end-to-end delivery event: it replaces
// the closure previously captured per delivery. The struct returns to
// the pool before Deliver runs, so nested sends can reuse it.
type deliveryEvent struct {
	n    *Network
	host Host
	pkt  *Packet
	id   uint64
}

func (d *deliveryEvent) Fire(now sim.Time) {
	n, host, pkt := d.n, d.host, d.pkt
	checkFrame(pkt, d.id)
	d.host, d.pkt = nil, nil
	n.freeDeliveries = append(n.freeDeliveries, d)
	n.deliveries.PerHost++
	host.Deliver(now, pkt)
	pkt.release()
}

// scheduleDelivery registers delivery of p to host h at the given
// instant using a pooled event, consulting the duplicate-injection
// hook for a possible second, later copy. Delivery events hold no Timer
// and are never cancelled, so recycling on fire is safe.
func (n *Network) scheduleDelivery(at sim.Time, h Host, p *Packet) {
	n.scheduleDeliveryOnce(at, h, p)
	if n.dup != nil {
		if extra, dup := n.dup(p, at); dup {
			if extra < 0 {
				extra = 0
			}
			n.scheduleDeliveryOnce(at.Add(extra), h, p)
		}
	}
}

func (n *Network) scheduleDeliveryOnce(at sim.Time, h Host, p *Packet) {
	var d *deliveryEvent
	if k := len(n.freeDeliveries); k > 0 {
		d = n.freeDeliveries[k-1]
		n.freeDeliveries[k-1] = nil
		n.freeDeliveries = n.freeDeliveries[:k-1]
	} else {
		d = &deliveryEvent{n: n}
	}
	d.host, d.pkt, d.id = h, p, p.ID
	p.hold()
	n.eng.ScheduleHandlerAt(at, d)
}

// floodEvent delivers one flood's hop cohorts (the hosts one hop distance
// out, due at one instant) as an engine series, a firing per cohort in
// ascending hop order and pop order within it: exactly as per-host events
// would have (DESIGN.md §14). The cohort of a packet marked Cohort goes
// whole to the cohort host, if one is installed and takes it. It holds one packet
// reference.
type floodEvent struct {
	n      *Network
	pkt    *Packet
	id     uint64
	sent   sim.Time
	perHop time.Duration
	// cohorts and ends are the outcome in a plan's layout: a cached plan's
	// buf, never written, or own, the scan's. Node IDs are pointer-free, so
	// the GC never scans them. hops lists the occupied hop distances.
	cohorts, ends, own, hops []int32
}

func (g *floodEvent) At(i int) sim.Time {
	return g.sent.Add(time.Duration(g.hops[i]) * g.perHop)
}

func (g *floodEvent) Fire(i int, now sim.Time) {
	n, pkt := g.n, g.pkt
	checkFrame(pkt, g.id)
	h := g.hops[i]
	cohort := g.cohorts[g.ends[h-1]:g.ends[h]]
	n.deliveries.Cohort += uint64(len(cohort))
	if !pkt.Cohort || n.cohortHost == nil || !n.cohortHost.DeliverCohort(now, pkt, cohort) {
		for _, id := range cohort {
			n.hostAt[id].Deliver(now, pkt)
		}
	}
	if i < len(g.hops)-1 {
		return
	}
	// Recycle after the last loop: a nested flood must not reuse g mid-way.
	g.pkt, g.cohorts, g.ends = nil, nil, nil
	n.freeFloods = append(n.freeFloods, g)
	pkt.release()
}

// deliverCohorts schedules p's flood, sent now: plan's cohorts, or those
// addCohort assembled. The event leaves the pool only if a host is reached.
func (n *Network) deliverCohorts(p *Packet, now sim.Time, perHop time.Duration, plan []int32, hosts int32) {
	if len(n.freeFloods) == 0 {
		n.freeFloods = append(n.freeFloods, &floodEvent{n: n})
		n.floodEvents++
	}
	g := n.freeFloods[len(n.freeFloods)-1]
	if plan == nil {
		g.own, hosts = n.takeCohorts(g.own)
		plan = g.own
	}
	g.cohorts, g.ends, g.hops = plan, plan[hosts:], g.hops[:0]
	for h := 1; h < len(g.ends); h++ {
		if g.ends[h] > g.ends[h-1] {
			g.hops = append(g.hops, int32(h))
		}
	}
	if len(g.hops) == 0 {
		return
	}
	n.freeFloods = n.freeFloods[:len(n.freeFloods)-1]
	g.pkt, g.id, g.sent, g.perHop = p, p.ID, now, perHop
	p.hold()
	n.eng.ScheduleSeries(g.At(0), len(g.hops), g)
}

// canGroupDeliveries reports whether the current flood may batch its
// deliveries into hop cohorts. Grouping requires that every delivery at
// the same hop count lands at the same instant with no per-delivery
// randomness: jitter spreads arrival times (and draws the RNG per
// delivery, in pop order), the duplicate hook draws per delivery too,
// and a zero per-hop delay would collapse all cohorts onto one instant
// where cross-cohort pop order — not hop order — decides the FIFO
// sequence. In each of those cases the flood falls back to one event per
// host. A jitter RNG installed at zero magnitude draws nothing and
// groups fine.
func (n *Network) canGroupDeliveries(perHop time.Duration) bool {
	return n.maxJitter == 0 && n.dup == nil && perHop > 0
}

// addCohort files host node, hops hops from the origin, into the flood
// being assembled. Floods visit hosts in pop order, so each cohort's
// firing replays exactly the per-host event order.
func (n *Network) addCohort(node, hops int32) {
	for int(hops) >= len(n.byHop) {
		n.byHop = append(n.byHop, nil)
	}
	n.byHop[hops] = append(n.byHop[hops], node)
}

// takeCohorts empties the assembly into dst's storage in a plan's
// layout, returning it and the number of hosts.
func (n *Network) takeCohorts(dst []int32) ([]int32, int32) {
	hosts, top := 0, 0
	for h, c := range n.byHop {
		if len(c) > 0 {
			hosts, top = hosts+len(c), h
		}
	}
	if cap(dst) < hosts+top+1 {
		dst = make([]int32, hosts+top+1)
	}
	dst, at := dst[:hosts+top+1], 0
	dst[hosts] = 0
	for h := 1; h <= top; h++ {
		at += copy(dst[at:], n.byHop[h])
		dst[hosts+h] = int32(at)
		n.byHop[h] = n.byHop[h][:0]
	}
	return dst, int32(hosts)
}

// flood walks the tree outward from origin. downOnly restricts the walk
// to descendants (subcast). With queuing (or an active queue cap) each
// hop is simulated as its own event; otherwise replayPlan performs the
// whole walk now and schedules the deliveries.
func (n *Network) flood(origin topology.NodeID, p *Packet, downOnly bool) {
	if n.cfg.Queuing || n.queueCap > 0 {
		f := queuedFlood{origin: origin, pkt: p, downOnly: downOnly, crossings: n.counterFor(p)}
		f.lost, f.known = n.lossVerdict(p)
		n.floodHop(&f, origin, topology.None, n.eng.Now())
		return
	}
	n.replayPlan(origin, downOnly, p)
}

// queuedFlood is what every hop of one queuing flood shares, resolved
// once at its send: the crossing counter and the loss verdict (see
// LossFunc for why a known one holds for the flood's whole lifetime).
type queuedFlood struct {
	origin    topology.NodeID
	pkt       *Packet
	downOnly  bool
	crossings *uint64
	lost      []topology.LinkID
	known     bool
}

// hopEvent is the pooled forwarding event of the queuing flood: a run
// of one flood's hops that were scheduled back to back for one instant.
// As separate events they would have carried consecutive sequence
// numbers and fired consecutively, so one wheel record firing them in
// append order dispatches identically (DESIGN.md §14).
type hopEvent struct {
	n *Network
	queuedFlood
	id    uint64
	at    sim.Time
	steps []hopStep
}

// hopStep is one hop of a run: the flood continues at node, having
// arrived from cameFrom.
type hopStep struct{ node, cameFrom topology.NodeID }

func (h *hopEvent) Fire(now sim.Time) {
	n, pkt := h.n, h.pkt
	checkFrame(pkt, h.id)
	if n.openHops == h {
		n.openHops = nil
	}
	for _, s := range h.steps {
		n.floodHop(&h.queuedFlood, s.node, s.cameFrom, now)
	}
	// Recycle only after the loop: a nested flood inside Deliver may pull
	// from the pool, and must not get this event while it is iterating.
	h.pkt, h.lost, h.steps = nil, nil, h.steps[:0]
	n.freeHops = append(n.freeHops, h)
	pkt.release()
}

// scheduleHop registers continuation of queuing flood f at node `next`,
// arriving from `from`, at the given instant. The hop joins the open run
// when it is the same flood due at the same instant and the engine has
// handed out no sequence number since the run's last hop; whatever did
// take one would have fired between the two.
func (n *Network) scheduleHop(at sim.Time, f *queuedFlood, next, from topology.NodeID) {
	h := n.openHops
	if h == nil || n.eng.NextSeq() != n.openSeq || h.at != at || h.pkt != f.pkt || h.origin != f.origin || h.downOnly != f.downOnly {
		if k := len(n.freeHops); k > 0 {
			h = n.freeHops[k-1]
			n.freeHops[k-1] = nil
			n.freeHops = n.freeHops[:k-1]
		} else {
			h = &hopEvent{n: n, steps: make([]hopStep, 0, 8)}
		}
		h.queuedFlood, h.id, h.at = *f, f.pkt.ID, at
		f.pkt.hold()
		n.eng.ScheduleHandlerAt(at, h)
		n.openHops, n.openSeq = h, n.eng.NextSeq()
	}
	h.steps = append(h.steps, hopStep{next, from})
}

// floodHop is the hop-by-hop variant used when Queuing is enabled.
// Like replayPlan, it visits children in tree order before the parent.
func (n *Network) floodHop(f *queuedFlood, node, cameFrom topology.NodeID, at sim.Time) {
	p := f.pkt
	if node != f.origin {
		if h := n.hostAt[node]; h != nil {
			n.deliveries.PerHost++
			h.Deliver(at, p)
		}
	}
	for _, next := range n.tree.Children(node) {
		if next == cameFrom || n.linkSevered(next) {
			continue
		}
		*f.crossings++
		if n.dropped(p, f.lost, f.known, next, true) {
			continue
		}
		if arr, ok := n.hopArrival(next, true, at, p); ok {
			n.scheduleHop(arr, f, next, node)
		}
	}
	if !f.downOnly {
		if parent := n.tree.Parent(node); parent != topology.None && parent != cameFrom && !n.linkSevered(node) {
			*f.crossings++
			if !n.dropped(p, f.lost, f.known, node, false) {
				if arr, ok := n.hopArrival(node, false, at, p); ok {
					n.scheduleHop(arr, f, parent, node)
				}
			}
		}
	}
}

// Unicast sends p from host `from` to host `to` along the tree path.
func (n *Network) Unicast(from, to topology.NodeID, p *Packet) {
	p.ID = n.nextID
	n.nextID++
	p.From = from
	p.To = to
	p.Mode = ModeUnicast
	p.hold()
	if at, ok := n.walkLeg(from, to, p); ok {
		if h := n.hostAt[to]; h != nil && to != from {
			n.scheduleDelivery(at.Add(n.jitter()), h, p)
		}
	}
	p.release()
}

// walkLeg carries p along the tree path from `from` to `to`,
// accumulating delay and crossing cost — per link sever-test →
// crossing-count → drop-test, then the queuing or fixed per-hop delay.
// The loss verdict is asked once for the leg. ok is false when a severed
// link, a drop or a full queue stopped p.
func (n *Network) walkLeg(from, to topology.NodeID, p *Packet) (at sim.Time, ok bool) {
	perHop := n.cfg.LinkDelay + n.txTime(p)
	queuing := n.cfg.Queuing || n.queueCap > 0
	crossings := n.counterFor(p)
	lost, known := n.lossVerdict(p)
	cur := from
	at = n.eng.Now()
	n.pathScratch = n.tree.AppendPathLinks(n.pathScratch[:0], from, to)
	for _, link := range n.pathScratch {
		// Climbing crosses the inbound link of where we are; descending
		// crosses the inbound link of where we are going.
		down := link != cur
		if n.linkSevered(link) {
			return at, false
		}
		*crossings++
		if n.dropped(p, lost, known, link, down) {
			return at, false
		}
		if queuing {
			if at, ok = n.hopArrival(link, down, at, p); !ok {
				return at, false
			}
		} else {
			at = at.Add(perHop)
		}
		if down {
			cur = link
		} else {
			cur = n.tree.Parent(cur)
		}
	}
	return at, true
}

// UnicastThenSubcast implements the router-assisted expedited reply of
// §3.3: the packet travels point-to-point from host `from` to the
// turning-point router `via`, which then subcasts it downstream to its
// subtree. Crossing costs accrue for the unicast leg and the subcast
// leg; the packet's final Mode is ModeSubcast.
func (n *Network) UnicastThenSubcast(from, via topology.NodeID, p *Packet) {
	p.ID = n.nextID
	n.nextID++
	p.From = from
	p.To = topology.None
	p.hold()

	// The leg to the turning point is classified as unicast crossings.
	p.Mode = ModeUnicast
	if at, ok := n.walkLeg(from, via, p); ok {
		// Subcast downstream once the packet reaches the turning point.
		// When the subcast head is itself an attached host (the origin
		// subtree is a single leaf), the packet is delivered to it directly.
		id := p.ID
		p.hold()
		n.eng.ScheduleAt(at, func(now sim.Time) {
			checkFrame(p, id)
			p.Mode = ModeSubcast
			if h := n.hostAt[via]; h != nil && via != from {
				n.deliveries.PerHost++
				h.Deliver(now, p)
			}
			n.flood(via, p, true)
			p.release()
		})
	}
	p.release()
}

// hopArrival computes when p finishes crossing link in the given
// direction starting no earlier than at, honoring FIFO serialization.
// When a finite queue cap is active, a payload packet arriving while
// cap transmissions are already queued or in service is tail-dropped:
// ok is false and the packet never crosses. Control packets serialize
// in zero time, occupy no buffer, and are never queue-dropped.
func (n *Network) hopArrival(link topology.LinkID, down bool, at sim.Time, p *Packet) (arrival sim.Time, ok bool) {
	dir := 1
	if down {
		dir = 0
	}
	tx := n.txTime(p)
	capped := n.queueCap > 0 && tx > 0
	var q []sim.Time
	if capped {
		// Prune transmissions that finished by the arrival instant; the
		// finish times are appended in non-decreasing order, so the live
		// suffix is contiguous. It moves to the front of the backing
		// array, which therefore never holds more than a full queue.
		q = n.queued[dir][link]
		done := 0
		for done < len(q) && !q[done].After(at) {
			done++
		}
		if done > 0 {
			q = q[:copy(q, q[done:])]
		}
		if len(q) >= n.queueCap {
			n.queued[dir][link] = q
			n.queueDrops++
			return at, false
		}
	}
	start := at
	if b := n.busyUntil[dir][link]; b.After(start) {
		start = b
	}
	finish := start.Add(tx)
	n.busyUntil[dir][link] = finish
	if capped {
		n.queued[dir][link] = append(q, finish)
	}
	return finish.Add(n.cfg.LinkDelay), true
}
