package srm

import (
	"fmt"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// DistanceMode selects how session messages estimate inter-host
// distances (§2).
type DistanceMode int

const (
	// DistOneWay computes the one-way latency directly from the sender's
	// timestamp, which presumes synchronized clocks. Inside the
	// simulator all hosts share the virtual clock, so this is exact and
	// converges after a single session message.
	DistOneWay DistanceMode = iota
	// DistEchoRTT implements SRM's deployable estimator: each session
	// message echoes, per peer, the timestamp of the last session
	// message received from that peer together with how long it was
	// held before echoing. The peer computes
	//
	//	rtt = now - echoedTimestamp - heldFor
	//
	// which needs no clock synchronization, and halves it. Convergence
	// needs a full session round trip.
	DistEchoRTT
)

// String returns the mode name.
func (m DistanceMode) String() string {
	switch m {
	case DistOneWay:
		return "one-way"
	case DistEchoRTT:
		return "echo-rtt"
	default:
		return "unknown"
	}
}

// DistancePlane holds every member's one-way distance estimates for one
// run, transposed: row = the node the estimate is to, column = the
// member holding it, -1 = no estimate yet (so a recorded zero stays
// distinguishable from "never seen"). Multicast is why: one flood makes
// every member look up, or record, its estimate to the same node — the
// requestor a reply names, the sender of a session message — and in
// this layout those accesses fall in one contiguous row instead of one
// table per member. Members share rows and only ever touch their own
// column's words.
type DistancePlane struct {
	d       []time.Duration
	members int
}

// NewDistancePlane returns a plane of nodes rows and members columns
// with every estimate unknown.
func NewDistancePlane(nodes, members int) *DistancePlane {
	d := make([]time.Duration, nodes*members)
	for i := range d {
		d[i] = -1
	}
	return &DistancePlane{d: d, members: members}
}

// UseDistancePlane makes column col of pl the agent's distance table in
// place of the private one-column plane it was built with. Like
// EnableAdaptiveTimers it must be called before the simulation starts:
// estimates already recorded stay behind. The caller gives every agent
// of the run its own column.
func (a *Agent) UseDistancePlane(pl *DistancePlane, col int) error {
	if col < 0 || col >= pl.members || len(pl.d) != a.nodes*pl.members {
		return fmt.Errorf("srm: host %d given column %d of a %d-cell, %d-member distance plane for %d nodes",
			a.id, col, len(pl.d), pl.members, a.nodes)
	}
	a.dist, a.stride = pl.d[col:], pl.members
	return nil
}

// Echo is the per-peer annotation on session messages in DistEchoRTT
// mode: the peer's last timestamp as received, and how long the sender
// held it before this session message went out.
type Echo struct {
	// PeerSentAt is the SentAt carried by the last session message
	// received from the peer.
	PeerSentAt sim.Time
	// HeldFor is the delay between receiving that session message and
	// sending this one.
	HeldFor time.Duration
}

// echoState tracks the inbound side of the echo protocol on one host.
type echoState struct {
	// lastFrom records, indexed by peer NodeID, the peer's timestamp and
	// our receipt time for the most recent session message from that
	// peer. Dense by NodeID, so echoes emits in ascending peer
	// order for free; allocated on the first record, so one-way mode
	// never pays for it.
	lastFrom []echoEntry
	// nodes sizes lastFrom; peers counts its occupied entries.
	nodes, peers int
}

type echoEntry struct {
	peerSentAt sim.Time
	receivedAt sim.Time
	seen       bool
}

// newEchoState returns empty echo state for a tree of the given size.
func newEchoState(nodes int) *echoState {
	return &echoState{nodes: nodes}
}

// record notes a session message from peer, which the caller has
// bounds-checked against the tree size.
func (e *echoState) record(peer topology.NodeID, peerSentAt, now sim.Time) {
	if e.lastFrom == nil {
		e.lastFrom = make([]echoEntry, e.nodes)
	}
	entry := &e.lastFrom[peer]
	if !entry.seen {
		e.peers++
	}
	*entry = echoEntry{peerSentAt: peerSentAt, receivedAt: now, seen: true}
}

// appendEchoes appends the annotations for an outgoing session message
// to out, ascending by peer; there are e.peers of them.
func (e *echoState) appendEchoes(out []PeerEcho, now sim.Time) []PeerEcho {
	for peer := range e.lastFrom {
		entry := &e.lastFrom[peer]
		if !entry.seen {
			continue
		}
		out = append(out, PeerEcho{Peer: topology.NodeID(peer), Echo: Echo{
			PeerSentAt: entry.peerSentAt,
			HeldFor:    time.Duration(now.Sub(entry.receivedAt)),
		}})
	}
	return out
}

// rttFromEcho computes the round-trip estimate for an echo addressed to
// this host, received at now. Returns false for nonsensical (negative)
// samples, which can only arise from corrupted input.
func rttFromEcho(now sim.Time, e Echo) (time.Duration, bool) {
	rtt := time.Duration(now.Sub(e.PeerSentAt)) - e.HeldFor
	if rtt < 0 {
		return 0, false
	}
	return rtt, true
}
