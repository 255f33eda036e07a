package srm

import (
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
