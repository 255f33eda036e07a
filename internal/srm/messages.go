// Package srm implements the Scalable Reliable Multicast protocol of
// Floyd et al. (SIGCOMM 1995 / ToN 1997) as described in §2 of the
// CESRM paper: receiver-based loss recovery with multicast repair
// requests and replies, deterministic and probabilistic suppression,
// exponential request back-off with a back-off abstinence period, and
// reply abstinence.
//
// The agent exposes the extension points (loss-detection and
// reply-observation hooks, expedited send helpers) that the CESRM layer
// in internal/core builds on; plain SRM uses none of them.
package srm

import (
	"cmp"
	"slices"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// DataMsg is an original data packet of one source's stream. SRM
// supports any number of concurrent single-source streams over the
// shared group; all recovery state is kept per source.
type DataMsg struct {
	// Source is the originating host.
	Source topology.NodeID
	// Seq is the packet sequence number within the stream, dense from 0.
	Seq int
}

// IsOriginalData marks DataMsg for netsim's cost segregation.
func (*DataMsg) IsOriginalData() bool { return true }

// SessionMsg is a periodic group session message (§2). Timestamps give
// receivers one-way distance estimates; the per-source highest known
// sequence numbers let receivers detect tail losses they cannot see as
// gaps.
//
// Highest and Echoes are strictly ascending by NodeID. Every member
// processes every other member's message each period, so the receive
// path must not sort, hash or allocate: the sender emits in index order,
// the codec writes the slices as held and rejects anything else, and
// the receiver relies on the order both for its deterministic
// scheduling sequence and for binary search.
type SessionMsg struct {
	// From is the sending host.
	From topology.NodeID
	// SentAt is the transmission timestamp used for distance estimation.
	SentAt sim.Time
	// Highest lists, per known source, the highest sequence number the
	// sender knows to exist in that source's stream.
	Highest []Advert
	// Echoes carries, per peer, the sender's echo of that peer's last
	// session timestamp (DistEchoRTT mode only; nil otherwise). A
	// receiver finds its own entry and derives a clock-offset-free RTT.
	Echoes []PeerEcho
}

// Advert is one SessionMsg.Highest entry.
type Advert struct {
	// Source identifies the stream.
	Source topology.NodeID
	// Highest is the highest sequence number known to exist in it.
	Highest int
}

// PeerEcho is one SessionMsg.Echoes entry.
type PeerEcho struct {
	// Peer is the host whose timestamp is echoed.
	Peer topology.NodeID
	Echo
}

// HighestFor returns the sequence number m advertises for src's stream.
func (m *SessionMsg) HighestFor(src topology.NodeID) (int, bool) {
	i, ok := slices.BinarySearchFunc(m.Highest, src, func(ad Advert, src topology.NodeID) int {
		return cmp.Compare(ad.Source, src)
	})
	if !ok {
		return 0, false
	}
	return m.Highest[i].Highest, true
}

// EchoFor returns the echo m addresses to peer.
func (m *SessionMsg) EchoFor(peer topology.NodeID) (Echo, bool) {
	i, ok := slices.BinarySearchFunc(m.Echoes, peer, func(pe PeerEcho, peer topology.NodeID) int {
		return cmp.Compare(pe.Peer, peer)
	})
	if !ok {
		return Echo{}, false
	}
	return m.Echoes[i].Echo, true
}

// RequestMsg is a repair request. Per §3.1 of the paper, requests are
// annotated with the requestor and its distance estimate to the source
// so that receivers can reconstruct optimal requestor/replier pairs.
type RequestMsg struct {
	// Source identifies the stream the packet belongs to.
	Source topology.NodeID
	// Seq is the requested packet.
	Seq int
	// Requestor is the requesting host.
	Requestor topology.NodeID
	// ReqDistToSource is the requestor's distance estimate to the
	// source (the d̂qs annotation).
	ReqDistToSource time.Duration
	// Expedited marks CESRM expedited requests, which are unicast to a
	// chosen replier rather than multicast (§3.2). Plain SRM ignores
	// them.
	Expedited bool
	// TurningPoint carries the cached turning-point router in the
	// router-assisted variant (§3.3); None otherwise.
	TurningPoint topology.NodeID
}

// ReplyMsg is a repair reply: the retransmission of the packet. Per
// §3.1 it is annotated with the requestor that instigated it, that
// requestor's distance to the source, the replier, and the replier's
// distance to the requestor.
type ReplyMsg struct {
	// Source identifies the stream the packet belongs to.
	Source topology.NodeID
	// Seq is the retransmitted packet.
	Seq int
	// Replier is the retransmitting host.
	Replier topology.NodeID
	// Requestor is the host whose request instigated this reply.
	Requestor topology.NodeID
	// ReqDistToSource is the requestor's annotated distance to the
	// source (d̂qs).
	ReqDistToSource time.Duration
	// ReplierDistToRequestor is the replier's distance estimate to the
	// requestor (d̂rq).
	ReplierDistToRequestor time.Duration
	// Expedited marks CESRM expedited replies (§3.2).
	Expedited bool
}
