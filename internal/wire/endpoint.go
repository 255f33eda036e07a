package wire

import (
	"fmt"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// Network implements netsim.Endpoint over a send callback: the live
// node plugs in the UDP transport, the replay oracle plugs in a no-op.
// Tree geometry and RTT estimates come from the shared NodeConfig, so
// the protocol's distance arithmetic matches the simulated network's.
//
// Delivery sets mirror netsim exactly: a multicast reaches every other
// member, a unicast only its destination, and a unicast-then-subcast
// reaches the via router (if it is a member) plus every member strictly
// below it. Because only members run processes, "the flood reaches every
// attached host" degenerates to these membership computations.
//
// Packet IDs are assigned from a local counter in send order. The wire
// carries them for diagnostics; the receiving side never uses them (in
// the sim a multicast shares one Packet instance, on the wire each
// recipient decodes its own copy).
type Network struct {
	tree    *topology.Tree
	cfg     netsim.Config
	self    topology.NodeID
	members []topology.NodeID

	// clock timestamps logical sends for the capture.
	clock func() sim.Time
	// send transmits one encoded packet to a destination member. nil
	// sends (replay) are skipped.
	send func(dst topology.NodeID, data []byte)
	// onSend observes each logical send once (not once per
	// destination), with its encoded bytes — the conformance stream.
	onSend func(at sim.Time, data []byte)

	nextID uint64
	host   netsim.Host
	// enc holds the encode scratch; sends happen one at a time on the
	// engine goroutine.
	enc netsim.Encoder
}

// NewNetwork builds the endpoint for node self. clock must report the
// driving engine's virtual time.
func NewNetwork(tree *topology.Tree, cfg netsim.Config, self topology.NodeID, clock func() sim.Time) *Network {
	return &Network{
		tree:    tree,
		cfg:     cfg,
		self:    self,
		members: members(tree),
		clock:   clock,
	}
}

// SetSend installs the per-destination transmit callback.
func (n *Network) SetSend(send func(dst topology.NodeID, data []byte)) { n.send = send }

// SetOnSend installs the logical-send observer.
func (n *Network) SetOnSend(fn func(at sim.Time, data []byte)) { n.onSend = fn }

// Tree returns the topology.
func (n *Network) Tree() *topology.Tree { return n.tree }

// RTT returns the nominal round-trip control latency between two nodes,
// matching the simulated network: twice the hop count times LinkDelay.
func (n *Network) RTT(a, b topology.NodeID) time.Duration {
	return 2 * time.Duration(n.tree.HopCount(a, b)) * n.cfg.LinkDelay
}

// AttachHost records the local agent. Attaching any node but self is an
// error in wiring: remote hosts live in other processes.
func (n *Network) AttachHost(id topology.NodeID, h netsim.Host) {
	if id != n.self {
		panic(fmt.Sprintf("wire: AttachHost(%d) on node %d", id, n.self))
	}
	if h == nil {
		panic("wire: AttachHost with nil host")
	}
	n.host = h
}

// Host returns the attached local agent.
func (n *Network) Host() netsim.Host { return n.host }

// emit encodes p once, reports it to the send observer, and transmits
// it to every destination dsts selects. Nothing reads p after the
// encoding, so it goes straight back to its owner (netsim.Recycler).
func (n *Network) emit(p *netsim.Packet, dsts func(m topology.NodeID) bool) {
	p.ID = n.nextID
	n.nextID++
	n.enc.Reset(n.enc.Bytes()[:0])
	if err := n.enc.Packet(p); err != nil {
		// Unregistered message types cannot leave a wire node; this is
		// a wiring bug, not a runtime condition.
		panic(err)
	}
	if p.Owner != nil {
		p.Owner.Recycle(p)
	}
	data := n.enc.Bytes()
	if n.onSend != nil {
		n.onSend(n.clock(), data)
	}
	if n.send == nil {
		return
	}
	for _, m := range n.members {
		if m != n.self && dsts(m) {
			n.send(m, data)
		}
	}
}

// Multicast sends p to every other group member.
func (n *Network) Multicast(from topology.NodeID, p *netsim.Packet) {
	p.From = from
	p.To = topology.None
	p.Mode = netsim.ModeMulticast
	n.emit(p, func(topology.NodeID) bool { return true })
}

// Unicast sends p to member to only.
func (n *Network) Unicast(from, to topology.NodeID, p *netsim.Packet) {
	p.From = from
	p.To = to
	p.Mode = netsim.ModeUnicast
	n.emit(p, func(m topology.NodeID) bool { return m == to })
}

// UnicastThenSubcast sends p to the members in router via's subtree
// (including via itself when it is a member), mirroring netsim's §3.3
// delivery set. The packet's final mode is subcast.
func (n *Network) UnicastThenSubcast(from, via topology.NodeID, p *netsim.Packet) {
	p.From = from
	p.To = topology.None
	p.Mode = netsim.ModeSubcast
	n.emit(p, func(m topology.NodeID) bool { return n.inSubtree(m, via) })
}

// inSubtree reports whether m is via or a descendant of via.
func (n *Network) inSubtree(m, via topology.NodeID) bool {
	for cur := m; cur != topology.None; cur = n.tree.Parent(cur) {
		if cur == via {
			return true
		}
	}
	return false
}

var _ netsim.Endpoint = (*Network)(nil)
