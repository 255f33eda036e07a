// Package wire drives the CESRM/SRM protocol agents from real UDP
// sockets under a wall clock, with the deterministic simulator as a
// conformance oracle.
//
// The design is an adapter, not a rewrite. Agents are constructed
// exactly as in simulation — they hold a real *sim.Engine as their
// sim.Sched and a netsim.Endpoint for sends — but the engine's virtual
// clock is slaved to the wall clock by a Driver, and the Endpoint is a
// Network that encodes packets with the netsim wire codec and sends
// them over UDP to the other group members. No protocol code changes.
//
// Determinism across the adapter is the whole point: a node's behavior
// is a pure function of its configuration, its seed, and the ordered
// sequence of (arrival instant, packet bytes) it receives. The Driver
// enforces a one-packet-at-a-time discipline (run the engine to the
// arrival instant, schedule the delivery, run to the instant again)
// whose event sequencing is reproduced exactly by Replay, so a captured
// run replayed through the simulator must emit a byte-identical
// outbound packet stream and an identical protocol-event stream. Any
// divergence is a bug in the adapter or a sim-only assumption in the
// protocol code.
package wire

import (
	"fmt"
	"sort"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// Protocol selects which agent a node runs.
type Protocol string

const (
	// ProtocolSRM runs the plain SRM agent.
	ProtocolSRM Protocol = "srm"
	// ProtocolCESRM runs the caching-enhanced agent.
	ProtocolCESRM Protocol = "cesrm"
)

// NodeConfig describes one wire node. Every member of the group must
// agree on the tree, the protocol, the source schedule, and the nominal
// network parameters; Seed may differ per deployment but must be shared
// by all members so that per-node RNG derivation is reproducible.
type NodeConfig struct {
	// Tree is the multicast topology; the source is its root, the
	// receivers its Receivers(). Hosts live at the root and the
	// receiver leaves; interior nodes exist only for RTT estimates.
	Tree *topology.Tree
	// ID is this node's position in the tree (root or a receiver).
	ID topology.NodeID
	// Protocol selects SRM or CESRM.
	Protocol Protocol
	// Seed derives each node's RNG (nodeSeed mixes in the node ID).
	Seed int64
	// NumPackets is the length of the source's stream.
	NumPackets int
	// Period is the source's inter-packet gap.
	Period time.Duration
	// Warmup delays the first data packet so session exchange can prime
	// distance estimates, as in the paper's evaluation.
	Warmup time.Duration
	// SRM holds the scheduling parameters (both protocols).
	SRM srm.Params
	// ReorderDelay and CacheCapacity parameterize the CESRM layer
	// (ignored for ProtocolSRM).
	ReorderDelay  time.Duration
	CacheCapacity int
	// Net carries the nominal physical parameters used for RTT
	// estimates (LinkDelay) and packet-class sizing. Validated like a
	// simulation config.
	Net netsim.Config
	// Linger is how long a receiver stays complete (stream fully
	// classified, nothing outstanding) before stopping itself.
	Linger time.Duration
	// SourceLinger is how long the source keeps serving repairs after
	// its last transmission before stopping.
	SourceLinger time.Duration
	// MaxRunTime hard-stops the node at that virtual instant, complete
	// or not, so a lost peer cannot hang a run forever.
	MaxRunTime time.Duration
}

// withDefaults fills zero fields with workable defaults.
func (c NodeConfig) withDefaults() NodeConfig {
	if c.Protocol == "" {
		c.Protocol = ProtocolCESRM
	}
	zero := srm.Params{}
	if c.SRM == zero {
		c.SRM = srm.DefaultParams()
	}
	if c.Net == (netsim.Config{}) {
		c.Net = netsim.DefaultConfig()
	}
	if c.NumPackets == 0 {
		c.NumPackets = 32
	}
	if c.Period == 0 {
		c.Period = 40 * time.Millisecond
	}
	if c.Warmup == 0 {
		c.Warmup = 3 * c.SRM.SessionPeriod
	}
	if c.Linger == 0 {
		c.Linger = 2 * c.SRM.SessionPeriod
	}
	if c.SourceLinger == 0 {
		c.SourceLinger = 10 * c.SRM.SessionPeriod
	}
	if c.MaxRunTime == 0 {
		c.MaxRunTime = c.Warmup + time.Duration(c.NumPackets)*c.Period +
			c.SourceLinger + 30*c.SRM.SessionPeriod
	}
	return c
}

// Validate rejects configurations a node cannot run.
func (c NodeConfig) Validate() error {
	if c.Tree == nil {
		return fmt.Errorf("wire: config has no tree")
	}
	if c.ID < 0 || int(c.ID) >= c.Tree.NumNodes() {
		return fmt.Errorf("wire: node id %d outside tree of %d nodes", c.ID, c.Tree.NumNodes())
	}
	if !isMember(c.Tree, c.ID) {
		return fmt.Errorf("wire: node %d is neither the source nor a receiver", c.ID)
	}
	switch c.Protocol {
	case ProtocolSRM, ProtocolCESRM:
	default:
		return fmt.Errorf("wire: unknown protocol %q", c.Protocol)
	}
	if c.NumPackets <= 0 || c.NumPackets > srm.MaxSeq+1 {
		return fmt.Errorf("wire: packet count %d outside [1, %d]", c.NumPackets, srm.MaxSeq+1)
	}
	if c.Period <= 0 || c.Warmup < 0 || c.Linger <= 0 || c.SourceLinger <= 0 || c.MaxRunTime <= 0 {
		return fmt.Errorf("wire: non-positive schedule parameter")
	}
	if err := c.SRM.Validate(); err != nil {
		return err
	}
	return c.Net.Validate()
}

// Members returns the group membership — the source plus every
// receiver — in ascending node order.
func (c NodeConfig) Members() []topology.NodeID {
	return members(c.Tree)
}

func members(tree *topology.Tree) []topology.NodeID {
	m := append([]topology.NodeID{tree.Root()}, tree.Receivers()...)
	sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
	return m
}

func isMember(tree *topology.Tree, id topology.NodeID) bool {
	for _, m := range members(tree) {
		if m == id {
			return true
		}
	}
	return false
}

// nodeSeed derives node id's RNG seed from the shared group seed with a
// splitmix-style mix, so per-node streams are independent but every
// member (and the replay oracle) derives the same one.
func nodeSeed(seed int64, id topology.NodeID) int64 {
	x := uint64(seed) ^ (uint64(id)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
