package core

import (
	"slices"
	"testing"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// sendKey identifies one send of a frame: frames are reused once handed
// back, so the pointer alone is not an identity, and a frame is sent
// again only under a new ID.
type sendKey struct {
	p  *netsim.Packet
	id uint64
}

// heldPacket is one send beside a deep copy of what the packet said at
// its first delivery.
type heldPacket struct {
	p       *netsim.Packet
	pkt     netsim.Packet
	msg     any // DataMsg, RequestMsg, ReplyMsg or SessionMsg, by value
	highest []srm.Advert
	echoes  []srm.PeerEcho
}

// intact reports whether the packet still says what it said. The
// network's reference count is not part of what a packet says.
func (h *heldPacket) intact() bool {
	p, was := h.p, &h.pkt
	if p.ID != was.ID || p.From != was.From || p.To != was.To || p.Class != was.Class ||
		p.Mode != was.Mode || p.Session != was.Session || p.Msg != was.Msg || p.Owner != was.Owner {
		return false
	}
	switch m := h.p.Msg.(type) {
	case *srm.DataMsg:
		return *m == h.msg.(srm.DataMsg)
	case *srm.RequestMsg:
		return *m == h.msg.(srm.RequestMsg)
	case *srm.ReplyMsg:
		return *m == h.msg.(srm.ReplyMsg)
	case *srm.SessionMsg:
		was := h.msg.(srm.SessionMsg)
		return m.From == was.From && m.SentAt == was.SentAt &&
			slices.Equal(m.Highest, h.highest) && slices.Equal(m.Echoes, h.echoes)
	}
	return false
}

// packetVault taps every host's deliveries and snapshots each send.
type packetVault struct {
	t     *testing.T
	held  []*heldPacket
	index map[sendKey]*heldPacket
	// reached records which hosts each send was delivered to.
	reached map[reach]bool
}

type reach struct {
	send sendKey
	node topology.NodeID
}

type vaultTap struct {
	v     *packetVault
	node  topology.NodeID
	inner netsim.Host
}

// Deliver checks the send against its snapshot before and after the
// host handles it: whatever the host does meanwhile — its own sends
// included — must not rebuild the frame it is reading. A host is
// delivered a send once (the run injects no duplicates): a second time
// is a stale event of an earlier send of the frame, delivering what the
// frame says now.
func (tap vaultTap) Deliver(now sim.Time, p *netsim.Packet) {
	v := tap.v
	key := sendKey{p, p.ID}
	if r := (reach{key, tap.node}); v.reached[r] {
		v.t.Fatalf("host %d was delivered packet %d (%T) twice", tap.node, p.ID, p.Msg)
	} else {
		v.reached[r] = true
	}
	h, seen := v.index[key]
	if !seen {
		h = &heldPacket{p: p, pkt: *p}
		switch m := p.Msg.(type) {
		case *srm.DataMsg:
			h.msg = *m
		case *srm.RequestMsg:
			h.msg = *m
		case *srm.ReplyMsg:
			h.msg = *m
		case *srm.SessionMsg:
			h.msg, h.highest, h.echoes = *m, slices.Clone(m.Highest), slices.Clone(m.Echoes)
		default:
			v.t.Fatalf("unexpected message %T", p.Msg)
		}
		v.index[key] = h
		v.held = append(v.held, h)
	} else if !h.intact() {
		v.t.Fatalf("packet %d (%T) changed between two of its deliveries", p.ID, p.Msg)
	}
	tap.inner.Deliver(now, p)
	if !h.intact() {
		v.t.Fatalf("packet %d (%T) changed while a host handled it", h.pkt.ID, h.pkt.Msg)
	}
}

// lossyEchoRun streams packets data packets, 20 ms apart, through a
// nine-receiver CESRM group whose sessions run in echo mode and whose
// downward links each lose 4 % of the data, with every host behind
// tap's wrapper, and runs 20 s past the last transmission: long enough
// for every loss to be repaired, by every kind of message there is.
func lossyEchoRun(t *testing.T, packets int, tap func(id topology.NodeID, h netsim.Host) netsim.Host) *bed {
	t.Helper()
	cfg := detConfig()
	cfg.SRM.DistanceMode = srm.DistEchoRTT
	b := newBedObserved(t, topology.MustGenerate(sim.NewRNG(5), topology.GenSpec{Receivers: 9, Depth: 4}), cfg, nil)
	for id, a := range b.agents {
		b.net.AttachHost(id, tap(id, a))
	}
	drops := sim.NewRNG(11)
	b.net.SetDropFunc(func(p *netsim.Packet, _ topology.LinkID, down bool) bool {
		_, data := p.Msg.(*srm.DataMsg)
		return data && down && drops.Float64() < 0.04
	})
	for _, a := range b.agents {
		a.StartSessions()
	}
	b.sendData(packets, 20*time.Millisecond)
	b.eng.RunUntil(sim.Time(time.Duration(packets)*20*time.Millisecond + 20*time.Second))
	return b
}

// TestDeliveredFramesAreNeverMutated is the frames' aliasing audit: a
// 200-packet lossy CESRM run, with sessions in echo mode, where every
// delivery is checked against a deep copy of its send taken at the
// send's first delivery. Frames go back to their sender after a send's
// last delivery and are rebuilt for the next one, so a send is keyed by
// (pointer, ID): a frame handed back early, rebuilt while still in
// flight, or a message built in place over a live one would show as a
// send that no longer says what it said. The run must also show frames
// of every kind sent again under new IDs, or it audited no reuse.
func TestDeliveredFramesAreNeverMutated(t *testing.T) {
	vault := &packetVault{t: t, index: map[sendKey]*heldPacket{}, reached: map[reach]bool{}}
	const packets = 200
	b := lossyEchoRun(t, packets, func(id topology.NodeID, h netsim.Host) netsim.Host { return vaultTap{vault, id, h} })
	for id, a := range b.agents {
		a.Stop()
		if missing := a.SRM().MissingIn(0, packets); missing != 0 || a.SRM().Outstanding() != 0 {
			t.Fatalf("host %d finished missing %d packets, %d outstanding", id, missing, a.SRM().Outstanding())
		}
	}
	b.eng.Run()

	kinds, reused := map[string]int{}, map[string]int{}
	sends := map[*netsim.Packet]int{}
	for _, h := range vault.held {
		var kind string
		switch m := h.msg.(type) {
		case srm.DataMsg:
			kind = "data"
		case srm.RequestMsg:
			kind = "request"
			if m.Expedited {
				kind = "expedited request"
			}
		case srm.ReplyMsg:
			kind = "reply"
			if m.Expedited {
				kind = "expedited reply"
			}
		case srm.SessionMsg:
			kind = "session"
			if len(h.echoes) > 0 {
				kinds["session with echoes"]++
			}
		}
		kinds[kind]++
		if sends[h.p]++; sends[h.p] == 2 {
			reused[kind]++
		}
	}
	t.Logf("sends by kind %v, frames sent more than once %v", kinds, reused)
	// A data packet dropped on the source's own link reaches nobody.
	if kinds["data"] < packets*9/10 {
		t.Errorf("held %d data packets of %d sent", kinds["data"], packets)
	}
	for _, k := range []string{"request", "reply", "expedited request", "expedited reply", "session", "session with echoes"} {
		if kinds[k] == 0 {
			t.Errorf("the run delivered no %s: %v", k, kinds)
		}
	}
	for _, k := range []string{"data", "request", "reply", "session"} {
		if reused[k] == 0 {
			t.Errorf("no %s frame was sent twice: %v of %v sends", k, reused, kinds)
		}
	}
}
