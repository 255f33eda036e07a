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

// heldPacket is a delivered packet kept until the end of the run beside
// a deep copy of what it said when first delivered.
type heldPacket struct {
	p       *netsim.Packet
	pkt     netsim.Packet
	msg     any // DataMsg, RequestMsg, ReplyMsg or SessionMsg, by value
	highest []srm.Advert
	echoes  []srm.PeerEcho
}

// intact reports whether the packet still says what it said.
func (h *heldPacket) intact() bool {
	if *h.p != h.pkt {
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

// packetVault taps every host's deliveries and holds each packet.
type packetVault struct {
	t     *testing.T
	held  []*heldPacket
	index map[*netsim.Packet]*heldPacket
}

type vaultTap struct {
	v     *packetVault
	inner netsim.Host
}

func (tap vaultTap) Deliver(now sim.Time, p *netsim.Packet) {
	v := tap.v
	h, seen := v.index[p]
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
		v.index[p] = h
		v.held = append(v.held, h)
	} else if !h.intact() {
		v.t.Fatalf("packet %d (%T) changed between two of its deliveries", p.ID, p.Msg)
	}
	tap.inner.Deliver(now, p)
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

// TestDeliveredFramesAreNeverMutated is the arenas' aliasing audit: a
// 200-packet lossy CESRM run, with sessions in echo mode, where every
// delivered *Packet is held until the end. Frames share chunks with
// their successors, so a slot handed out twice — or a message built in
// place over a live one — would show as a held packet that no longer
// says what it said when it was delivered.
func TestDeliveredFramesAreNeverMutated(t *testing.T) {
	vault := &packetVault{t: t, index: map[*netsim.Packet]*heldPacket{}}
	const packets = 200
	b := lossyEchoRun(t, packets, func(_ topology.NodeID, h netsim.Host) netsim.Host { return vaultTap{vault, h} })
	for id, a := range b.agents {
		a.Stop()
		if missing := a.SRM().MissingIn(0, packets); missing != 0 || a.SRM().Outstanding() != 0 {
			t.Fatalf("host %d finished missing %d packets, %d outstanding", id, missing, a.SRM().Outstanding())
		}
	}
	b.eng.Run()

	kinds := map[string]int{}
	for _, h := range vault.held {
		if !h.intact() {
			t.Errorf("packet %d (%T) was mutated after delivery: now %+v, delivered as %+v", h.pkt.ID, h.pkt.Msg, *h.p, h.pkt)
		}
		switch m := h.p.Msg.(type) {
		case *srm.DataMsg:
			kinds["data"]++
		case *srm.RequestMsg:
			if m.Expedited {
				kinds["expedited request"]++
			} else {
				kinds["request"]++
			}
		case *srm.ReplyMsg:
			if m.Expedited {
				kinds["expedited reply"]++
			} else {
				kinds["reply"]++
			}
		case *srm.SessionMsg:
			kinds["session"]++
			if len(m.Echoes) > 0 {
				kinds["session with echoes"]++
			}
		}
	}
	// A data packet dropped on the source's own link reaches nobody.
	if kinds["data"] < packets*9/10 {
		t.Errorf("held %d data packets of %d sent", kinds["data"], packets)
	}
	for _, k := range []string{"request", "reply", "expedited request", "expedited reply", "session", "session with echoes"} {
		if kinds[k] == 0 {
			t.Errorf("the run delivered no %s: %v", k, kinds)
		}
	}
}
