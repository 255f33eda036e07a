package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
)

// wireArrival is one delivery as a wire node would have received it.
type wireArrival struct {
	at   sim.Time
	data []byte
}

// wireTap records everything one host is delivered, encoded.
type wireTap struct {
	t      *testing.T
	inner  netsim.Host
	stream *[]wireArrival
}

func (w wireTap) Deliver(now sim.Time, p *netsim.Packet) {
	data, err := netsim.EncodePacket(nil, p)
	if err != nil {
		w.t.Fatal(err)
	}
	*w.stream = append(*w.stream, wireArrival{now, data})
	w.inner.Deliver(now, p)
}

// twinEndpoint is a lone agent's network: it logs every send — instant,
// primitive, destination, bytes — and delivers nothing.
type twinEndpoint struct {
	t     *testing.T
	tree  *topology.Tree
	eng   *sim.Engine
	sends []string
}

func (e *twinEndpoint) Tree() *topology.Tree                    { return e.tree }
func (e *twinEndpoint) AttachHost(topology.NodeID, netsim.Host) {}
func (e *twinEndpoint) RTT(a, b topology.NodeID) time.Duration {
	return 2 * time.Duration(e.tree.HopCount(a, b)) * netsim.DefaultConfig().LinkDelay
}

func (e *twinEndpoint) log(p *netsim.Packet, from, to topology.NodeID, mode netsim.Mode) {
	p.From, p.To, p.Mode = from, to, mode
	data, err := netsim.EncodePacket(nil, p)
	if err != nil {
		e.t.Fatal(err)
	}
	e.sends = append(e.sends, fmt.Sprintf("%v %v to %d: %x", e.eng.Now(), mode, to, data))
}

func (e *twinEndpoint) Multicast(from topology.NodeID, p *netsim.Packet) {
	e.log(p, from, topology.None, netsim.ModeMulticast)
}
func (e *twinEndpoint) Unicast(from, to topology.NodeID, p *netsim.Packet) {
	e.log(p, from, to, netsim.ModeUnicast)
}
func (e *twinEndpoint) UnicastThenSubcast(from, via topology.NodeID, p *netsim.Packet) {
	e.log(p, from, via, netsim.ModeSubcast)
}

// twin is a lone CESRM agent fed a recorded arrival stream.
type twin struct {
	eng   *sim.Engine
	ep    *twinEndpoint
	rec   *stats.Recorder
	agent *Agent
}

func newTwin(t *testing.T, tree *topology.Tree, id topology.NodeID, cfg Config) *twin {
	eng := sim.NewEngine()
	tw := &twin{eng: eng, ep: &twinEndpoint{t: t, tree: tree, eng: eng}, rec: stats.NewRecorder(eng.Now)}
	a, err := NewAgent(eng, tw.ep, sim.NewRNG(77), id, cfg, tw.rec)
	if err != nil {
		t.Fatal(err)
	}
	tw.agent = a
	a.StartSessions()
	return tw
}

// feed delivers the stream, each packet as decode hands it over, then
// lets the agent's timers run out.
func (tw *twin) feed(t *testing.T, stream []wireArrival, decode func([]byte) (*netsim.Packet, error)) {
	for _, arr := range stream {
		tw.eng.RunUntil(arr.at)
		p, err := decode(arr.data)
		if err != nil {
			t.Fatal(err)
		}
		tw.agent.Deliver(arr.at, p)
	}
	tw.eng.RunUntil(stream[len(stream)-1].at.Add(30 * time.Second))
	tw.agent.Stop()
	tw.eng.Run()
}

// TestTwinAgentsDecoderReuse is the wire tier's ownership contract as a
// test: netsim.Host.Deliver keeps nothing of the packet it is handed —
// not p, not p.Msg, not a session message's lists — so a node may decode
// every datagram into the same storage. One receiver's arrivals in a
// lossy echo-mode CESRM run (data, sessions with echoes, requests,
// expedited requests, replies) are replayed into two identically seeded
// lone agents: one is given a fresh packet per arrival, the other a
// single PacketDecoder's packet, overwritten by each next arrival. Had
// any handler kept a pointer into it, the second agent would go on to
// read a later datagram's fields where the first reads the right ones,
// and their event streams, sends or event counts would part.
func TestTwinAgentsDecoderReuse(t *testing.T) {
	streams := map[topology.NodeID]*[]wireArrival{}
	b := lossyEchoRun(t, 600, func(id topology.NodeID, h netsim.Host) netsim.Host {
		streams[id] = new([]wireArrival)
		return wireTap{t, h, streams[id]}
	})
	tree := b.tree

	// The first receiver whose stream has every kind of message in it.
	var (
		id     topology.NodeID
		stream []wireArrival
	)
	for _, r := range tree.Receivers() {
		kinds := map[string]bool{}
		for _, arr := range *streams[r] {
			p, err := netsim.DecodePacket(arr.data)
			if err != nil {
				t.Fatal(err)
			}
			switch m := p.Msg.(type) {
			case *srm.DataMsg:
				kinds["data"] = true
			case *srm.SessionMsg:
				if len(m.Echoes) > 0 {
					kinds["session with echoes"] = true
				}
			case *srm.RequestMsg:
				kinds[fmt.Sprint("request ", m.Expedited)] = true
			case *srm.ReplyMsg:
				kinds[fmt.Sprint("reply ", m.Expedited)] = true
			}
		}
		if len(kinds) == 6 && len(*streams[r]) >= 2000 {
			id, stream = r, *streams[r]
			break
		}
	}
	if stream == nil {
		t.Fatal("no receiver was delivered 2000 messages of every kind")
	}

	cfg := detConfig()
	cfg.SRM.DistanceMode = srm.DistEchoRTT
	fresh, reused := newTwin(t, tree, id, cfg), newTwin(t, tree, id, cfg)
	fresh.feed(t, stream, netsim.DecodePacket)
	var dec netsim.PacketDecoder
	reused.feed(t, stream, dec.Decode)

	t.Logf("host %d: %d arrivals, %d events, %d sends, %d engine events",
		id, len(stream), len(fresh.rec.Events()), len(fresh.ep.sends), fresh.eng.Executed())
	if len(fresh.rec.Events()) == 0 || len(fresh.ep.sends) == 0 {
		t.Fatal("the stream provoked nothing")
	}
	if !reflect.DeepEqual(fresh.rec.Events(), reused.rec.Events()) {
		t.Errorf("event streams differ: %d events from fresh packets, %d from the reused decoder",
			len(fresh.rec.Events()), len(reused.rec.Events()))
	}
	if !reflect.DeepEqual(fresh.ep.sends, reused.ep.sends) {
		t.Errorf("sends differ: %d from fresh packets, %d from the reused decoder", len(fresh.ep.sends), len(reused.ep.sends))
	}
	if f, r := fresh.eng.Executed(), reused.eng.Executed(); f != r {
		t.Errorf("engine executed %d events on fresh packets, %d on the reused decoder", f, r)
	}
}
