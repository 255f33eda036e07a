package srm

import (
	"fmt"
	"math"
	"testing"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// starTree is 0 -> 1 -> {2, …, n-1}: a source and n-2 receivers.
func starTree(n int) *topology.Tree {
	parents := make([]topology.NodeID, n)
	parents[0] = topology.None
	for i := 2; i < n; i++ {
		parents[i] = 1
	}
	return topology.MustNew(parents)
}

// sessionFrom builds the session packet peer would send at sentAt,
// advertising highest for each of the nodes [0, sources) and echoing
// every host in echoFor.
func sessionFrom(peer topology.NodeID, sentAt sim.Time, sources, highest int, echoFor []topology.NodeID) *netsim.Packet {
	pkt, m := new(Frames).Session(peer, sentAt)
	for src := 0; src < sources; src++ {
		m.Highest = append(m.Highest, Advert{Source: topology.NodeID(src), Highest: highest})
	}
	for _, id := range echoFor {
		m.Echoes = append(m.Echoes, PeerEcho{Peer: id, Echo: Echo{PeerSentAt: sentAt - 1}})
	}
	return pkt
}

// TestOnSessionAllocationFree pins the session receive path at zero
// allocations per message once warm, in both distance modes. "idle" is
// the common case, an advert that reveals nothing new; "fresh" is an
// advert one past the cursor, which arms the DetectionSlack handler —
// the data packet then lands inside the slack, so the handler fires,
// finds nothing to detect and returns to the agent's pool.
func TestOnSessionAllocationFree(t *testing.T) {
	for _, mode := range []DistanceMode{DistOneWay, DistEchoRTT} {
		p := detParams()
		p.DistanceMode = mode
		f := newFixture(t, starTree(8), p)
		a := f.agents[5]
		var echoFor []topology.NodeID
		if mode == DistEchoRTT {
			echoFor = []topology.NodeID{0, 2, 3, 4, 5, 6, 7}
		}
		seq := 0
		dataMsg := &DataMsg{Source: 0}
		dataPkt := &netsim.Packet{Msg: dataMsg}
		data := func() {
			dataMsg.Seq = seq
			a.Deliver(f.eng.Now(), dataPkt)
			seq++
		}
		data()

		idle := sessionFrom(3, f.eng.Now(), 1, seq-1, echoFor)
		if avg := testing.AllocsPerRun(100, func() { a.Deliver(f.eng.Now(), idle) }); avg != 0 {
			t.Errorf("%v idle: a received session message allocates %.1f objects, want 0", mode, avg)
		}

		fresh := sessionFrom(3, f.eng.Now(), 1, 0, echoFor)
		round := func() {
			fresh.Msg.(*SessionMsg).Highest[0].Highest = seq
			a.Deliver(f.eng.Now(), fresh)
			if a.freeSlack != nil {
				t.Fatal("fresh advert did not take the pooled slack handler")
			}
			data()
			a.ReleaseThrough(0, seq-1)
			f.eng.RunUntil(f.eng.Now().Add(p.DetectionSlack))
			if a.freeSlack == nil {
				t.Fatal("fired slack handler did not return to the pool")
			}
		}
		for i := 0; i < 8; i++ {
			round()
		}
		if avg := testing.AllocsPerRun(100, round); avg != 0 {
			t.Errorf("%v fresh: advert + slack detection allocates %.1f objects, want 0", mode, avg)
		}
		if len(f.log.detections) != 0 {
			t.Errorf("%v: %d spurious detections", mode, len(f.log.detections))
		}
	}
}

// TestMultiSourceAdvertOrder pins the ascending-NodeID contract end to
// end, which no committed workload does (none has more than one source):
// a member that learned of five streams in scrambled order advertises
// them ascending, and a receiver of that one message runs its five
// slack detections at one instant in ascending source order.
func TestMultiSourceAdvertOrder(t *testing.T) {
	f := newFixture(t, starTree(10), detParams())
	sender, receiver := f.agents[3], topology.NodeID(5)
	for _, src := range []topology.NodeID{9, 4, 0, 7, 2} {
		sender.Deliver(0, &netsim.Packet{Msg: &DataMsg{Source: src, Seq: 0}})
	}
	var sent *SessionMsg
	f.net.SetDropFunc(func(p *netsim.Packet, _ topology.LinkID, _ bool) bool {
		if m, ok := p.Msg.(*SessionMsg); ok {
			sent = m
		}
		return false
	})
	f.eng.ScheduleAt(0, sender.sessionTick)
	f.eng.RunUntil(sim.Time(time.Millisecond))
	sender.Stop()
	f.eng.RunUntil(sim.Time(time.Second))

	want := []topology.NodeID{0, 2, 4, 7, 9}
	if sent == nil || len(sent.Highest) != len(want) || cap(sent.Highest) != len(want) {
		t.Fatalf("session message = %+v, want exactly %d adverts", sent, len(want))
	}
	for i, ad := range sent.Highest {
		if ad.Source != want[i] || ad.Highest != 0 {
			t.Errorf("advert %d = %+v, want source %d highest 0", i, ad, want[i])
		}
	}
	var got []event
	for _, d := range f.log.detections {
		if d.host == receiver {
			got = append(got, d)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("receiver detected %d losses, want %d", len(got), len(want))
	}
	for i, d := range got {
		if d.source != want[i] || d.at != got[0].at {
			t.Errorf("detection %d: source %d at %v, want source %d at %v",
				i, d.source, d.at, want[i], got[0].at)
		}
	}
}

// deliverOffWire hands p to a the way the wire tier would: encoded and
// decoded first, which proves the message is well-formed on the wire.
func deliverOffWire(t *testing.T, a *Agent, p *netsim.Packet) {
	t.Helper()
	data, err := netsim.EncodePacket(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := netsim.DecodePacket(data)
	if err != nil {
		t.Fatalf("hostile message %+v must be well-formed on the wire: %v", p.Msg, err)
	}
	a.Deliver(sim.Time(time.Second), pkt)
}

// TestHostileSessionNodeIDs: netsim.Decoder.Node admits any ID up to
// MaxInt32, so a well-formed datagram can name nodes the tree does not
// have. A sender outside the tree used to index a.dist out of range; an
// advertised source of MaxInt32 used to grow a.streams by two billion
// entries. Both are now refused and counted.
func TestHostileSessionNodeIDs(t *testing.T) {
	for _, mode := range []DistanceMode{DistOneWay, DistEchoRTT} {
		p := detParams()
		p.DistanceMode = mode
		f := newFixture(t, starTree(7), p)
		a := f.agents[4]
		hostile := []*SessionMsg{
			{From: 1000, SentAt: 1},
			{From: 2, SentAt: 1, Highest: []Advert{{Source: 0, Highest: 3}, {Source: math.MaxInt32, Highest: 9}}},
		}
		for _, m := range hostile {
			deliverOffWire(t, a, &netsim.Packet{From: 2, To: topology.None,
				Mode: netsim.ModeMulticast, Class: netsim.Control, Session: true, Msg: m})
		}
		if nodes := f.tree.NumNodes(); len(a.streams) > nodes {
			t.Errorf("%v: len(streams) = %d, beyond the tree's %d nodes", mode, len(a.streams), nodes)
		}
		if got := a.SessionRejects(); got != 2 {
			t.Errorf("%v: SessionRejects = %d, want 2", mode, got)
		}
		// The in-tree advert beside the hostile one still counts.
		if st := a.peek(0); st == nil || st.highestKnown != 3 {
			t.Errorf("%v: valid advert beside a hostile one was dropped", mode)
		}
	}
}

// TestHostileNodeIDs is TestHostileSessionNodeIDs for the other three
// message kinds: a source of None used to index a.streams[-1], a
// requestor of None on a request for a held packet used to index
// a.dist[-1], and a source of MaxInt32 used to grow a.streams by two
// billion entries. Each is dropped and counted.
func TestHostileNodeIDs(t *testing.T) {
	f := newFixture(t, starTree(7), detParams())
	a := f.agents[4]
	a.Deliver(0, &netsim.Packet{Msg: &DataMsg{Source: 0, Seq: 0}}) // packet 0 is held
	streams := len(a.streams)
	hostile := []any{
		&DataMsg{Source: topology.None, Seq: 0},
		&RequestMsg{Source: topology.None, Seq: 0, Requestor: 2},
		&ReplyMsg{Source: topology.None, Seq: 0, Replier: 2, Requestor: 3},
		&RequestMsg{Source: 0, Seq: 0, Requestor: topology.None},
		&DataMsg{Source: math.MaxInt32, Seq: 0},
	}
	for _, m := range hostile {
		deliverOffWire(t, a, &netsim.Packet{From: 2, To: topology.None,
			Mode: netsim.ModeMulticast, Class: netsim.Payload, Msg: m})
	}
	if len(a.streams) != streams {
		t.Errorf("len(streams) = %d, want %d unchanged", len(a.streams), streams)
	}
	if got := a.SessionRejects(); got != len(hostile) {
		t.Errorf("SessionRejects = %d, want %d", got, len(hostile))
	}
}

// BenchmarkOnSession measures one member's cost of one received session
// message — the protocol's O(n²)-per-period step — with every advert
// idle (nothing new to detect), as in a steady group.
func BenchmarkOnSession(b *testing.B) {
	for _, group := range []int{16, 512} {
		for _, sources := range []int{1, 8} {
			b.Run(fmt.Sprintf("group=%d/sources=%d", group, sources), func(b *testing.B) {
				eng := sim.NewEngine()
				net := netsim.MustNew(eng, starTree(group+3), netsim.DefaultConfig())
				self := topology.NodeID(group + 2)
				a, err := NewAgent(eng, net, sim.NewRNG(1), self, DefaultParams(), nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				for src := 0; src < sources; src++ {
					a.Deliver(0, &netsim.Packet{Msg: &DataMsg{Source: topology.NodeID(src), Seq: 0}})
				}
				pkts := make([]*netsim.Packet, group)
				for i := range pkts {
					pkts[i] = sessionFrom(topology.NodeID(i+2), 0, sources, 0, nil)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.Deliver(sim.Time(i), pkts[i%group])
				}
			})
		}
	}
}
