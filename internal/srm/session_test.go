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
			if a.slack.free != nil {
				t.Fatal("fresh advert did not take the pooled slack handler")
			}
			data()
			a.ReleaseThrough(0, seq-1)
			f.eng.RunUntil(f.eng.Now().Add(p.DetectionSlack))
			if a.slack.free == nil {
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
		if st := a.peek(0); st == nil || st.Highest() != 3 {
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

// TestForgedSequenceNumbers: Decoder.Int admits any sequence number, so
// one well-formed DATA naming packet 2,000,000 to a host holding packet 0
// used to detect 1,999,999 losses, each with a loss record, a window cell
// and an armed request timer (1.6 GB and 1.3 s), and MaxInt never
// finished. Every message kind naming a number outside [0, MaxSeq] is
// now dropped and counted before it creates any state, on a present
// host and on a late joiner alike.
//
// The bound is inert in simulation because the drivers refuse a stream
// longer than MaxSeq+1 packets. The largest leads over a host's held
// prefix measured at seed 1 are 34 on the catalog at scales 0.1 and 1,
// 940 on the scale-0.01 chaos matrix, 9,654 on the scale-0.1 matrix of
// traces 2, 4 and 13, 22,272 on the soak corpus, and 50,726 on the
// benchmark's congested_churn (a rejoiner about 70 % into a
// 72,519-packet stream). The longest catalog stream at scale 5 is
// 744,850 packets.
func TestForgedSequenceNumbers(t *testing.T) {
	f := newFixture(t, starTree(7), detParams())
	present, joiner := f.agents[4], f.agents[5]
	joiner.Leave()
	joiner.Join()
	for _, a := range []*Agent{present, joiner} {
		a.Deliver(0, &netsim.Packet{Msg: &DataMsg{Source: 0, Seq: 0}}) // packet 0 is held
	}
	var hostile []*netsim.Packet
	for _, seq := range []int{MaxSeq + 1, 2_000_000, math.MaxInt, -1} {
		for _, m := range []any{
			&DataMsg{Source: 0, Seq: seq},
			&RequestMsg{Source: 0, Seq: seq, Requestor: 2},
			&ReplyMsg{Source: 0, Seq: seq, Replier: 2, Requestor: 3},
			&SessionMsg{From: 2, SentAt: 1, Highest: []Advert{{Source: 0, Highest: seq}}},
		} {
			_, session := m.(*SessionMsg)
			data, err := netsim.EncodePacket(nil, &netsim.Packet{From: 2, To: topology.None,
				Mode: netsim.ModeMulticast, Class: netsim.Payload, Session: session, Msg: m})
			if err != nil {
				t.Fatal(err)
			}
			p, err := netsim.DecodePacket(data)
			if err != nil {
				t.Fatalf("forged message %+v must be well-formed on the wire: %v", m, err)
			}
			hostile = append(hostile, p)
		}
	}
	pending := f.eng.Pending()
	for _, a := range []*Agent{present, joiner} {
		st := a.peek(0)
		cells := st.Len()
		allocs := testing.AllocsPerRun(5, func() {
			for _, p := range hostile {
				a.Deliver(sim.Time(time.Second), p)
			}
		})
		if allocs != 0 {
			t.Errorf("host %d: %v allocations per forged batch, want none", a.id, allocs)
		}
		// AllocsPerRun delivers the batch once more to warm up.
		if got, want := a.SeqRejects(), 6*len(hostile); got != want {
			t.Errorf("host %d: SeqRejects = %d, want %d", a.id, got, want)
		}
		if a.Outstanding() != 0 || st.losses.Len() != 0 || st.Len() != cells || st.Highest() != 0 {
			t.Errorf("host %d: forged numbers left %d losses, %d window cells (had %d), highest known %d",
				a.id, a.Outstanding(), st.Len(), cells, st.Highest())
		}
	}
	if f.eng.Pending() != pending {
		t.Errorf("forged numbers armed %d events", f.eng.Pending()-pending)
	}

	// At the bound: an advert of packet MaxSeq names a stream's last
	// packet, one more is a forgery. A restarted host, which holds no
	// state and re-learns the stream from 0, accepts it like the others.
	// The engine does not run, so no request timer is armed.
	restarted := f.agents[6]
	restarted.Crash()
	restarted.Restart()
	for _, a := range []*Agent{present, joiner, restarted} {
		rejects := a.SeqRejects()
		for _, seq := range []int{MaxSeq + 1, MaxSeq} {
			a.Deliver(sim.Time(2*time.Second), &netsim.Packet{Session: true,
				Msg: &SessionMsg{From: 2, SentAt: 1, Highest: []Advert{{Source: 0, Highest: seq}}}})
		}
		if got := a.SeqRejects() - rejects; got != 1 {
			t.Errorf("host %d: %d adverts rejected at the bound, want 1", a.id, got)
		}
		if st := a.peek(0); st == nil || st.Highest() != MaxSeq {
			t.Errorf("host %d: advert of packet MaxSeq not accepted", a.id)
		}
	}
	// No source sends what every receiver would refuse.
	defer func() {
		if recover() == nil {
			t.Error("Transmit(MaxSeq+1) did not panic")
		}
	}()
	f.agents[0].Transmit(MaxSeq + 1)
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
