package srm

import (
	"testing"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// tally is an Observer that counts and retains nothing, so an
// allocation pin measures the protocol and not the test's log.
type tally struct {
	detected, recovered, requests, replies, sessions int
}

func (c *tally) LossDetected(_, _ topology.NodeID, _ int, _ sim.Time)              { c.detected++ }
func (c *tally) Recovered(_, _ topology.NodeID, _ int, _ sim.Time, _ RecoveryInfo) { c.recovered++ }
func (c *tally) RequestSent(_, _ topology.NodeID, _ int, _ int)                    { c.requests++ }
func (c *tally) ExpRequestSent(_, _ topology.NodeID, _ int)                        {}
func (c *tally) ReplySent(_, _ topology.NodeID, _ int, _ bool)                     { c.replies++ }
func (c *tally) SessionSent(topology.NodeID)                                       { c.sessions++ }
func (c *tally) RequestAbandoned(_, _ topology.NodeID, _ int, _ int)               {}

// allocsOver returns the allocations of n consecutive calls of round,
// after as many warm-up calls. Measuring the batch as one run keeps what
// testing.AllocsPerRun's per-run average truncates away, which is the
// whole of an amortised cost. Callers allow one object beyond the chunk
// refills they expect: the runtime itself allocates now and then.
func allocsOver(n int, round func()) float64 {
	return testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			round()
		}
	})
}

// releaseAll discards every agent's per-packet state below n, keeping
// the windows — and so their backing arrays — at steady-state size.
func (f *fixture) releaseAll(n int) {
	for _, a := range f.agents {
		a.ReleaseThrough(f.tree.Root(), n)
	}
}

// TestTransmitToDeliveryAllocationAmortised pins the data path: a
// source Transmit and its delivery to every receiver cost one frame
// chunk per dataChunk packets and nothing else — no Packet, no DataMsg,
// no engine record, no delivery event.
func TestTransmitToDeliveryAllocationAmortised(t *testing.T) {
	f := newFixtureObserved(t, starTree(8), detParams(), &tally{})
	src := f.agents[0]
	seq := 0
	round := func() {
		src.Transmit(seq)
		seq++
		f.eng.Run()
		f.releaseAll(seq)
	}
	const chunks = 4
	if got := allocsOver(chunks*dataChunk, round); got > chunks+1 {
		t.Fatalf("%d packets, Transmit → delivery, allocate %.0f objects, want ≤ %d (one frame chunk per %d)",
			chunks*dataChunk, got, chunks+1, dataChunk)
	}
	for id, a := range f.agents {
		if !a.Has(0, seq-1) {
			t.Fatalf("host %d did not receive the last packet", id)
		}
	}
}

// TestRepairRoundAllocationAmortised pins a full SRM repair round — loss
// detected, request timer, request, reply timers on every holder, the
// replies that beat suppression, recovery — at chunk refills only: one
// frame per request and reply sent, two data frames, one loss record,
// and one reply record on each holder the request reached — none on the
// requestor, whose cell a reply touches without one.
// No closure per timer, no Packet or message per send.
func TestRepairRoundAllocationAmortised(t *testing.T) {
	obs := &tally{}
	f := newFixtureObserved(t, starTree(8), detParams(), obs)
	src, hosts := f.agents[0], float64(len(f.agents))
	seq, lost := 0, -1
	f.net.SetDropFunc(func(p *netsim.Packet, link topology.LinkID, down bool) bool {
		m, ok := p.Msg.(*DataMsg)
		return ok && down && link == 2 && m.Seq == lost
	})
	round := func() {
		// Host 2 misses seq and sees the gap when seq+1 arrives.
		lost = seq
		src.Transmit(seq)
		src.Transmit(seq + 1)
		seq += 2
		f.eng.Run()
		f.releaseAll(seq)
	}
	const rounds = 2 * arenaChunk
	got := allocsOver(rounds, round)
	// The tally covers the warm-up rounds too, which ran the same script.
	measured := func(n int) float64 { return float64(n) / 2 }
	if obs.recovered != 2*rounds || obs.requests < obs.recovered || obs.replies < obs.recovered {
		t.Fatalf("%d rounds: %d recovered, %d requests, %d replies — not one full repair each",
			2*rounds, obs.recovered, obs.requests, obs.replies)
	}
	want := measured(obs.requests)/requestChunk + measured(obs.replies)/replyChunk +
		2.0*rounds/dataChunk + hosts*rounds/arenaChunk
	if got > want+1 {
		t.Fatalf("%d repair rounds allocate %.0f objects, want ≤ %.0f (chunk refills only)", rounds, got, want+1)
	}
}

// TestSessionTickAllocationAmortised pins the session send path in both
// distance modes: a tick costs one frame per sessionChunk ticks — the
// advert list rides in the frame — plus, in echo mode, one echo chunk
// per echoChunk echoes; re-arming the tick captures nothing.
func TestSessionTickAllocationAmortised(t *testing.T) {
	for _, mode := range []DistanceMode{DistOneWay, DistEchoRTT} {
		p := detParams()
		p.DistanceMode = mode
		obs := &tally{}
		f := newFixtureObserved(t, starTree(8), p, obs)
		f.agents[0].Transmit(0)
		f.eng.Run()
		a := f.agents[5]
		peers := 0
		if mode == DistEchoRTT {
			for id := range f.agents {
				if id != a.id {
					a.echo.record(id, 0, 0)
					peers++
				}
			}
		}
		a.StartSessions()
		var sent *SessionMsg
		f.net.SetDropFunc(func(p *netsim.Packet, _ topology.LinkID, _ bool) bool {
			sent = p.Msg.(*SessionMsg)
			return true // the receive path has its own pin
		})
		round := func() { f.eng.RunUntil(f.eng.Now().Add(p.SessionPeriod)) }
		const ticks = 4 * sessionChunk
		got := allocsOver(ticks, round)
		if want := ticks/sessionChunk + float64(ticks*peers)/echoChunk; got > want+1 {
			t.Errorf("%v: %d session ticks allocate %.0f objects, want ≤ %.0f", mode, ticks, got, want+1)
		}
		if obs.sessions != 2*ticks {
			t.Fatalf("%v: %d session messages sent, want %d", mode, obs.sessions, 2*ticks)
		}
		if len(sent.Highest) != 1 || sent.Highest[0] != (Advert{Source: 0, Highest: 0}) || len(sent.Echoes) != peers {
			t.Fatalf("%v: last session message = %+v", mode, sent)
		}
	}
}

// TestFramesAreNeverReused pins the arenas' rule at its root: every
// frame a host hands out is distinct memory, across chunk boundaries,
// and building a later one leaves the earlier ones untouched.
func TestFramesAreNeverReused(t *testing.T) {
	var f Frames
	var pkts []*netsim.Packet
	for i := 0; i < 3*requestChunk; i++ {
		pkts = append(pkts, f.Request(RequestMsg{Seq: i}), f.Reply(ReplyMsg{Seq: i}), f.Data(1, i))
		sp, sm := f.Session(2, sim.Time(i))
		sm.Highest = append(sm.Highest, Advert{Source: 1, Highest: i})
		sm.Echoes = append(f.echoList(2), PeerEcho{Peer: 3, Echo: Echo{PeerSentAt: sim.Time(i)}})
		pkts = append(pkts, sp)
	}
	seen := map[*netsim.Packet]bool{}
	for k, p := range pkts {
		if seen[p] {
			t.Fatalf("packet %d reuses an earlier frame", k)
		}
		seen[p] = true
		i := k / 4
		switch m := p.Msg.(type) {
		case *RequestMsg:
			if m.Seq != i || p.Class != netsim.Control {
				t.Fatalf("request %d = %+v in %+v", i, m, p)
			}
		case *ReplyMsg:
			if m.Seq != i || p.Class != netsim.Payload {
				t.Fatalf("reply %d = %+v in %+v", i, m, p)
			}
		case *DataMsg:
			if m.Seq != i || m.Source != 1 || p.Class != netsim.Payload {
				t.Fatalf("data %d = %+v in %+v", i, m, p)
			}
		case *SessionMsg:
			if !p.Session || m.SentAt != sim.Time(i) || m.Highest[0].Highest != i || m.Echoes[0].PeerSentAt != sim.Time(i) {
				t.Fatalf("session %d = %+v in %+v", i, m, p)
			}
		}
	}
}
