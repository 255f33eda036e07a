package srm

import (
	"fmt"
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
// whole of an amortised cost — one chunk refill per so many rounds.
// Callers allow runtimeAllocs objects beyond what they expect, and run
// enough rounds that a lost hand-back costs many more chunk refills.
func allocsOver(n int, round func()) float64 {
	return testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			round()
		}
	})
}

// runtimeAllocs is the runtime's own occasional allocations, which a
// batch measurement counts along with the code's.
const runtimeAllocs = 4

// releaseAll discards every agent's per-packet state below n, keeping
// the windows — and so their backing arrays — at steady-state size.
func (f *fixture) releaseAll(n int) {
	for _, a := range f.agents {
		a.ReleaseThrough(f.tree.Root(), n)
	}
}

// TestTransmitToDeliveryAllocationAmortised pins the data path: once
// warm, a source Transmit and its delivery to every receiver allocate
// nothing — no Packet, no DataMsg, no engine record, no delivery event,
// and no frame chunk, since the frame comes back after its last
// delivery.
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
	const packets = 16 * dataChunk
	if got := allocsOver(packets, round); got > runtimeAllocs {
		t.Fatalf("%d packets, Transmit → delivery, allocate %.0f objects, want 0", packets, got)
	}
	for id, a := range f.agents {
		if !a.Has(0, seq-1) {
			t.Fatalf("host %d did not receive the last packet", id)
		}
	}
}

// TestRepairRoundAllocationAmortised pins a full SRM repair round — loss
// detected, request timer, request, reply timers on every holder, the
// replies that beat suppression, recovery, release — at nothing once
// warm: no closure per timer, no Packet or message per send, and no
// chunk refill, because every frame comes back after its last delivery,
// a reply record when its cell drops it and the loss record when release
// discards its cell.
func TestRepairRoundAllocationAmortised(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on this path; the plain test run enforces this pin")
	}
	obs := &tally{}
	f := newFixtureObserved(t, starTree(8), detParams(), obs)
	src := f.agents[0]
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
	if obs.recovered != 2*rounds || obs.requests < obs.recovered || obs.replies < obs.recovered {
		t.Fatalf("%d rounds: %d recovered, %d requests, %d replies — not one full repair each",
			2*rounds, obs.recovered, obs.requests, obs.replies)
	}
	if got > runtimeAllocs {
		t.Fatalf("%d repair rounds (%d requests, %d replies) allocate %.0f objects, want 0",
			rounds, obs.requests/2, obs.replies/2, got)
	}
}

// TestLossRecordReleaseRefillAllocatesNothing pins the loss records'
// release→refill cycle: each round loses a burst of more packets than a
// record chunk holds on host 2's link, so host 2 holds that many loss
// records at once; release hands them all back, and the next burst takes
// them again instead of carving new chunks.
func TestLossRecordReleaseRefillAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on this path; the plain test run enforces this pin")
	}
	obs := &tally{}
	f := newFixtureObserved(t, starTree(8), detParams(), obs)
	src := f.agents[0]
	const burst = arenaChunk + arenaChunk/2
	seq, first := 0, 0
	f.net.SetDropFunc(func(p *netsim.Packet, link topology.LinkID, down bool) bool {
		m, ok := p.Msg.(*DataMsg)
		return ok && down && link == 2 && m.Seq >= first && m.Seq < first+burst
	})
	round := func() {
		// Host 2 misses [first, first+burst) and sees the gap when the
		// burst's last packet arrives.
		first = seq
		for i := 0; i <= burst; i++ {
			src.Transmit(seq)
			seq++
		}
		f.eng.Run()
		f.releaseAll(seq)
	}
	const rounds = 8
	got := allocsOver(rounds, round)
	if obs.detected != 2*rounds*burst || obs.recovered != obs.detected {
		t.Fatalf("%d rounds: %d losses detected, %d recovered, want %d each", 2*rounds, obs.detected, obs.recovered, 2*rounds*burst)
	}
	free := 0
	for ls := f.agents[2].peek(0).freeLosses; ls != nil; ls = ls.next {
		free++
	}
	if free != burst {
		t.Fatalf("host 2 holds %d released loss records, want the burst's %d", free, burst)
	}
	if got > runtimeAllocs {
		t.Fatalf("%d release→refill rounds of %d losses allocate %.0f objects, want 0", rounds, burst, got)
	}
}

// TestSessionTickAllocationAmortised pins the session send path in both
// distance modes at nothing once warm: the advert list rides in the
// frame, the frame comes back as the send returns (every crossing is
// dropped here) and keeps its echo list's array for the next tick, and
// re-arming the tick captures nothing.
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
		const ticks = 16 * sessionChunk
		got := allocsOver(ticks, round)
		if got > runtimeAllocs {
			t.Errorf("%v: %d session ticks allocate %.0f objects, want 0", mode, ticks, got)
		}
		if obs.sessions != 2*ticks {
			t.Fatalf("%v: %d session messages sent, want %d", mode, obs.sessions, 2*ticks)
		}
		if len(sent.Highest) != 1 || sent.Highest[0] != (Advert{Source: 0, Highest: 0}) || len(sent.Echoes) != peers {
			t.Fatalf("%v: last session message = %+v", mode, sent)
		}
	}
}

// TestFramesAreNeverReused pins the frames' rule at its root: no frame
// a host hands out is reused before it is handed back — every one is
// distinct memory, across chunk boundaries, and building a later one
// leaves the earlier ones untouched — and one handed back is the next
// of its kind built, a session frame with its lists' arrays.
func TestFramesAreNeverReused(t *testing.T) {
	var f Frames
	var pkts []*netsim.Packet
	for i := 0; i < 3*requestChunk; i++ {
		pkts = append(pkts, f.Request(RequestMsg{Seq: i}), f.Reply(ReplyMsg{Seq: i}), f.Data(1, i))
		sp, sm := f.Session(2, sim.Time(i))
		sm.Highest = append(sm.Highest, Advert{Source: 1, Highest: i})
		sm.Echoes = append(f.echoList(sm, 2), PeerEcho{Peer: 3, Echo: Echo{PeerSentAt: sim.Time(i)}})
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

	sent := pkts[3].Msg.(*SessionMsg)
	advert, echo := &sent.Highest[0], &sent.Echoes[0]
	for _, p := range pkts[:4] {
		p.Owner.Recycle(p)
	}
	if f.Request(RequestMsg{}) != pkts[0] || f.Reply(ReplyMsg{}) != pkts[1] || f.Data(1, 0) != pkts[2] {
		t.Fatal("a frame handed back was not the next of its kind built")
	}
	sp, sm := f.Session(2, 0)
	if sp != pkts[3] || len(sm.Highest) != 0 || len(sm.Echoes) != 0 {
		t.Fatalf("the session frame handed back came back as %+v in %p, want empty lists in %p", sm, sp, pkts[3])
	}
	if &sm.Highest[:1][0] != advert || &f.echoList(sm, 2)[:1][0] != echo {
		t.Fatal("the session frame handed back did not keep its lists' arrays")
	}
}

// TestArenaChunksDouble: an arena's chunks start at firstChunk slots and
// double up to the caller's length, and every slot is handed out once.
func TestArenaChunksDouble(t *testing.T) {
	var a arena[int64]
	var chunks []int
	seen := map[*int64]bool{}
	for range 16 + 32 + 64 + 64 {
		fresh := len(a.free) == 0
		p := a.next(64)
		if fresh {
			chunks = append(chunks, len(a.free)+1)
		}
		if seen[p] {
			t.Fatalf("slot %p handed out twice", p)
		}
		seen[p] = true
	}
	if got, want := fmt.Sprint(chunks), "[16 32 64 64]"; got != want {
		t.Fatalf("chunk lengths %s, want %s (firstChunk = %d)", got, want, firstChunk)
	}
	var small arena[int64]
	small.next(8)
	if got := len(small.free) + 1; got != 8 {
		t.Fatalf("first chunk of an 8-slot arena is %d slots, want 8", got)
	}
}
