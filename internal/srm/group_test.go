package srm

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// TestAgentSizeClass: an agent is allocated from the 768-byte size
// class; the group pointer must not push every member into the next one
// (896 bytes).
func TestAgentSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Agent{}); got > 768 {
		t.Fatalf("srm.Agent is %d bytes, past its 768-byte size class", got)
	}
}

// recordingObserver keeps every observer event as one line, in order.
type recordingObserver struct{ lines []string }

func (r *recordingObserver) add(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}
func (r *recordingObserver) LossDetected(h, src topology.NodeID, seq int, at sim.Time) {
	r.add("detect %d %d %d %d", h, src, seq, at)
}
func (r *recordingObserver) Recovered(h, src topology.NodeID, seq int, at sim.Time, info RecoveryInfo) {
	r.add("recover %d %d %d %d %+v", h, src, seq, at, info)
}
func (r *recordingObserver) RequestSent(h, src topology.NodeID, seq int, round int) {
	r.add("request %d %d %d %d", h, src, seq, round)
}
func (r *recordingObserver) ExpRequestSent(h, src topology.NodeID, seq int) {
	r.add("exp-request %d %d %d", h, src, seq)
}
func (r *recordingObserver) ReplySent(h, src topology.NodeID, seq int, exp bool) {
	r.add("reply %d %d %d %v", h, src, seq, exp)
}
func (r *recordingObserver) SessionSent(h topology.NodeID) { r.add("session %d", h) }
func (r *recordingObserver) RequestAbandoned(h, src topology.NodeID, seq int, rounds int) {
	r.add("abandon %d %d %d %d", h, src, seq, rounds)
}

// twinTree is wide enough for hop cohorts of three:
//
//	0 -> 1 -> {2, 3, 4}
//	     1 -> 5 -> {6, 7, 8}
//	0 -> 9
func twinTree() *topology.Tree {
	return topology.MustNew([]topology.NodeID{topology.None, 0, 1, 1, 1, 1, 5, 5, 5, 0})
}

// twinNet is one side of the twin-network test: agents on a network that
// offers session cohorts to their group, or on one with no group.
type twinNet struct {
	eng    *sim.Engine
	net    *netsim.Network
	hosts  []topology.NodeID
	agents map[topology.NodeID]*Agent
	group  *Group
	obs    *recordingObserver
}

// newTwinNet builds the agents, drops data packets 2, 5 and 9 on the
// link into router 5, and lets script schedule the scenario: host
// faults, session starts and the source's transmissions. Both sides of a
// twin get the same construction and script, so their engines hand out
// the same sequence numbers as long as the agents behave alike.
func newTwinNet(t *testing.T, grouped bool, script func(*twinNet)) *twinNet {
	t.Helper()
	tree := twinTree()
	eng := sim.NewEngine()
	tw := &twinNet{
		eng:    eng,
		net:    netsim.MustNew(eng, tree, netsim.DefaultConfig()),
		hosts:  append([]topology.NodeID{tree.Root()}, tree.Receivers()...),
		agents: map[topology.NodeID]*Agent{},
		obs:    &recordingObserver{},
	}
	if grouped {
		tw.group = NewGroup(tree.NumNodes(), len(tw.hosts))
		tw.net.SetCohortHost(tw.group)
	}
	rng := sim.NewRNG(7)
	for col, id := range tw.hosts {
		a, err := NewAgent(eng, tw.net, rng.Split(), id, DefaultParams(), tw.obs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if grouped {
			if err := a.UseGroup(tw.group, col); err != nil {
				t.Fatal(err)
			}
		}
		tw.agents[id] = a
	}
	tw.net.SetDropFunc(func(p *netsim.Packet, link topology.LinkID, down bool) bool {
		m, ok := p.Msg.(*DataMsg)
		return ok && down && link == 5 && (m.Seq == 2 || m.Seq == 5 || m.Seq == 9)
	})
	script(tw)
	return tw
}

// at schedules fn at virtual instant d.
func (tw *twinNet) at(d time.Duration, fn func()) {
	tw.eng.ScheduleAt(sim.Time(d), func(sim.Time) { fn() })
}

// transmit schedules the source's packets [from, to) 50 ms apart from
// start.
func (tw *twinNet) transmit(start time.Duration, from, to int) {
	src := tw.agents[0]
	for seq := from; seq < to; seq++ {
		seq := seq
		tw.at(start+time.Duration(seq-from)*50*time.Millisecond, func() { src.Transmit(seq) })
	}
}

// state renders everything the comparison covers: per agent, its raw
// distance words, held window, classification cursor, outstanding
// losses, reject counts and reply cells; the observer events so far; and
// the engine's executed count and next sequence number.
func (tw *twinNet) state() string {
	var b strings.Builder
	for _, id := range tw.hosts {
		writeAgentState(&b, tw.agents[id])
	}
	fmt.Fprintf(&b, "engine executed %d next %d\n", tw.eng.Executed(), tw.eng.NextSeq())
	b.WriteString(strings.Join(tw.obs.lines, "\n"))
	return b.String()
}

// writeAgentState renders one agent's state of source 0's stream for a
// twin comparison: distance words, held window, cursor, outstanding
// losses, reject and distance-miss counts, and every packet whose reply
// word, read through the plane, holds a horizon or a flag, or whose
// cell holds a scheduled reply.
func writeAgentState(b *strings.Builder, a *Agent) {
	fmt.Fprintf(b, "host %d dist", a.id)
	for n := 0; n < a.nodes; n++ {
		d := time.Duration(-1)
		if a.dist != nil {
			d = a.dist[n*int(a.stride)]
		}
		fmt.Fprintf(b, " %d", d)
	}
	base, held, open := a.HeldWindow(0)
	fmt.Fprintf(b, " held [%d,%d) %v classified %d outstanding %d rejects %d/%d misses %d replies",
		base, held, open, a.ClassifiedThrough(0), a.Outstanding(), a.SessionRejects(), a.SeqRejects(), a.MissingDistanceLookups())
	if st := a.peek(0); st != nil {
		for seq := st.received.Base(); seq <= st.Highest(); seq++ {
			if w, c := st.wordAt(seq), st.replies.At(seq); w != 0 || c.rec != nil {
				fmt.Fprintf(b, " %d:%d/%v/%v/%v", seq, w.horizon(), w&lost != 0, w&scheduled != 0, c.rec != nil)
			}
		}
	}
	b.WriteString("\n")
}

// flagsMirrorWindows checks every agent's reply words of source 0's
// stream against its windows: lost exactly where a loss record is,
// scheduled exactly where the reply cell holds a record.
func (tw *twinNet) flagsMirrorWindows() error {
	for _, id := range tw.hosts {
		st := tw.agents[id].peek(0)
		if st == nil {
			continue
		}
		for seq := st.received.Base(); seq <= st.Highest(); seq++ {
			w := st.wordAt(seq)
			if w&lost != 0 != (st.losses.At(seq) != nil) || w&scheduled != 0 != (st.replies.At(seq).rec != nil) {
				return fmt.Errorf("host %d packet %d: lost %v scheduled %v, loss record %v reply record %v",
					id, seq, w&lost != 0, w&scheduled != 0, st.losses.At(seq) != nil, st.replies.At(seq).rec != nil)
			}
		}
	}
	return nil
}

// TestGroupMembershipTwinNetwork runs scripted membership transitions on
// a network whose session cohorts go to the group and on one without a
// group, and requires the two to agree at every 25 ms checkpoint and at
// the end, reply words read through the plane included, and the words'
// flags to mirror each side's windows. A slot must close when its
// member goes silent and stay closed across Join and Restart until a
// new stream opens it: a stale advert after the transition must not be
// served from the old stream's head.
func TestGroupMembershipTwinNetwork(t *testing.T) {
	const x, late = 7, 3
	for _, c := range []struct {
		name   string
		script func(*twinNet)
	}{
		{"absent from t=0", func(tw *twinNet) {
			tw.agents[x].Leave()
			for _, id := range tw.hosts {
				if id != x {
					tw.agents[id].StartSessions()
				}
			}
			tw.transmit(100*time.Millisecond, 0, 10)
			tw.at(2500*time.Millisecond, tw.agents[x].Join)
			tw.transmit(4*time.Second, 10, 15)
		}},
		{"leave then join, stale advert first", func(tw *twinNet) {
			for _, id := range tw.hosts {
				if id != late {
					tw.agents[id].StartSessions()
				}
			}
			// Host 3 is first heard after x left: x's absence must not
			// record a distance to it.
			tw.at(1200*time.Millisecond, tw.agents[late].StartSessions)
			tw.transmit(100*time.Millisecond, 0, 10)
			tw.at(900*time.Millisecond, tw.agents[x].Leave)
			// Nothing new is sent until well after the join, so x's first
			// post-join evidence is a session advert of 9, at or below
			// the highest it knew before leaving.
			tw.at(3*time.Second, tw.agents[x].Join)
			tw.transmit(6*time.Second, 10, 15)
		}},
		{"crash then restart, stale advert first", func(tw *twinNet) {
			for _, id := range tw.hosts {
				if id != late {
					tw.agents[id].StartSessions()
				}
			}
			tw.at(1200*time.Millisecond, tw.agents[late].StartSessions)
			tw.transmit(100*time.Millisecond, 0, 10)
			tw.at(900*time.Millisecond, tw.agents[x].Crash)
			tw.at(3*time.Second, tw.agents[x].Restart)
			tw.transmit(6*time.Second, 10, 15)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			grouped, plain := newTwinNet(t, true, c.script), newTwinNet(t, false, c.script)
			for at := sim.Time(0); at <= sim.Time(12*time.Second); at = at.Add(25 * time.Millisecond) {
				grouped.eng.RunUntil(at)
				plain.eng.RunUntil(at)
				if g, p := grouped.state(), plain.state(); g != p {
					t.Fatalf("at %v the grouped network diverged:\n%s", time.Duration(at), firstDiff(g, p))
				}
				for _, tw := range []*twinNet{grouped, plain} {
					if err := tw.flagsMirrorWindows(); err != nil {
						t.Fatalf("at %v, grouped=%v: %v", time.Duration(at), tw.group != nil, err)
					}
				}
			}
			for _, tw := range []*twinNet{grouped, plain} {
				for _, a := range tw.agents {
					a.Stop()
				}
				tw.eng.Run()
			}
			if g, p := grouped.state(), plain.state(); g != p {
				t.Fatalf("the grouped network ended diverged:\n%s", firstDiff(g, p))
			}
			if grouped.group.Inline() == 0 || grouped.group.InlineReply() == 0 {
				t.Fatalf("the group served %d session and %d reply deliveries itself", grouped.group.Inline(), grouped.group.InlineReply())
			}
			if _, _, open := grouped.agents[x].HeldWindow(0); !open {
				t.Fatalf("host %d holds no stream at the end", x)
			}
		})
	}
}

// firstDiff renders the first line on which two states differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n grouped %s\n   plain %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("grouped has %d lines, plain %d", len(g), len(w))
}

// TestGroupReplyCohort offers one reply cohort to the group and the same
// deliveries to each member's Deliver on a twin with no group, and
// requires the two to end alike with exactly the plain holders served
// inline. Around them sit every member the rule leaves to Deliver: one
// with a reply timer armed for the packet, a late joiner whose stream
// opened above it, a crashed one, one with no estimate to the requestor,
// and the requestor, which lost the packet.
func TestGroupReplyCohort(t *testing.T) {
	const (
		armed, joiner, crashed, noEstimate, requestor = 1, 2, 3, 4, 5
		holders                                       = 3 // 6, 7 and 8
	)
	build := func(grouped bool) (*sim.Engine, map[topology.NodeID]*Agent, *Group, *recordingObserver) {
		parents := make([]topology.NodeID, 9)
		parents[0] = topology.None
		tree := topology.MustNew(parents) // a star: every receiver one hop from the source
		eng := sim.NewEngine()
		net := netsim.MustNew(eng, tree, netsim.DefaultConfig())
		obs := &recordingObserver{}
		var g *Group
		if grouped {
			g = NewGroup(tree.NumNodes(), tree.NumNodes())
		}
		agents := map[topology.NodeID]*Agent{}
		rng := sim.NewRNG(5)
		for id := range topology.NodeID(tree.NumNodes()) {
			a, err := NewAgent(eng, net, rng.Split(), id, DefaultParams(), obs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if grouped {
				if err := a.UseGroup(g, int(id)); err != nil {
					t.Fatal(err)
				}
			}
			agents[id] = a
		}
		for x, a := range agents {
			for y := range agents {
				if x != y && !(x == noEstimate && y == requestor) {
					a.SetDistance(y, net.Distance(x, y))
				}
			}
		}
		net.SetDropFunc(func(p *netsim.Packet, link topology.LinkID, down bool) bool {
			m, ok := p.Msg.(*DataMsg)
			return ok && link == requestor && m.Seq == 1
		})
		// Packets 0-3 leave the source 10 ms apart and arrive 25.5 ms
		// later; the joiner is back for packet 2, its first evidence.
		agents[joiner].Leave()
		for seq := range 4 {
			eng.ScheduleAt(sim.Time(time.Duration(seq)*10*time.Millisecond), func(sim.Time) { agents[0].Transmit(seq) })
		}
		eng.ScheduleAt(sim.Time(40*time.Millisecond), func(sim.Time) { agents[joiner].Join(); agents[joiner].Stop() })
		eng.ScheduleAt(sim.Time(60*time.Millisecond), func(sim.Time) { agents[crashed].Crash() })
		// Stop before the requestor's request timer (40 ms or more after
		// it detects the loss at 45.5 ms): one holder hears the request.
		eng.RunUntil(sim.Time(70 * time.Millisecond))
		agents[armed].Deliver(eng.Now(), &netsim.Packet{Class: netsim.Control, Msg: &RequestMsg{
			Source: 0, Seq: 1, Requestor: requestor, ReqDistToSource: 20 * time.Millisecond, TurningPoint: topology.None}})
		return eng, agents, g, obs
	}
	state := func(eng *sim.Engine, agents map[topology.NodeID]*Agent, obs *recordingObserver) string {
		var b strings.Builder
		for id := range topology.NodeID(len(agents)) {
			writeAgentState(&b, agents[id])
		}
		fmt.Fprintf(&b, "engine executed %d next %d pending %d\n", eng.Executed(), eng.NextSeq(), eng.Pending())
		return b.String() + strings.Join(obs.lines, "\n")
	}
	gEng, gAgents, g, gObs := build(true)
	pEng, pAgents, _, pObs := build(false)
	if base, _, _ := gAgents[joiner].HeldWindow(0); base != 2 {
		t.Fatalf("the joiner's stream opened at %d, want 2", base)
	}
	if !gAgents[crashed].Has(0, 1) || !gAgents[crashed].Crashed() {
		t.Fatal("the crashed member crashed before it held packet 1")
	}
	if gAgents[requestor].Has(0, 1) || !gAgents[requestor].EverLost(0, 1) {
		t.Fatal("the requestor did not lose packet 1")
	}
	if !gAgents[armed].ReplyBlocked(gEng.Now(), 0, 1) {
		t.Fatal("no reply is scheduled at the armed member")
	}
	if a, b := state(gEng, gAgents, gObs), state(pEng, pAgents, pObs); a != b {
		t.Fatalf("the twins differ before the reply:\n%s", firstDiff(a, b))
	}
	hosts := []int32{armed, 6, joiner, crashed, 7, noEstimate, requestor, 8}
	m := &ReplyMsg{Source: 0, Seq: 1, Replier: 0, Requestor: requestor, ReqDistToSource: 20 * time.Millisecond}
	pkt := &netsim.Packet{From: 0, Mode: netsim.ModeMulticast, Class: netsim.Payload, Cohort: true, Msg: m}
	if !g.DeliverCohort(gEng.Now(), pkt, hosts) {
		t.Fatal("the group refused a reply cohort of members")
	}
	for _, id := range hosts {
		pAgents[topology.NodeID(id)].Deliver(pEng.Now(), pkt)
	}
	if a, b := state(gEng, gAgents, gObs), state(pEng, pAgents, pObs); a != b {
		t.Fatalf("the twins differ after the reply:\n%s", firstDiff(a, b))
	}
	if got := g.InlineReply(); got != holders {
		t.Fatalf("the group served %d deliveries inline, want the %d plain holders", got, holders)
	}
	if gAgents[armed].ReplyBlocked(gEng.Now(), 0, 1) == false || !gAgents[requestor].Has(0, 1) {
		t.Fatal("the reply neither silenced the armed member nor recovered the requestor")
	}
}

// memberCohort is a group of receivers under one router, every member
// holding a stream of the source's packet 0, and a packet to all but
// members 0 and 1 whose deliveries the group can serve itself.
type memberCohort struct {
	group *Group
	hosts []int32
	per   []netsim.Host
	pkt   *netsim.Packet
	now   sim.Time
}

// newSessionCohort's packet is a session message from member 1
// advertising packet 0: a cohort of no-op deliveries.
func newSessionCohort(tb testing.TB, receivers int) *memberCohort {
	tb.Helper()
	parents := make([]topology.NodeID, receivers+1)
	parents[0] = topology.None
	tree := topology.MustNew(parents)
	eng := sim.NewEngine()
	net := netsim.MustNew(eng, tree, netsim.DefaultConfig())
	c := &memberCohort{group: NewGroup(tree.NumNodes(), tree.NumNodes())}
	agents := make([]*Agent, tree.NumNodes())
	rng := sim.NewRNG(1)
	for id := range agents {
		a, err := NewAgent(eng, net, rng.Split(), topology.NodeID(id), DefaultParams(), nil, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if err := a.UseGroup(c.group, id); err != nil {
			tb.Fatal(err)
		}
		agents[id] = a
	}
	agents[0].Transmit(0)
	eng.Run()
	for id, a := range agents {
		if id > 1 {
			c.hosts = append(c.hosts, int32(id))
			c.per = append(c.per, a)
		}
		if !a.Has(0, 0) {
			tb.Fatalf("host %d missed packet 0", id)
		}
	}
	c.now = eng.Now().Add(time.Second)
	c.pkt = &netsim.Packet{From: 1, Session: true, Mode: netsim.ModeMulticast, Class: netsim.Control,
		Msg: &SessionMsg{From: 1, SentAt: c.now.Add(-40 * time.Millisecond), Highest: []Advert{{Source: 0, Highest: 0}}}}
	return c
}

// newReplyCohort's packet is a duplicate repair of packet 0 answering
// member 1's request, every other member holding an estimate to it: a
// cohort of deliveries that only push the abstinence horizon.
func newReplyCohort(tb testing.TB, receivers int) *memberCohort {
	tb.Helper()
	c := newSessionCohort(tb, receivers)
	for _, h := range c.per {
		h.(*Agent).SetDistance(1, 40*time.Millisecond)
	}
	c.pkt = &netsim.Packet{From: 0, Mode: netsim.ModeMulticast, Class: netsim.Payload, Cohort: true,
		Msg: &ReplyMsg{Source: 0, Seq: 0, Replier: 0, Requestor: 1, ReqDistToSource: 20 * time.Millisecond}}
	return c
}

// TestDeliverCohortAllocatesNothing pins the steady state: a cohort of
// no-op session deliveries, and one of duplicate repairs, is served
// without an allocation, and entirely inline.
func TestDeliverCohortAllocatesNothing(t *testing.T) {
	for _, kind := range []string{"session", "reply"} {
		c, served := newSessionCohort(t, 64), (*Group).Inline
		if kind == "reply" {
			c, served = newReplyCohort(t, 64), (*Group).InlineReply
		}
		before := served(c.group)
		if allocs := testing.AllocsPerRun(100, func() {
			if !c.group.DeliverCohort(c.now, c.pkt, c.hosts) {
				t.Fatalf("the group refused a %s cohort of members", kind)
			}
		}); allocs != 0 {
			t.Fatalf("DeliverCohort allocated %.1f times per %s cohort", allocs, kind)
		}
		if got, want := served(c.group)-before, uint64(101*len(c.hosts)); got != want {
			t.Fatalf("%d of %d %s deliveries served inline", got, want, kind)
		}
		if got := c.group.dist[1*c.group.members+2]; got != 40*time.Millisecond {
			t.Fatalf("host 2's distance word to host 1 reads %v, want 40ms", got)
		}
	}
	c := newReplyCohort(t, 64)
	c.group.DeliverCohort(c.now, c.pkt, c.hosts)
	if h, want := c.per[0].(*Agent).peek(0).wordAt(0).horizon(), c.now.Add(sim.Scale(40*time.Millisecond, DefaultParams().D3)); h != want {
		t.Fatalf("host 2's horizon for packet 0 reads %v, want %v", h, want)
	}
}

// TestGroupReleaseScanRescansBlockedRows: the group's release scan
// resumes where its last scan stopped, so every write that can block a
// row it already passed must send it back: a duplicate the group
// serves, one a member's Deliver handles, a request that arms a reply
// timer, and an expedited reply sent. Each must block packet 0 again.
func TestGroupReleaseScanRescansBlockedRows(t *testing.T) {
	for _, via := range []string{"group", "deliver", "request", "expedited"} {
		c := newReplyCohort(t, 8)
		scan := func() int {
			n, _ := c.group.ReleasableBelow(c.now, 0, 1)
			return n
		}
		if n := scan(); n != 1 {
			t.Fatalf("%s: packet 0 is held by all and nothing is pending, but the scan stops at %d", via, n)
		}
		a := c.per[0].(*Agent)
		request := &RequestMsg{Source: 0, Seq: 0, Requestor: 1, ReqDistToSource: 20 * time.Millisecond, TurningPoint: topology.None}
		switch via {
		case "group":
			c.group.DeliverCohort(c.now, c.pkt, c.hosts)
		case "deliver":
			a.Deliver(c.now, c.pkt)
		case "request":
			a.Deliver(c.now, &netsim.Packet{Class: netsim.Control, Msg: request})
		case "expedited":
			request.Expedited = true
			if !a.SendExpeditedReply(c.now, request, false) {
				t.Fatal("a holder sent no expedited reply")
			}
		}
		if n := scan(); n != 0 {
			t.Fatalf("%s: packet 0 is blocked again, but the scan stops at %d", via, n)
		}
	}
}

// BenchmarkSessionCohort: one session message's no-op deliveries to the
// other 1,023 receivers of a 1,024-member group, served by the group
// and by each member's Deliver.
func BenchmarkSessionCohort(b *testing.B) { benchmarkCohort(b, newSessionCohort(b, 1024)) }

// BenchmarkReplyCohort: one repair's duplicate deliveries to the other
// 1,023 receivers of a 1,024-member group, served by the group from
// the reply plane and by each member's Deliver.
func BenchmarkReplyCohort(b *testing.B) { benchmarkCohort(b, newReplyCohort(b, 1024)) }

func benchmarkCohort(b *testing.B, c *memberCohort) {
	b.Run("group", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.group.DeliverCohort(c.now, c.pkt, c.hosts)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.hosts)), "ns/delivery")
	})
	b.Run("per-host", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, h := range c.per {
				h.Deliver(c.now, c.pkt)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.hosts)), "ns/delivery")
	})
}
