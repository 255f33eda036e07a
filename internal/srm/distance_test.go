package srm

import (
	"testing"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

func TestDistanceModeString(t *testing.T) {
	if DistOneWay.String() != "one-way" || DistEchoRTT.String() != "echo-rtt" {
		t.Fatal("mode names wrong")
	}
	if DistanceMode(9).String() != "unknown" {
		t.Fatal("unknown mode name")
	}
}

func TestRTTFromEcho(t *testing.T) {
	// Peer sent at 100ms; we receive its echo of our own timestamp at
	// 500ms, held 150ms: rtt = 500 - 100 - 150 = 250ms.
	e := Echo{PeerSentAt: sim.Time(100 * time.Millisecond), HeldFor: 150 * time.Millisecond}
	rtt, ok := rttFromEcho(sim.Time(500*time.Millisecond), e)
	if !ok || rtt != 250*time.Millisecond {
		t.Fatalf("rtt = %v, %v", rtt, ok)
	}
	// Corrupt echo producing negative RTT is rejected.
	bad := Echo{PeerSentAt: sim.Time(time.Second), HeldFor: time.Second}
	if _, ok := rttFromEcho(sim.Time(500*time.Millisecond), bad); ok {
		t.Fatal("negative RTT accepted")
	}
}

func TestEchoStateRoundTrip(t *testing.T) {
	e := newEchoState(12)
	if e.appendEchoes(nil, 0) != nil {
		t.Fatal("empty echo state produced echoes")
	}
	// Recorded out of order, twice for peer 7: echoes come out strictly
	// ascending, one per peer, carrying the latest record.
	e.record(7, sim.Time(90*time.Millisecond), sim.Time(95*time.Millisecond))
	e.record(11, sim.Time(10*time.Millisecond), sim.Time(20*time.Millisecond))
	e.record(7, sim.Time(100*time.Millisecond), sim.Time(140*time.Millisecond))
	e.record(0, sim.Time(30*time.Millisecond), sim.Time(50*time.Millisecond))
	m := &SessionMsg{}
	m.Echoes = e.appendEchoes(new(Frames).echoList(m, e.peers), sim.Time(200*time.Millisecond))
	if len(m.Echoes) != 3 || cap(m.Echoes) != 3 {
		t.Fatalf("echoes len %d cap %d, want exactly 3", len(m.Echoes), cap(m.Echoes))
	}
	for i, pe := range m.Echoes {
		if want := []topology.NodeID{0, 7, 11}[i]; pe.Peer != want {
			t.Fatalf("echoes[%d].Peer = %d, want %d (ascending)", i, pe.Peer, want)
		}
	}
	echo, ok := m.EchoFor(7)
	if !ok {
		t.Fatal("peer 7 missing from echoes")
	}
	if echo.PeerSentAt != sim.Time(100*time.Millisecond) || echo.HeldFor != 60*time.Millisecond {
		t.Fatalf("echo = %+v", echo)
	}
	for _, absent := range []topology.NodeID{topology.None, 1, 8, 12, 1 << 30} {
		if got, ok := m.EchoFor(absent); ok || got != (Echo{}) {
			t.Errorf("EchoFor(%d) = %+v, %v; want a clean miss", absent, got, ok)
		}
	}
	if _, ok := (&SessionMsg{}).EchoFor(7); ok {
		t.Error("EchoFor hit on a message with no echoes")
	}
}

// TestEchoRTTConvergesToTrueDistances runs a session exchange in
// echo-RTT mode and verifies the converged estimates equal the true
// control-plane distances (the simulator's symmetric links make
// RTT/2 exact).
func TestEchoRTTConvergesToTrueDistances(t *testing.T) {
	p := DefaultParams()
	p.DistanceMode = DistEchoRTT
	f := newFixture(t, deepTree(), p)
	// Clear primed distances; echo mode must learn them from scratch.
	for _, a := range f.agents {
		a.forgetDistances()
	}
	for _, a := range f.agents {
		a.StartSessions()
	}
	f.eng.RunUntil(sim.Time(5 * time.Second))
	for _, a := range f.agents {
		a.Stop()
	}
	f.eng.Run()

	hosts := []topology.NodeID{0, 2, 4}
	for _, x := range hosts {
		for _, y := range hosts {
			if x == y {
				continue
			}
			want := f.net.Distance(x, y)
			if got := f.agents[x].Distance(y); got != want {
				t.Errorf("echo-rtt d(%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
	if f.agents[2].MissingDistanceLookups() != 0 {
		t.Fatal("distance lookups fell back to default")
	}
}

// TestEchoRTTProtocolRunMatchesOneWay reenacts a small loss scenario in
// both distance modes; since estimates converge to the same values, the
// protocols behave identically after warm-up.
func TestEchoRTTProtocolRunMatchesOneWay(t *testing.T) {
	results := make(map[DistanceMode]int)
	for _, mode := range []DistanceMode{DistOneWay, DistEchoRTT} {
		p := detParams()
		p.DistanceMode = mode
		f := newFixture(t, yTree(), p)
		for _, a := range f.agents {
			a.StartSessions()
		}
		f.net.SetDropFunc(dropSeqOnLink(5, 2))
		// Send data after a 3s warm-up so echo mode converges.
		src := f.agents[0]
		for i := 0; i < 8; i++ {
			seq := i
			f.eng.ScheduleAt(sim.Time(3*time.Second+time.Duration(i)*100*time.Millisecond), func(sim.Time) {
				src.Transmit(seq)
			})
		}
		f.eng.RunUntil(sim.Time(10 * time.Second))
		for _, a := range f.agents {
			a.Stop()
		}
		f.eng.Run()
		if f.agents[2].MissingIn(0, 8) != 0 {
			t.Fatalf("mode %v: recovery incomplete", mode)
		}
		results[mode] = len(f.log.recoveries)
	}
	if results[DistOneWay] != results[DistEchoRTT] {
		t.Fatalf("recovery counts differ across distance modes: %v", results)
	}
}

// TestDistancePlaneMatchesPrivateTables runs the same session exchange
// over agents of one Group, which the network offers every session
// cohort, and over agents with the private tables they are built with,
// and requires every lookup — hosts, routers, None and out-of-tree IDs —
// and the fallback count to agree; then checks the columns are
// independent: SetDistance writes one member's word, Restart clears one
// column and never a row, Join keeps the column.
func TestDistancePlaneMatchesPrivateTables(t *testing.T) {
	for _, mode := range []DistanceMode{DistOneWay, DistEchoRTT} {
		p := DefaultParams()
		p.DistanceMode = mode
		shared, private := newFixture(t, deepTree(), p), newFixture(t, deepTree(), p)
		hosts := []topology.NodeID{0, 2, 4}
		g := NewGroup(shared.tree.NumNodes(), len(hosts))
		for col, id := range hosts {
			if err := shared.agents[id].UseGroup(g, col); err != nil {
				t.Fatal(err)
			}
			private.agents[id].forgetDistances()
		}
		shared.net.SetCohortHost(g)
		for _, f := range []*fixture{shared, private} {
			for _, id := range hosts {
				f.agents[id].StartSessions()
			}
			f.eng.RunUntil(sim.Time(5 * time.Second))
		}
		agree := func(when string) {
			t.Helper()
			for _, id := range hosts {
				s, pr := shared.agents[id], private.agents[id]
				for _, n := range []topology.NodeID{topology.None, 0, 1, 2, 3, 4, 5, 1 << 30} {
					if got, want := s.Distance(n), pr.Distance(n); got != want {
						t.Errorf("%v, %s: host %d's d(%d) = %v on the plane, %v in a private table", mode, when, id, n, got, want)
					}
				}
				if got, want := s.MissingDistanceLookups(), pr.MissingDistanceLookups(); got != want {
					t.Errorf("%v, %s: host %d fell back %d times on the plane, %d in a private table", mode, when, id, got, want)
				}
			}
		}
		agree("after the session exchange")
		if mode == DistOneWay && g.Inline() == 0 {
			t.Fatal("the group served no session delivery itself")
		}
		if got, want := shared.agents[2].Distance(4), shared.net.Distance(2, 4); got != want {
			t.Fatalf("%v: d(2,4) = %v, want the converged %v", mode, got, want)
		}

		for _, f := range []*fixture{shared, private} {
			f.agents[2].SetDistance(4, 7*time.Millisecond)
			f.agents[4].Leave()
			f.agents[4].Join()
			f.agents[2].Crash()
			f.agents[2].Restart()
		}
		agree("after SetDistance, Leave/Join and Crash/Restart")
		if got := shared.agents[0].Distance(4); got != shared.net.Distance(0, 4) {
			t.Fatalf("%v: host 2's SetDistance and Restart reached host 0's column: d(0,4) = %v", mode, got)
		}
		if got := shared.agents[4].Distance(2); got != shared.net.Distance(4, 2) {
			t.Fatalf("%v: a graceful Leave/Join lost host 4's estimates: d(4,2) = %v", mode, got)
		}
		if before := shared.agents[2].MissingDistanceLookups(); shared.agents[2].Distance(4) != p.DefaultDistance ||
			shared.agents[2].MissingDistanceLookups() != before+1 {
			t.Fatalf("%v: an amnesiac restart kept an estimate", mode)
		}
		for _, id := range hosts {
			shared.agents[id].Stop()
			private.agents[id].Stop()
		}
	}
}

// TestUseGroupRejectsMisfit: a column outside the group, a group sized
// for another tree, a column already taken, a second group and an agent
// already holding streams are refused before anything indexes them.
func TestUseGroupRejectsMisfit(t *testing.T) {
	f := newFixture(t, yTree(), detParams())
	a := f.agents[2]
	nodes := f.tree.NumNodes()
	taken := NewGroup(nodes, 3)
	if err := f.agents[3].UseGroup(taken, 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		g   *Group
		col int
	}{
		{NewGroup(nodes, 3), -1},
		{NewGroup(nodes, 3), 3},
		{NewGroup(nodes+1, 3), 0},
		{taken, 1},
	} {
		if err := a.UseGroup(c.g, c.col); err == nil {
			t.Errorf("column %d of a %d-member group over %d nodes accepted for %d nodes", c.col, c.g.members, len(c.g.col), nodes)
		}
	}
	if got := a.Distance(3); got != f.net.Distance(2, 3) {
		t.Fatalf("a refused group disturbed the agent's own table: d(2,3) = %v", got)
	}
	if err := f.agents[3].UseGroup(NewGroup(nodes, 3), 0); err == nil {
		t.Error("a member joined a second group")
	}
	f.agents[0].Transmit(0)
	if err := f.agents[0].UseGroup(NewGroup(nodes, 3), 0); err == nil {
		t.Error("an agent holding a stream joined a group")
	}
}

// TestSharedPlaneMemberOwnsNoColumn: an agent builds its private column
// only when it records its first estimate, so a member handed a shared
// plane before that never allocates one; until then every lookup falls
// back to the default distance.
func TestSharedPlaneMemberOwnsNoColumn(t *testing.T) {
	tree := yTree()
	eng := sim.NewEngine()
	net := netsim.MustNew(eng, tree, netsim.DefaultConfig())
	p := detParams()
	a, err := NewAgent(eng, net, sim.NewRNG(1), 2, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.dist != nil {
		t.Fatalf("a new agent already holds a %d-cell column", len(a.dist))
	}
	a.forgetDistances()
	if got := a.Distance(3); got != p.DefaultDistance || a.MissingDistanceLookups() != 1 {
		t.Fatalf("d(2,3) = %v after %d fallbacks with no column, want the default %v once", got, a.MissingDistanceLookups(), p.DefaultDistance)
	}
	if err := a.UseGroup(NewGroup(tree.NumNodes(), 1), 0); err != nil {
		t.Fatal(err)
	}
	a.SetDistance(3, 5*time.Millisecond)
	if got := a.Distance(3); got != 5*time.Millisecond {
		t.Fatalf("d(2,3) = %v on the shared plane, want 5ms", got)
	}

	b, err := NewAgent(eng, net, sim.NewRNG(2), 3, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.SetDistance(2, 4*time.Millisecond)
	if len(b.dist) != tree.NumNodes() || b.Distance(2) != 4*time.Millisecond {
		t.Fatalf("first estimate left a %d-cell column reading d(3,2) = %v, want %d cells and 4ms", len(b.dist), b.Distance(2), tree.NumNodes())
	}
}
