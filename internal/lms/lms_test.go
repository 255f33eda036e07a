package lms

import (
	"testing"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

//	    0 (source)
//	   / \
//	  1   2
//	 / \   \
//	3   4   5
//	        |
//	        6
//
// Receivers: 3, 4, 6. Lowest-ID designation: replier(1)=3, replier(2)=6,
// replier(0)=3 (subtree of 1 holds the lowest receiver).
func lmsTree() *topology.Tree {
	return topology.MustNew([]topology.NodeID{topology.None, 0, 0, 1, 1, 2, 5})
}

type bed struct {
	eng    *sim.Engine
	net    *netsim.Network
	fabric *Fabric
	agents map[topology.NodeID]*Agent
	log    *obsLog
}

type obsLog struct {
	detections int
	recoveries []srm.RecoveryInfo
	recHosts   []topology.NodeID
	recAt      []sim.Time
	naks       int
	repairs    int
}

func (l *obsLog) LossDetected(_, _ topology.NodeID, _ int, _ sim.Time) { l.detections++ }
func (l *obsLog) Recovered(h, _ topology.NodeID, _ int, at sim.Time, info srm.RecoveryInfo) {
	l.recoveries = append(l.recoveries, info)
	l.recHosts = append(l.recHosts, h)
	l.recAt = append(l.recAt, at)
}
func (l *obsLog) RequestSent(_, _ topology.NodeID, _ int, _ int)      { l.naks++ }
func (l *obsLog) ExpRequestSent(_, _ topology.NodeID, _ int)          {}
func (l *obsLog) ReplySent(_, _ topology.NodeID, _ int, _ bool)       { l.repairs++ }
func (l *obsLog) SessionSent(topology.NodeID)                         {}
func (l *obsLog) RequestAbandoned(_, _ topology.NodeID, _ int, _ int) {}

func newBed(t *testing.T, refresh time.Duration) *bed {
	t.Helper()
	eng := sim.NewEngine()
	tree := lmsTree()
	net := netsim.MustNew(eng, tree, netsim.DefaultConfig())
	fabric := NewFabric(eng, tree, refresh)
	log := &obsLog{}
	b := &bed{eng: eng, net: net, fabric: fabric, agents: map[topology.NodeID]*Agent{}, log: log}
	for _, id := range append([]topology.NodeID{tree.Root()}, tree.Receivers()...) {
		b.agents[id] = NewAgent(eng, net, fabric, id, log)
	}
	return b
}

func (b *bed) sendData(n int, period time.Duration) {
	src := b.agents[0]
	for i := 0; i < n; i++ {
		seq := i
		b.eng.ScheduleAt(sim.Time(time.Duration(i)*period), func(sim.Time) {
			src.Transmit(seq)
		})
	}
}

func TestFabricDesignation(t *testing.T) {
	b := newBed(t, time.Second)
	f := b.fabric
	if got := f.ReplierOf(1); got != 3 {
		t.Fatalf("replier(1) = %d, want 3", got)
	}
	if got := f.ReplierOf(2); got != 6 {
		t.Fatalf("replier(2) = %d, want 6", got)
	}
	if got := f.ReplierOf(0); got != 3 {
		t.Fatalf("replier(0) = %d, want 3", got)
	}
}

func TestFabricRouting(t *testing.T) {
	b := newBed(t, time.Second)
	f := b.fabric
	// Receiver 4's NAK: router 1's replier link leads to 3 (not 4's
	// side), so the turning point is 1 and the replier is 3.
	tp, origin, rep, err := f.Route(4)
	if err != nil || tp != 1 || origin != 4 || rep != 3 {
		t.Fatalf("Route(4) = %d,%d,%d,%v", tp, origin, rep, err)
	}
	// Receiver 3 is the designated replier all the way to the root: its
	// NAK escalates to the source.
	tp, origin, rep, err = f.Route(3)
	if err != nil || tp != 0 || rep != 0 {
		t.Fatalf("Route(3) = %d,%d,%d,%v", tp, origin, rep, err)
	}
	if origin != 1 {
		t.Fatalf("Route(3) origin = %d, want 1", origin)
	}
	// Receiver 6's NAK turns at the root toward replier 3.
	tp, origin, rep, err = f.Route(6)
	if err != nil || tp != 0 || origin != 2 || rep != 3 {
		t.Fatalf("Route(6) = %d,%d,%d,%v", tp, origin, rep, err)
	}
}

func TestFabricCrashRefresh(t *testing.T) {
	b := newBed(t, 2*time.Second)
	f := b.fabric
	f.ReportCrash(3)
	// Before the refresh delay elapses, routing still targets the dead
	// replier (stale state).
	_, _, rep, err := f.Route(4)
	if err != nil || rep != 3 {
		t.Fatalf("pre-refresh Route(4) replier = %d, want stale 3", rep)
	}
	b.eng.RunUntil(sim.Time(3 * time.Second))
	_, _, rep, err = f.Route(4)
	if err != nil {
		t.Fatal(err)
	}
	if rep == 3 {
		t.Fatal("post-refresh routing still targets the crashed replier")
	}
}

func TestLMSRecoversLocalizedLoss(t *testing.T) {
	b := newBed(t, time.Second)
	// Drop seq 1 on receiver 4's leaf link: only 4 loses it.
	b.net.SetDropFunc(func(p *netsim.Packet, l topology.LinkID, down bool) bool {
		m, ok := p.Msg.(*srm.DataMsg)
		return ok && down && m.Seq == 1 && l == 4
	})
	b.sendData(3, 100*time.Millisecond)
	b.eng.Run()

	if b.agents[4].MissingIn(0, 3) != 0 {
		t.Fatal("loss not recovered")
	}
	if len(b.log.recoveries) != 1 {
		t.Fatalf("recoveries = %d, want 1", len(b.log.recoveries))
	}
	if rep := b.log.recoveries[0].Replier; rep != 3 {
		t.Fatalf("repair came from %d, want designated replier 3", rep)
	}
	// Localization: the repair is unicast 3 -> 1 -> 4 (the origin
	// subtree is the single leaf 4, so there are no subcast crossings)
	// and never multicast. Two payload crossings instead of the six a
	// multicast retransmission would cost.
	c := b.net.Counts()
	if c.PayloadMulticast != 0 {
		t.Fatalf("repair was multicast (%d crossings)", c.PayloadMulticast)
	}
	if c.PayloadUnicast != 2 || c.PayloadSubcast != 0 {
		t.Fatalf("expected a 2-crossing unicast repair, got %+v", c)
	}
}

func TestLMSSharedLossEscalatesToSource(t *testing.T) {
	b := newBed(t, time.Second)
	// Drop seq 1 on link 1: receivers 3 and 4 both lose it; replier 3
	// shares the loss, so its NAK escalates to the source, and 4's NAK
	// waits at 3 until 3 recovers.
	b.net.SetDropFunc(func(p *netsim.Packet, l topology.LinkID, down bool) bool {
		m, ok := p.Msg.(*srm.DataMsg)
		return ok && down && m.Seq == 1 && l == 1
	})
	b.sendData(3, 100*time.Millisecond)
	b.eng.Run()

	if b.agents[3].MissingIn(0, 3) != 0 || b.agents[4].MissingIn(0, 3) != 0 {
		t.Fatal("shared loss not fully recovered")
	}
	// 3's NAK escalated to the source, whose repair was subcast into
	// subtree 1 — recovering BOTH 3 and 4 with a single localized
	// retransmission (4's pending NAK at 3 never needed a second one,
	// or produced at most a duplicate).
	var replierOf3, replierOf4 topology.NodeID = -2, -2
	for i, h := range b.log.recHosts {
		switch h {
		case 3:
			replierOf3 = b.log.recoveries[i].Replier
		case 4:
			replierOf4 = b.log.recoveries[i].Replier
		}
	}
	if replierOf3 != 0 {
		t.Fatalf("replier for 3 = %d, want source", replierOf3)
	}
	if replierOf4 != 0 && replierOf4 != 3 {
		t.Fatalf("replier for 4 = %d, want source subcast or replier 3", replierOf4)
	}
	// The escalated repair stayed inside subtree 1: receiver 6 saw no
	// retransmission crossings on its links.
	if b.net.Counts().PayloadMulticast != 0 {
		t.Fatal("escalated repair was multicast")
	}
}

func TestLMSTailLossViaHeartbeat(t *testing.T) {
	b := newBed(t, time.Second)
	b.net.SetDropFunc(func(p *netsim.Packet, l topology.LinkID, down bool) bool {
		m, ok := p.Msg.(*srm.DataMsg)
		return ok && down && m.Seq == 2 && l == 6
	})
	for _, a := range b.agents {
		a.StartSessions()
	}
	b.sendData(3, 100*time.Millisecond)
	b.eng.RunUntil(sim.Time(5 * time.Second))
	for _, a := range b.agents {
		a.Stop()
	}
	b.eng.Run()

	if b.agents[6].MissingIn(0, 3) != 0 {
		t.Fatal("tail loss not recovered via heartbeat detection")
	}
}

func TestLMSCrashStallsUntilRefresh(t *testing.T) {
	// The §3.3 claim quantified: when the designated replier crashes,
	// LMS recovery in its region stalls for the router-state staleness
	// window; recovery resumes only after the fabric refresh.
	refresh := 4 * time.Second
	b := newBed(t, refresh)
	b.agents[3].Crash()
	b.net.SetDropFunc(func(p *netsim.Packet, l topology.LinkID, down bool) bool {
		m, ok := p.Msg.(*srm.DataMsg)
		return ok && down && m.Seq == 1 && l == 4
	})
	b.sendData(3, 100*time.Millisecond)
	b.eng.Run()

	if b.agents[4].MissingIn(0, 3) != 0 {
		t.Fatal("loss never recovered after refresh")
	}
	// The recovery must have waited out (most of) the staleness window:
	// NAKs to the dead replier went unanswered until re-designation.
	var recAt sim.Time
	for i, h := range b.log.recHosts {
		if h == 4 {
			recAt = b.log.recAt[i]
		}
	}
	if recAt.Seconds() < 3.5 {
		t.Fatalf("recovered at %v, expected to stall until the ~4s refresh", recAt)
	}
	// Multiple NAK retries were burned on the stale replier.
	if b.log.naks < 3 {
		t.Fatalf("naks = %d, expected retries against the dead replier", b.log.naks)
	}
}

func TestNonSourceTransmitPanics(t *testing.T) {
	b := newBed(t, time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("non-source Transmit did not panic")
		}
	}()
	b.agents[3].Transmit(0)
}

func TestFabricRouteErrorWhenEverythingDown(t *testing.T) {
	b := newBed(t, time.Millisecond)
	// Crash every receiver and the source's availability for NAKs.
	for _, r := range []topology.NodeID{3, 4, 6} {
		b.fabric.ReportCrash(r)
	}
	b.fabric.ReportCrash(0)
	b.eng.RunUntil(sim.Time(time.Second))
	if _, _, _, err := b.fabric.Route(4); err == nil {
		t.Fatal("route succeeded with every replier down")
	}
}

func TestFabricRefreshDelayAccessor(t *testing.T) {
	b := newBed(t, 7*time.Second)
	if b.fabric.RefreshDelay() != 7*time.Second {
		t.Fatal("RefreshDelay accessor wrong")
	}
}

func TestLMSNAKRetriesBackOff(t *testing.T) {
	// Sever all repair traffic: the requestor's NAKs must back off
	// exponentially rather than flooding.
	b := newBed(t, time.Second)
	b.net.SetDropFunc(func(p *netsim.Packet, l topology.LinkID, down bool) bool {
		if m, ok := p.Msg.(*srm.DataMsg); ok {
			return down && m.Seq == 1 && l == 4
		}
		_, isRepair := p.Msg.(*RepairMsg)
		return isRepair
	})
	b.sendData(3, 100*time.Millisecond)
	b.eng.RunUntil(sim.Time(30 * time.Second))
	// In 30 virtual seconds with doubling timeouts, only a handful of
	// NAKs fit; a linear retry would send hundreds.
	if b.log.naks < 3 || b.log.naks > 20 {
		t.Fatalf("naks = %d, want exponential back-off pacing", b.log.naks)
	}
}

func TestLMSCrashedAgentSilent(t *testing.T) {
	b := newBed(t, time.Second)
	b.agents[6].Crash()
	if !b.agents[6].Crashed() {
		t.Fatal("Crashed() = false")
	}
	b.net.SetDropFunc(func(p *netsim.Packet, l topology.LinkID, down bool) bool {
		m, ok := p.Msg.(*srm.DataMsg)
		return ok && down && m.Seq == 1 && l == 6
	})
	b.sendData(3, 100*time.Millisecond)
	b.eng.Run()
	if b.log.naks != 0 {
		t.Fatal("crashed host sent NAKs")
	}
}
