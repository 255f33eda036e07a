package netsim

import (
	"testing"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

type delivery struct {
	at  sim.Time
	pkt *Packet
}

type recorder struct {
	got []delivery
}

func (r *recorder) Deliver(now sim.Time, p *Packet) {
	r.got = append(r.got, delivery{now, p})
}

//	   0 (source)
//	  / \
//	 1   2
//	/ \   \
//
// 3   4   5
//
//	|
//	6
func testTree(t *testing.T) *topology.Tree {
	t.Helper()
	return topology.MustNew([]topology.NodeID{topology.None, 0, 0, 1, 1, 2, 5})
}

type dataMsg struct{}

func (dataMsg) IsOriginalData() bool { return true }

type reqMsg struct{}

func setup(t *testing.T, cfg Config) (*sim.Engine, *Network, map[topology.NodeID]*recorder) {
	t.Helper()
	eng := sim.NewEngine()
	tree := testTree(t)
	net := MustNew(eng, tree, cfg)
	recs := make(map[topology.NodeID]*recorder)
	for _, id := range []topology.NodeID{0, 3, 4, 6} {
		r := &recorder{}
		recs[id] = r
		net.AttachHost(id, r)
	}
	return eng, net, recs
}

func TestMulticastReachesAllHostsWithHopDelay(t *testing.T) {
	cfg := DefaultConfig()
	eng, net, recs := setup(t, cfg)
	net.Multicast(0, &Packet{Class: Control, Msg: reqMsg{}})
	eng.Run()

	// Control packets are 0 bytes: delay is pure propagation.
	wantHops := map[topology.NodeID]int{3: 2, 4: 2, 6: 3}
	for id, hops := range wantHops {
		r := recs[id]
		if len(r.got) != 1 {
			t.Fatalf("host %d deliveries = %d, want 1", id, len(r.got))
		}
		want := sim.Time(time.Duration(hops) * cfg.LinkDelay)
		if r.got[0].at != want {
			t.Errorf("host %d delivered at %v, want %v", id, r.got[0].at, want)
		}
	}
	if len(recs[0].got) != 0 {
		t.Error("multicast delivered back to sender")
	}
}

func TestMulticastFromReceiverReachesEveryoneElse(t *testing.T) {
	cfg := DefaultConfig()
	eng, net, recs := setup(t, cfg)
	net.Multicast(3, &Packet{Class: Control, Msg: reqMsg{}})
	eng.Run()
	wantHops := map[topology.NodeID]int{0: 2, 4: 2, 6: 5}
	for id, hops := range wantHops {
		r := recs[id]
		if len(r.got) != 1 {
			t.Fatalf("host %d deliveries = %d, want 1", id, len(r.got))
		}
		want := sim.Time(time.Duration(hops) * cfg.LinkDelay)
		if r.got[0].at != want {
			t.Errorf("host %d delivered at %v, want %v", id, r.got[0].at, want)
		}
	}
	if len(recs[3].got) != 0 {
		t.Error("sender received its own multicast")
	}
}

func TestPayloadAddsSerializationDelay(t *testing.T) {
	cfg := DefaultConfig()
	eng, net, recs := setup(t, cfg)
	net.Multicast(0, &Packet{Class: Payload, Msg: dataMsg{}})
	eng.Run()
	tx := time.Duration(float64(cfg.PayloadBytes*8) / cfg.Bandwidth * float64(time.Second))
	want := sim.Time(2 * (cfg.LinkDelay + tx))
	if got := recs[3].got[0].at; got != want {
		t.Fatalf("payload delivery at %v, want %v", got, want)
	}
}

func TestMulticastCrossesEveryLinkOnce(t *testing.T) {
	eng, net, _ := setup(t, DefaultConfig())
	net.Multicast(0, &Packet{Class: Control, Msg: reqMsg{}})
	eng.Run()
	if got := net.Counts().ControlMulticast; got != 6 {
		t.Fatalf("control crossings = %d, want 6 (one per link)", got)
	}
	// Multicast from a receiver also crosses every link exactly once.
	net.Multicast(6, &Packet{Class: Control, Msg: reqMsg{}})
	eng.Run()
	if got := net.Counts().ControlMulticast; got != 12 {
		t.Fatalf("control crossings = %d, want 12", got)
	}
}

func TestDropPrunesSubtree(t *testing.T) {
	eng, net, recs := setup(t, DefaultConfig())
	net.SetDropFunc(func(p *Packet, link topology.LinkID, down bool) bool {
		return link == 1 && down
	})
	net.Multicast(0, &Packet{Class: Payload, Msg: dataMsg{}})
	eng.Run()
	if len(recs[3].got) != 0 || len(recs[4].got) != 0 {
		t.Fatal("hosts below dropped link received the packet")
	}
	if len(recs[6].got) != 1 {
		t.Fatal("host outside dropped subtree missed the packet")
	}
	// Crossings: link 1 is crossed (and dropped at far end); links 3,4
	// below it are not crossed. Links 2,5,6 are crossed. Total 4.
	if got := net.Counts().Data; got != 4 {
		t.Fatalf("data crossings = %d, want 4", got)
	}
}

func TestUnicastPathAndDelay(t *testing.T) {
	cfg := DefaultConfig()
	eng, net, recs := setup(t, cfg)
	net.Unicast(3, 6, &Packet{Class: Control, Msg: reqMsg{}})
	eng.Run()
	if len(recs[6].got) != 1 {
		t.Fatal("unicast not delivered")
	}
	want := sim.Time(5 * cfg.LinkDelay) // 3->1->0->2->5->6
	if recs[6].got[0].at != want {
		t.Fatalf("unicast delivered at %v, want %v", recs[6].got[0].at, want)
	}
	if got := net.Counts().ControlUnicast; got != 5 {
		t.Fatalf("unicast crossings = %d, want 5", got)
	}
	// Nobody else hears a unicast.
	if len(recs[0].got)+len(recs[4].got) != 0 {
		t.Fatal("unicast leaked to other hosts")
	}
}

func TestUnicastDroppedMidPath(t *testing.T) {
	eng, net, recs := setup(t, DefaultConfig())
	net.SetDropFunc(func(p *Packet, link topology.LinkID, down bool) bool {
		return link == 2
	})
	net.Unicast(3, 6, &Packet{Class: Control, Msg: reqMsg{}})
	eng.Run()
	if len(recs[6].got) != 0 {
		t.Fatal("dropped unicast was delivered")
	}
	// Crossings stop at the dropped link: 3->1 (link 3), 1->0 (link 1),
	// 0->2 (link 2, dropped) = 3 crossings.
	if got := net.Counts().ControlUnicast; got != 3 {
		t.Fatalf("unicast crossings = %d, want 3", got)
	}
}

func TestSubcastReachesOnlySubtree(t *testing.T) {
	cfg := DefaultConfig()
	eng, net, recs := setup(t, cfg)
	net.Subcast(2, &Packet{Class: Payload, From: 4, Msg: reqMsg{}})
	eng.Run()
	if len(recs[6].got) != 1 {
		t.Fatal("subcast missed receiver in subtree")
	}
	if len(recs[3].got)+len(recs[4].got)+len(recs[0].got) != 0 {
		t.Fatal("subcast leaked outside subtree")
	}
	if got := net.Counts().PayloadSubcast; got != 2 {
		t.Fatalf("subcast crossings = %d, want 2 (links 5,6)", got)
	}
}

func TestSessionCountsSeparately(t *testing.T) {
	eng, net, _ := setup(t, DefaultConfig())
	net.Multicast(0, &Packet{Class: Control, Session: true, Msg: reqMsg{}})
	eng.Run()
	c := net.Counts()
	if c.Session != 6 || c.ControlMulticast != 0 {
		t.Fatalf("session crossings = %+v", c)
	}
	if c.RecoveryTotal() != 0 {
		t.Fatalf("session counted as recovery overhead: %d", c.RecoveryTotal())
	}
}

func TestDataCountsSeparately(t *testing.T) {
	eng, net, _ := setup(t, DefaultConfig())
	net.Multicast(0, &Packet{Class: Payload, Msg: dataMsg{}})
	eng.Run()
	c := net.Counts()
	if c.Data != 6 || c.PayloadMulticast != 0 {
		t.Fatalf("data crossings = %+v", c)
	}
	// A retransmission (payload, non-data) counts as recovery overhead.
	net.Multicast(4, &Packet{Class: Payload, Msg: reqMsg{}})
	eng.Run()
	c = net.Counts()
	if c.PayloadMulticast != 6 || c.RecoveryTotal() != 6 {
		t.Fatalf("retransmission accounting wrong: %+v", c)
	}
}

func TestQueuingSerializesPayloads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Queuing = true
	eng, net, recs := setup(t, cfg)
	// Two payloads from the source back to back: the second must wait for
	// the first to finish serializing on each shared link.
	net.Multicast(0, &Packet{Class: Payload, Msg: dataMsg{}})
	net.Multicast(0, &Packet{Class: Payload, Msg: dataMsg{}})
	eng.Run()
	r := recs[3]
	if len(r.got) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(r.got))
	}
	tx := time.Duration(float64(cfg.PayloadBytes*8) / cfg.Bandwidth * float64(time.Second))
	first := sim.Time(2 * (cfg.LinkDelay + tx))
	if r.got[0].at != first {
		t.Fatalf("first delivery at %v, want %v", r.got[0].at, first)
	}
	// Second packet starts on link 1 only after the first clears it.
	second := first.Add(tx)
	if r.got[1].at != second {
		t.Fatalf("second delivery at %v, want %v", r.got[1].at, second)
	}
}

func TestQueuingFloodMatchesFastPathForSinglePacket(t *testing.T) {
	for _, queuing := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Queuing = queuing
		eng, net, recs := setup(t, cfg)
		net.Multicast(0, &Packet{Class: Payload, Msg: dataMsg{}})
		eng.Run()
		tx := time.Duration(float64(cfg.PayloadBytes*8) / cfg.Bandwidth * float64(time.Second))
		want := sim.Time(3 * (cfg.LinkDelay + tx))
		if got := recs[6].got[0].at; got != want {
			t.Errorf("queuing=%v: delivery at %v, want %v", queuing, got, want)
		}
	}
}

func TestDistanceAndRTT(t *testing.T) {
	_, net, _ := setup(t, DefaultConfig())
	if d := net.Distance(0, 6); d != 60*time.Millisecond {
		t.Fatalf("Distance(0,6) = %v, want 60ms", d)
	}
	if r := net.RTT(3, 4); r != 80*time.Millisecond {
		t.Fatalf("RTT(3,4) = %v, want 80ms", r)
	}
}

func TestPacketIDsAreUnique(t *testing.T) {
	eng, net, recs := setup(t, DefaultConfig())
	for i := 0; i < 5; i++ {
		net.Multicast(0, &Packet{Class: Control, Msg: reqMsg{}})
	}
	eng.Run()
	seen := map[uint64]bool{}
	for _, d := range recs[3].got {
		if seen[d.pkt.ID] {
			t.Fatal("duplicate packet ID")
		}
		seen[d.pkt.ID] = true
	}
	if len(seen) != 5 {
		t.Fatalf("got %d distinct packets, want 5", len(seen))
	}
}

func TestUnicastToSelfIsNoOp(t *testing.T) {
	eng, net, recs := setup(t, DefaultConfig())
	net.Unicast(3, 3, &Packet{Class: Control, Msg: reqMsg{}})
	eng.Run()
	if len(recs[3].got) != 0 {
		t.Fatal("self-unicast delivered")
	}
	if net.Counts().ControlUnicast != 0 {
		t.Fatal("self-unicast counted crossings")
	}
}

func TestJitterReordersCloseDeliveries(t *testing.T) {
	cfg := DefaultConfig()
	eng, net, recs := setup(t, cfg)
	net.EnableJitter(sim.NewRNG(7), 200*time.Millisecond)
	// Twenty control packets 1ms apart: with 200ms jitter, arrival order
	// at receiver 6 must differ from send order.
	for i := 0; i < 20; i++ {
		i := i
		eng.Schedule(time.Duration(i)*time.Millisecond, func(sim.Time) {
			net.Multicast(0, &Packet{Class: Control, Msg: reqMsg{}})
			_ = i
		})
	}
	eng.Run()
	r := recs[6]
	if len(r.got) != 20 {
		t.Fatalf("deliveries = %d, want 20", len(r.got))
	}
	inOrder := true
	for i := 1; i < len(r.got); i++ {
		if r.got[i].pkt.ID < r.got[i-1].pkt.ID {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("jittered deliveries arrived perfectly in order")
	}
}

func TestJitterDisabled(t *testing.T) {
	_, net, _ := setup(t, DefaultConfig())
	net.EnableJitter(nil, time.Second)
	if d := net.jitter(); d != 0 {
		t.Fatalf("nil-rng jitter = %v", d)
	}
	net.EnableJitter(sim.NewRNG(1), 0)
	if d := net.jitter(); d != 0 {
		t.Fatalf("zero-max jitter = %v", d)
	}
}

func TestAttachNilHostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AttachHost(nil) did not panic")
		}
	}()
	_, net, _ := setup(t, DefaultConfig())
	net.AttachHost(3, nil)
}

func TestClassAndModeStrings(t *testing.T) {
	if Payload.String() != "payload" || Control.String() != "control" {
		t.Fatal("Class.String wrong")
	}
	if ModeMulticast.String() != "multicast" || ModeUnicast.String() != "unicast" || ModeSubcast.String() != "subcast" {
		t.Fatal("Mode.String wrong")
	}
	if Class(9).String() == "" || Mode(9).String() == "" {
		t.Fatal("unknown enum should still format")
	}
}

func BenchmarkUnicastPath(b *testing.B) {
	eng := sim.NewEngine()
	tree := topology.MustGenerate(sim.NewRNG(1), topology.GenSpec{Receivers: 15, Depth: 5})
	net := MustNew(eng, tree, DefaultConfig())
	rs := tree.Receivers()
	net.AttachHost(rs[0], &recorder{})
	net.AttachHost(rs[len(rs)-1], &recorder{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Unicast(rs[0], rs[len(rs)-1], &Packet{Class: Control, Msg: reqMsg{}})
		eng.Run()
	}
}

// TestCountCrossingClassification pins the classification of every
// Mode×Class×Session combination (plus the data-tagged payload case)
// onto exactly one counter. In particular, subcast control packets get
// their own ControlSubcast counter instead of being lumped into
// ControlMulticast.
func TestCountCrossingClassification(t *testing.T) {
	type want struct {
		data, payloadMcast, payloadSub, payloadUcast uint64
		ctrlMcast, ctrlSub, ctrlUcast, session       uint64
	}
	cases := []struct {
		name    string
		mode    Mode
		class   Class
		session bool
		msg     any
		want    want
	}{
		{"session multicast control", ModeMulticast, Control, true, reqMsg{}, want{session: 1}},
		{"session unicast control", ModeUnicast, Control, true, reqMsg{}, want{session: 1}},
		{"session subcast control", ModeSubcast, Control, true, reqMsg{}, want{session: 1}},
		{"session multicast payload", ModeMulticast, Payload, true, dataMsg{}, want{session: 1}},
		{"session unicast payload", ModeUnicast, Payload, true, dataMsg{}, want{session: 1}},
		{"session subcast payload", ModeSubcast, Payload, true, dataMsg{}, want{session: 1}},
		{"original data", ModeMulticast, Payload, false, dataMsg{}, want{data: 1}},
		{"multicast retransmission", ModeMulticast, Payload, false, reqMsg{}, want{payloadMcast: 1}},
		{"subcast retransmission", ModeSubcast, Payload, false, reqMsg{}, want{payloadSub: 1}},
		{"subcast data-tagged payload", ModeSubcast, Payload, false, dataMsg{}, want{payloadSub: 1}},
		{"unicast payload", ModeUnicast, Payload, false, reqMsg{}, want{payloadUcast: 1}},
		{"unicast data-tagged payload", ModeUnicast, Payload, false, dataMsg{}, want{payloadUcast: 1}},
		{"multicast control", ModeMulticast, Control, false, reqMsg{}, want{ctrlMcast: 1}},
		{"multicast control nil msg", ModeMulticast, Control, false, nil, want{ctrlMcast: 1}},
		{"subcast control", ModeSubcast, Control, false, reqMsg{}, want{ctrlSub: 1}},
		{"unicast control", ModeUnicast, Control, false, reqMsg{}, want{ctrlUcast: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, net, _ := setup(t, DefaultConfig())
			*net.counterFor(&Packet{Mode: c.mode, Class: c.class, Session: c.session, Msg: c.msg})++
			got := net.Counts()
			w := CrossingCounts{
				Data:             c.want.data,
				PayloadMulticast: c.want.payloadMcast,
				PayloadSubcast:   c.want.payloadSub,
				PayloadUnicast:   c.want.payloadUcast,
				ControlMulticast: c.want.ctrlMcast,
				ControlSubcast:   c.want.ctrlSub,
				ControlUnicast:   c.want.ctrlUcast,
				Session:          c.want.session,
			}
			if got != w {
				t.Fatalf("counts = %+v, want %+v", got, w)
			}
		})
	}
}

func TestSubcastControlCountsInRecoveryTotal(t *testing.T) {
	c := CrossingCounts{ControlSubcast: 3, ControlMulticast: 2, Data: 100, Session: 50}
	if got := c.RecoveryTotal(); got != 5 {
		t.Fatalf("RecoveryTotal = %d, want 5", got)
	}
}

// floodMode selects which flood path TestFloodPathEquivalence exercises.
type floodMode int

const (
	queuing     floodMode = iota // event-per-hop floodHop (conformance oracle)
	cachedPlan                   // plan replay, every origin admitted to the cache
	refusedPlan                  // plan replay with a full budget: every flood refused, scanned
)

func (m floodMode) String() string {
	return [...]string{"queuing", "cachedPlan", "refusedPlan"}[m]
}

// TestFloodPathEquivalence is the property test for the two flood
// implementations: on random trees, with a deterministic link-local
// drop function and optionally severed links, plan replay — with the
// origin's cohorts cached and, on a budget-pressured network, with the
// origin refused — must deliver to exactly the same
// hosts and cross exactly the same links the same number of times as
// the event-per-hop queuing path. Only timing may differ (replay's own
// schedule is pinned by TestFloodPlanReplayIdenticalSchedule).
func TestFloodPathEquivalence(t *testing.T) {
	type linkDir struct {
		link topology.LinkID
		down bool
	}
	// run floods a single packet and returns (delivered hosts, crossed
	// link/direction multiset). sevMod > 0 severs every link whose ID is
	// a multiple of it (except the root's pseudo-link 0).
	run := func(tree *topology.Tree, mode floodMode, origin topology.NodeID, subcast bool, dropMod, sevMod int) (map[topology.NodeID]int, map[linkDir]int) {
		cfg := DefaultConfig()
		cfg.Queuing = mode == queuing
		eng := sim.NewEngine()
		net := MustNew(eng, tree, cfg)
		recs := make(map[topology.NodeID]*recorder)
		for _, r := range tree.Receivers() {
			rec := &recorder{}
			recs[r] = rec
			net.AttachHost(r, rec)
		}
		if sevMod > 0 {
			for l := 1; l < tree.NumNodes(); l += sevMod {
				net.SetLinkUp(topology.LinkID(l), false)
			}
		}
		crossed := make(map[linkDir]int)
		if dropMod > 0 {
			// Deterministic in (link, direction) only, so all paths see
			// identical drop decisions regardless of traversal order.
			net.SetDropFunc(func(p *Packet, link topology.LinkID, down bool) bool {
				crossed[linkDir{link, down}]++
				k := int(link) * 2
				if down {
					k++
				}
				return k%dropMod == 0
			})
		} else {
			net.SetDropFunc(func(p *Packet, link topology.LinkID, down bool) bool {
				crossed[linkDir{link, down}]++
				return false
			})
		}
		if mode == refusedPlan {
			// A budget of exactly one plan, filled by another origin: both
			// floods below are refused admission and take the scan with
			// nothing compiled, and nothing is evicted.
			net.EnableFloodPlans(net.plans.bound)
			primer := tree.Root()
			if origin == primer {
				primer = tree.Receivers()[0]
			}
			net.Multicast(primer, &Packet{Class: Payload, Msg: reqMsg{}})
			eng.Run()
			clear(crossed)
			for _, rec := range recs {
				rec.got = nil
			}
		}
		// Flood twice so the cached mode exercises both the compile-miss
		// and the cache-hit replay; all modes flood twice to keep the
		// delivery counts comparable.
		for i := 0; i < 2; i++ {
			if subcast {
				net.Subcast(origin, &Packet{Class: Payload, From: origin, Msg: reqMsg{}})
			} else {
				net.Multicast(origin, &Packet{Class: Payload, Msg: reqMsg{}})
			}
			eng.Run()
		}
		if s := net.PlanStats(); mode == refusedPlan && s != (PlanStats{Misses: 3, Refused: 2}) {
			t.Fatalf("refused mode: stats = %+v, want both floods refused (0 hits, 3 misses, 2 refused, 0 evictions)", s)
		}
		hosts := make(map[topology.NodeID]int)
		for id, rec := range recs {
			if len(rec.got) > 0 {
				hosts[id] = len(rec.got)
			}
		}
		return hosts, crossed
	}

	for seed := int64(0); seed < 8; seed++ {
		spec := topology.GenSpec{Receivers: 6 + int(seed)*2, Depth: 3 + int(seed)%4}
		tree := topology.MustGenerate(sim.NewRNG(seed), spec)
		origins := []topology.NodeID{tree.Root(), tree.Receivers()[0], tree.Receivers()[tree.NumReceivers()-1]}
		for _, origin := range origins {
			for _, subcast := range []bool{false, true} {
				for _, dropMod := range []int{0, 3, 5} {
					for _, sevMod := range []int{0, 4} {
						refHosts, refLinks := run(tree, queuing, origin, subcast, dropMod, sevMod)
						for _, mode := range []floodMode{cachedPlan, refusedPlan} {
							gotHosts, gotLinks := run(tree, mode, origin, subcast, dropMod, sevMod)
							if len(refHosts) != len(gotHosts) {
								t.Fatalf("seed=%d origin=%d subcast=%v drop=%d sev=%d: host sets differ: queuing=%v %v=%v",
									seed, origin, subcast, dropMod, sevMod, refHosts, mode, gotHosts)
							}
							for id, nf := range refHosts {
								if gotHosts[id] != nf {
									t.Fatalf("seed=%d origin=%d subcast=%v drop=%d sev=%d: host %d deliveries queuing=%d %v=%d",
										seed, origin, subcast, dropMod, sevMod, id, nf, mode, gotHosts[id])
								}
							}
							if len(refLinks) != len(gotLinks) {
								t.Fatalf("seed=%d origin=%d subcast=%v drop=%d sev=%d: crossed link sets differ: queuing=%v %v=%v",
									seed, origin, subcast, dropMod, sevMod, refLinks, mode, gotLinks)
							}
							for ld, nf := range refLinks {
								if gotLinks[ld] != nf {
									t.Fatalf("seed=%d origin=%d subcast=%v drop=%d sev=%d: link %v crossings queuing=%d %v=%d",
										seed, origin, subcast, dropMod, sevMod, ld, nf, mode, gotLinks[ld])
								}
							}
						}
					}
				}
			}
		}
	}
}

// orderLog is a delivery log shared by every host of a network, so
// tests can observe the cross-host delivery order, which per-host
// recorders cannot see.
type orderLog struct {
	events []orderEntry
}

type orderEntry struct {
	node topology.NodeID
	at   sim.Time
	pkt  uint64
}

// orderTap is the per-node host feeding the shared log.
type orderTap struct {
	log  *orderLog
	node topology.NodeID
}

func (o *orderTap) Deliver(now sim.Time, p *Packet) {
	o.log.events = append(o.log.events, orderEntry{o.node, now, p.ID})
}

// TestGroupedDeliveryOrderMatchesPerHost pins the hop-cohort grouping
// optimization at its only observable seam: the cross-host delivery
// order. A flood with grouping active (no jitter, no duplicates) must
// deliver to every host at the same instant and in the same sequence
// as the per-host event path, which the test forces with a no-op
// duplicate hook (installing any DupFunc disables grouping without
// changing behavior).
func TestGroupedDeliveryOrderMatchesPerHost(t *testing.T) {
	run := func(tree *topology.Tree, perHost bool, origin topology.NodeID) []orderEntry {
		eng := sim.NewEngine()
		net := MustNew(eng, tree, DefaultConfig())
		log := &orderLog{}
		for _, r := range tree.Receivers() {
			net.AttachHost(r, &orderTap{log: log, node: r})
		}
		if perHost {
			net.SetDupFunc(func(*Packet, sim.Time) (time.Duration, bool) { return 0, false })
		}
		for i := 0; i < 2; i++ {
			net.Multicast(origin, &Packet{Class: Payload, Msg: dataMsg{}})
			eng.Run()
		}
		return log.events
	}
	for seed := int64(0); seed < 6; seed++ {
		tree := topology.MustGenerate(sim.NewRNG(seed), topology.GenSpec{Receivers: 10 + int(seed)*4, Depth: 3 + int(seed)%3})
		for _, origin := range []topology.NodeID{tree.Root(), tree.Receivers()[0]} {
			want := run(tree, true, origin)
			got := run(tree, false, origin)
			if len(want) != len(got) {
				t.Fatalf("seed=%d origin=%d: %d grouped deliveries, want %d",
					seed, origin, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("seed=%d origin=%d: delivery %d = %+v, want %+v",
						seed, origin, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFloodFastPathAllocationFree pins the tentpole property: once the
// pools are warm, a multicast flood performs no heap allocations —
// whether its cohorts are cached or, on a network whose budget admits
// nothing, refused on every flood — and a flood whose LossFunc knows
// the verdict (here: nothing lost, so cached origins replay their
// cohorts and refused ones scan) never calls DropFunc.
func TestFloodFastPathAllocationFree(t *testing.T) {
	for _, refuseAll := range []bool{false, true} {
		eng := sim.NewEngine()
		tree := topology.MustGenerate(sim.NewRNG(1), topology.GenSpec{Receivers: 15, Depth: 5})
		net := MustNew(eng, tree, DefaultConfig())
		if refuseAll {
			net.EnableFloodPlans(net.plans.bound - 1)
		}
		for _, r := range tree.Receivers() {
			net.AttachHost(r, nullHost{})
		}
		net.SetLossFunc(func(*Packet) ([]topology.LinkID, bool) { return nil, true })
		net.SetDropFunc(func(*Packet, topology.LinkID, bool) bool {
			t.Fatalf("refuseAll=%v: DropFunc called on a flood whose verdict is known", refuseAll)
			return false
		})
		pkt := &Packet{Class: Payload, Msg: dataMsg{}}
		origins := []topology.NodeID{tree.Root(), tree.Receivers()[0]}
		// Warm-up: grow the pools and the engine's wheel.
		for i := 0; i < 8; i++ {
			net.Multicast(origins[i%2], pkt)
			eng.Run()
		}
		i := 0
		avg := testing.AllocsPerRun(50, func() {
			net.Multicast(origins[i%2], pkt)
			eng.Run()
			i++
		})
		if avg != 0 {
			t.Fatalf("refuseAll=%v: flood allocates %.1f objects per packet, want 0", refuseAll, avg)
		}
		if s := net.PlanStats(); refuseAll && s.Hits != 0 {
			t.Fatalf("refuseAll network cached a plan: %+v", s)
		}
		// 8 warm-up floods, AllocsPerRun's own warm-up call and its 50
		// runs, each crossing every link once.
		if want := uint64(59 * (tree.NumNodes() - 1)); net.Counts().Data != want {
			t.Fatalf("refuseAll=%v: 59 floods counted %d crossings, want %d", refuseAll, net.Counts().Data, want)
		}
		// A miss the cache admits allocates once: the cohorts.
		miss := testing.AllocsPerRun(50, func() {
			net.AttachHost(origins[1], nullHost{}) // discards every plan
			net.Multicast(origins[0], pkt)
			eng.Run()
		})
		if !refuseAll && miss != 1 {
			t.Fatalf("an admitted miss allocates %.1f objects per flood, want 1", miss)
		}
	}
}

func TestUnicastThenSubcast(t *testing.T) {
	cfg := DefaultConfig()
	eng, net, recs := setup(t, cfg)
	// Reply travels 4 -> 1 (unicast leg, links 4 then climbing...) and
	// subcasts below router 2: receiver 6 gets it, 3 and 0 do not.
	net.UnicastThenSubcast(4, 2, &Packet{Class: Payload, Msg: reqMsg{}})
	eng.Run()
	if len(recs[6].got) != 1 {
		t.Fatal("subcast target missed")
	}
	if len(recs[3].got)+len(recs[0].got)+len(recs[4].got) != 0 {
		t.Fatal("unicast+subcast leaked outside the target subtree")
	}
	c := net.Counts()
	// Unicast leg 4->1->0->2 = 3 crossings; subcast below 2 = links 5,6.
	if c.PayloadUnicast != 3 || c.PayloadSubcast != 2 {
		t.Fatalf("crossings = %+v, want unicast 3 subcast 2", c)
	}
}

func TestUnicastThenSubcastToLeafDeliversDirectly(t *testing.T) {
	cfg := DefaultConfig()
	eng, net, recs := setup(t, cfg)
	// The "subtree" is the single leaf 4: the packet must be delivered
	// to the leaf host at the end of the unicast leg.
	net.UnicastThenSubcast(3, 4, &Packet{Class: Payload, Msg: reqMsg{}})
	eng.Run()
	if len(recs[4].got) != 1 {
		t.Fatal("leaf-targeted unicast+subcast not delivered")
	}
	c := net.Counts()
	if c.PayloadUnicast != 2 || c.PayloadSubcast != 0 {
		t.Fatalf("crossings = %+v, want unicast 2 subcast 0", c)
	}
}

func TestUnicastThenSubcastDroppedOnLeg(t *testing.T) {
	eng, net, recs := setup(t, DefaultConfig())
	net.SetDropFunc(func(p *Packet, l topology.LinkID, down bool) bool {
		return l == 2 // sever the path into subtree 2
	})
	net.UnicastThenSubcast(4, 2, &Packet{Class: Payload, Msg: reqMsg{}})
	eng.Run()
	if len(recs[6].got) != 0 {
		t.Fatal("dropped unicast leg still delivered")
	}
}

// cohortTap is a CohortHost that records what it was offered and takes
// nothing.
type cohortTap struct{ offered []*Packet }

func (c *cohortTap) DeliverCohort(now sim.Time, p *Packet, hosts []int32) bool {
	c.offered = append(c.offered, p)
	return false
}

// TestOnlyCohortPacketsAreOffered: a flood offers its hop cohorts to the
// cohort host only for a packet its sender marked Cohort, whatever the
// packet's class; a refused cohort is still delivered per host.
func TestOnlyCohortPacketsAreOffered(t *testing.T) {
	eng, net, recs := setup(t, DefaultConfig())
	tap := &cohortTap{}
	net.SetCohortHost(tap)
	marked := &Packet{Class: Payload, Cohort: true, Msg: reqMsg{}}
	for _, p := range []*Packet{
		{Class: Control, Session: true, Msg: reqMsg{}},
		{Class: Payload, Msg: dataMsg{}},
		marked,
	} {
		net.Multicast(0, p)
	}
	eng.Run()
	// Receivers 3 and 4 are two hops out, 6 three: two cohorts.
	if len(tap.offered) != 2 || tap.offered[0] != marked || tap.offered[1] != marked {
		t.Fatalf("offered %d cohorts, want the marked packet's two", len(tap.offered))
	}
	for _, id := range []topology.NodeID{3, 4, 6} {
		if got := len(recs[id].got); got != 3 {
			t.Errorf("host %d got %d packets, want 3", id, got)
		}
	}
}
