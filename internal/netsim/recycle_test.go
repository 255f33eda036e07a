package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// note is what an audited packet says: which send of the scenario it is.
type note struct {
	send, ttl int
	data      bool
}

func (m *note) IsOriginalData() bool { return m.data }

// sendKey identifies one send: a packet is sent again only under a new ID.
type sendKey struct {
	p  *Packet
	id uint64
}

// auditEntry is one delivery as the hosts saw it.
type auditEntry struct {
	at   sim.Time
	node topology.NodeID
	id   uint64
	send int
}

// ledger is a recording Recycler. With owned set it builds every packet a
// scenario sends, reusing handed-back packets last in, first out — so a
// packet handed back early is at once rebuilt under another send — and
// audits each send from its first delivery to its hand-back; without,
// every send is a fresh literal nobody takes back.
type ledger struct {
	t     *testing.T
	owned bool
	free  []*Packet
	made  int
	sends int
	// notes maps each send to its note's number; recycled counts the
	// hand-backs of each send, whether or not it was registered.
	notes    map[sendKey]int
	recycled map[sendKey]int
	log      []auditEntry
}

func newLedger(t *testing.T, owned bool) *ledger {
	return &ledger{t: t, owned: owned, notes: map[sendKey]int{}, recycled: map[sendKey]int{}}
}

// Recycle implements Recycler.
func (l *ledger) Recycle(p *Packet) {
	if p.Owner != Recycler(l) {
		l.t.Fatalf("packet %d handed back to a recycler that is not its owner", p.ID)
	}
	l.recycled[sendKey{p, p.ID}]++
	l.free = append(l.free, p)
}

// packet builds the next send's packet.
func (l *ledger) packet(class Class, ttl int, data bool) *Packet {
	l.sends++
	m := note{send: l.sends, ttl: ttl, data: data}
	if !l.owned {
		return &Packet{Class: class, Msg: &m}
	}
	var p *Packet
	if k := len(l.free); k > 0 {
		p, l.free = l.free[k-1], l.free[:k-1]
	} else {
		p = &Packet{Msg: new(note)}
		l.made++
	}
	msg := p.Msg.(*note)
	*msg = m
	*p = Packet{Class: class, Msg: msg, Owner: l}
	return p
}

// sent registers a send once the network has stamped its ID. Nothing is
// delivered inside a send call, so this always precedes the deliveries.
func (l *ledger) sent(p *Packet) { l.notes[sendKey{p, p.ID}] = p.Msg.(*note).send }

// deliver audits one delivery: the send was made, is not yet handed back,
// and still says what it said when sent.
func (l *ledger) deliver(now sim.Time, node topology.NodeID, p *Packet) {
	key := sendKey{p, p.ID}
	send, ok := l.notes[key]
	switch m := p.Msg.(*note); {
	case !ok:
		l.t.Fatalf("host %d delivered packet %d at %v, which was never sent", node, p.ID, now)
	case l.recycled[key] > 0:
		l.t.Fatalf("host %d delivered packet %d at %v after it was handed back", node, p.ID, now)
	case m.send != send:
		l.t.Fatalf("host %d delivered packet %d as send %d, sent as %d", node, p.ID, m.send, send)
	}
	l.log = append(l.log, auditEntry{now, node, p.ID, send})
}

// settle checks what must hold once the engine has drained: every send
// was handed back exactly once and every packet ever built is home.
func (l *ledger) settle() {
	if !l.owned {
		return
	}
	for key := range l.notes {
		if n := l.recycled[key]; n != 1 {
			l.t.Fatalf("packet %d was handed back %d times, want once", key.id, n)
		}
	}
	if len(l.recycled) != len(l.notes) {
		l.t.Fatalf("%d sends handed back, %d made", len(l.recycled), len(l.notes))
	}
	if len(l.free) != l.made {
		l.t.Fatalf("%d of %d packets came back: the rest leaked", len(l.free), l.made)
	}
}

// auditHost logs through the ledger and, depending on packet and node,
// sends from inside Deliver: a multicast or a unicast built, when the
// ledger owns packets, from what earlier sends handed back.
type auditHost struct {
	node topology.NodeID
	net  *Network
	l    *ledger
	peer topology.NodeID
}

func (h *auditHost) Deliver(now sim.Time, p *Packet) {
	h.l.deliver(now, h.node, p)
	m := p.Msg.(*note)
	if m.ttl == 0 {
		return
	}
	switch (p.ID*5 + uint64(h.node)) % 11 {
	case 0:
		q := h.l.packet(Control, m.ttl-1, false)
		h.net.Multicast(h.node, q)
		h.l.sent(q)
	case 1:
		q := h.l.packet(Payload, m.ttl-1, false)
		h.net.Unicast(h.node, h.peer, q)
		h.l.sent(q)
	}
}

// recyclingVariant configures the network one way; each exercises a
// different set of packet-holding events.
type recyclingVariant struct {
	name    string
	queuing bool
	setup   func(net *Network, eng *sim.Engine, seed int64)
}

// lostLinks is a deterministic per-packet loss pattern for LossFunc and
// the DropFunc that agrees with it.
func lostLinks(tree *topology.Tree, p *Packet) []topology.LinkID {
	if p.ID%4 != 0 {
		return nil
	}
	return []topology.LinkID{topology.LinkID(1 + int(p.ID/4)%(tree.NumNodes()-1))}
}

// knownLoss installs LossFunc and the DropFunc it promises.
func knownLoss(net *Network) {
	tree := net.Tree()
	net.SetLossFunc(func(p *Packet) ([]topology.LinkID, bool) { return lostLinks(tree, p), true })
	net.SetDropFunc(func(p *Packet, link topology.LinkID, down bool) bool {
		return down && slices.Contains(lostLinks(tree, p), link)
	})
}

// hashedLoss installs a DropFunc alone, so every flood scans.
func hashedLoss(net *Network) {
	net.SetDropFunc(func(p *Packet, link topology.LinkID, down bool) bool {
		k := p.ID*13 + uint64(link)*5
		if down {
			k++
		}
		return k%11 == 0
	})
}

var recyclingVariants = []recyclingVariant{
	{name: "cohorts", setup: func(net *Network, _ *sim.Engine, _ int64) { knownLoss(net) }},
	{name: "refused", setup: func(net *Network, _ *sim.Engine, _ int64) {
		knownLoss(net)
		net.EnableFloodPlans(1)
	}},
	{name: "scan", setup: func(net *Network, _ *sim.Engine, _ int64) { hashedLoss(net) }},
	{name: "jitter", setup: func(net *Network, _ *sim.Engine, seed int64) {
		knownLoss(net)
		net.EnableJitter(sim.NewRNG(seed), 15*time.Millisecond)
	}},
	{name: "dup", setup: func(net *Network, _ *sim.Engine, _ int64) {
		hashedLoss(net)
		net.SetDupFunc(func(p *Packet, _ sim.Time) (time.Duration, bool) {
			return time.Duration(p.ID%3) * time.Millisecond, p.ID%3 != 1
		})
	}},
	{name: "severed", setup: func(net *Network, eng *sim.Engine, seed int64) {
		knownLoss(net)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 12; i++ {
			link := topology.LinkID(1 + rng.Intn(net.Tree().NumNodes()-1))
			at := sim.Time(time.Duration(rng.Intn(slots)) * 5 * time.Millisecond)
			up := i%2 == 1
			eng.ScheduleAt(at, func(sim.Time) { net.SetLinkUp(link, up) })
		}
	}},
	{name: "qcap", setup: func(net *Network, eng *sim.Engine, seed int64) {
		hashedLoss(net)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 10; i++ {
			at := sim.Time(time.Duration(rng.Intn(slots)) * 5 * time.Millisecond)
			qcap := rng.Intn(3)
			eng.ScheduleAt(at, func(sim.Time) { net.SetQueueCap(qcap) })
		}
	}},
	{name: "queuing", queuing: true, setup: func(net *Network, _ *sim.Engine, _ int64) { hashedLoss(net) }},
}

// slots is the number of 5 ms instants a scenario's sends, link flaps and
// cap changes are drawn from: sends collide on an instant and with each
// other's hops, and still spread far enough apart for packets to come
// back and go out again.
const slots = 96

type recyclingResult struct {
	log      []auditEntry
	counts   CrossingCounts
	drops    uint64
	executed uint64
	sends    int
}

// playRecycling runs one scenario: sends of every primitive from random
// nodes at colliding instants, hosts that answer from inside Deliver,
// and the variant's network behaviour.
func playRecycling(t *testing.T, tree *topology.Tree, v recyclingVariant, seed int64, owned bool) (res recyclingResult, built int) {
	cfg := DefaultConfig()
	cfg.Queuing = v.queuing
	eng := sim.NewEngine()
	net := MustNew(eng, tree, cfg)
	l := newLedger(t, owned)
	rng := rand.New(rand.NewSource(seed))
	node := func() topology.NodeID { return topology.NodeID(rng.Intn(tree.NumNodes())) }
	for id := topology.NodeID(0); int(id) < tree.NumNodes(); id++ {
		if tree.IsReceiver(id) || id%3 == 0 {
			net.AttachHost(id, &auditHost{node: id, net: net, l: l, peer: node()})
		}
	}
	v.setup(net, eng, seed)
	for i := 0; i < 80; i++ {
		at := sim.Time(time.Duration(rng.Intn(slots)) * 5 * time.Millisecond)
		a, b, kind := node(), node(), rng.Intn(6)
		eng.ScheduleAt(at, func(sim.Time) {
			var p *Packet
			switch kind {
			case 0, 1:
				p = l.packet(Payload, 2, kind == 0)
				net.Multicast(a, p)
			case 2:
				p = l.packet(Control, 2, false)
				net.Multicast(a, p)
			case 3:
				p = l.packet(Payload, 1, false)
				p.From = b
				net.Subcast(a, p)
			case 4:
				p = l.packet(Control, 1, false)
				net.Unicast(a, b, p)
			case 5:
				p = l.packet(Payload, 1, false)
				net.UnicastThenSubcast(a, b, p)
			}
			l.sent(p)
		})
	}
	eng.Run()
	l.settle()
	return recyclingResult{l.log, net.Counts(), net.QueueDrops(), eng.Executed(), l.sends}, l.made
}

// TestPacketsReturnToTheirOwnerAfterTheLastDelivery is the recycling
// contract's oracle. Over random trees, a chain and a star, and every
// kind of packet-holding event — cached-plan cohorts, refused and lossy
// scans, jitter, duplicates, severed links, queue-cap windows with hop
// runs, the queuing path, Unicast and UnicastThenSubcast, hosts sending
// from inside Deliver — a ledger that owns every packet and rebuilds
// handed-back ones at once requires each send to be handed back exactly
// once, never before its last delivery, and every packet to be home once
// the engine drains. The same scenario with fresh ownerless packets must
// then see exactly the same deliveries, counts and engine events:
// recycling is invisible.
func TestPacketsReturnToTheirOwnerAfterTheLastDelivery(t *testing.T) {
	trees := map[string]*topology.Tree{
		"chain": topology.MustNew([]topology.NodeID{topology.None, 0, 1, 2, 3, 4, 5}),
		"star":  topology.MustNew([]topology.NodeID{topology.None, 0, 0, 0, 0, 0, 0, 0}),
	}
	for seed := int64(0); seed < 6; seed++ {
		spec := topology.GenSpec{Receivers: 2 + int(seed*seed), Depth: 2 + int(seed)%5}
		trees[fmt.Sprintf("gen%d", seed)] = topology.MustGenerate(sim.NewRNG(seed), spec)
	}
	for _, v := range recyclingVariants {
		var deliveries, sends, built int
		var drops uint64
		for name, tree := range trees {
			for seed := int64(1); seed <= 3; seed++ {
				got, made := playRecycling(t, tree, v, seed, true)
				want, _ := playRecycling(t, tree, v, seed, false)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s on %s seed %d: recycling changed the run: %d deliveries, %d sends, %d events; ownerless %d, %d, %d",
						v.name, name, seed, len(got.log), got.sends, got.executed, len(want.log), want.sends, want.executed)
				}
				deliveries, sends, built, drops = deliveries+len(got.log), sends+got.sends, built+made, drops+got.drops
			}
		}
		t.Logf("%s: %d deliveries of %d sends in %d packets, %d queue drops", v.name, deliveries, sends, built, drops)
		if deliveries < 2000 || 4*built > sends || v.name == "qcap" && drops == 0 {
			t.Fatalf("%s: %d deliveries of %d sends in %d packets, %d queue drops: the scenarios lost their teeth",
				v.name, deliveries, sends, built, drops)
		}
	}
}

// TestEarlyReleaseTripsStaleFrameGuard is the mutation case: a holder
// that drops references it does not hold hands the packet back while
// events still point at it, the owner rebuilds it for the next send, and
// the first stale event must panic with a *StaleFrameError naming both
// IDs — for each kind of packet-holding event.
func TestEarlyReleaseTripsStaleFrameGuard(t *testing.T) {
	tree := testTree(t)
	sends := map[string]func(net *Network, p *Packet){
		"cohort":       func(net *Network, p *Packet) { net.Multicast(0, p) },
		"delivery":     func(net *Network, p *Packet) { net.Unicast(3, 6, p) },
		"hop run":      func(net *Network, p *Packet) { net.SetQueueCap(2); net.Multicast(0, p) },
		"continuation": func(net *Network, p *Packet) { net.UnicastThenSubcast(4, 2, p) },
	}
	for name, send := range sends {
		eng := sim.NewEngine()
		net := MustNew(eng, tree, DefaultConfig())
		l := newLedger(t, true)
		for _, id := range []topology.NodeID{0, 3, 4, 6} {
			net.AttachHost(id, nullHost{})
		}
		p := l.packet(Payload, 0, false)
		send(net, p)
		stale := p.ID
		if p.refs == 0 {
			t.Fatalf("%s: the send left no pending event holding the packet", name)
		}
		for p.refs > 0 {
			p.release()
		}
		if q := l.packet(Payload, 0, false); q != p {
			t.Fatalf("%s: the owner did not get the packet back", name)
		}
		net.Multicast(3, p)
		err := func() (err error) {
			defer func() {
				if r, ok := recover().(error); ok {
					err = r
				}
			}()
			eng.Run()
			return nil
		}()
		var sfe *StaleFrameError
		if !errors.As(err, &sfe) || sfe.Want != stale || sfe.Got != p.ID {
			t.Fatalf("%s: early release ran to %v, want a StaleFrameError for packet %d found as %d", name, err, stale, p.ID)
		}
	}
}

// TestEarlyReleaseBetweenCohortsTripsStaleFrameGuard is the flood event's
// mutation case: one reference holds the packet for all of a flood's
// cohorts, so a holder that drops it once the first cohort has fired
// hands the packet back while the later cohorts still read it. Rebuilt
// and sent again, the packet must make the next cohort panic with a
// *StaleFrameError naming both IDs.
func TestEarlyReleaseBetweenCohortsTripsStaleFrameGuard(t *testing.T) {
	eng := sim.NewEngine()
	net := MustNew(eng, testTree(t), DefaultConfig())
	l := newLedger(t, true)
	for _, id := range []topology.NodeID{0, 3, 4, 6} {
		net.AttachHost(id, nullHost{})
	}
	p := l.packet(Payload, 0, false)
	net.Multicast(0, p) // cohorts {3, 4} two hops out and {6} three
	stale := p.ID
	if !eng.Step() || eng.Pending() != 1 || p.refs != 1 {
		t.Fatalf("after the first cohort: %d pending, %d references; want the flood's one record and one reference", eng.Pending(), p.refs)
	}
	p.release()
	if q := l.packet(Payload, 0, false); q != p {
		t.Fatal("the owner did not get the packet back")
	}
	net.Multicast(3, p)
	err := func() (err error) {
		defer func() {
			if r, ok := recover().(error); ok {
				err = r
			}
		}()
		eng.Run()
		return nil
	}()
	var sfe *StaleFrameError
	if !errors.As(err, &sfe) || sfe.Want != stale || sfe.Got != p.ID {
		t.Fatalf("release between cohorts ran to %v, want a StaleFrameError for packet %d found as %d", err, stale, p.ID)
	}
}
