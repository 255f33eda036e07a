package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// floodNet is what a scenario drives: the network under test or refNet.
type floodNet interface {
	Multicast(from topology.NodeID, p *Packet)
	Subcast(root topology.NodeID, p *Packet)
	UnicastThenSubcast(from, via topology.NodeID, p *Packet)
	SetQueueCap(cap int)
	AttachHost(id topology.NodeID, h Host)
	QueueDrops() uint64
	Counts() CrossingCounts
}

// refNet is the queuing flood written the obvious way: one closure on
// the engine per link crossed, nothing pooled, nothing batched. It
// shares no code with Network beyond the tree and the engine.
type refNet struct {
	eng    *sim.Engine
	tree   *topology.Tree
	cfg    Config
	hosts  []Host
	drop   DropFunc
	nextID uint64
	cap    int
	busy   map[refDir]sim.Time
	queued map[refDir][]sim.Time
	drops  uint64
	counts CrossingCounts
}

type refDir struct {
	link topology.LinkID
	down bool
}

func (r *refNet) SetQueueCap(cap int)                   { r.cap = cap }
func (r *refNet) AttachHost(id topology.NodeID, h Host) { r.hosts[id] = h }
func (r *refNet) QueueDrops() uint64                    { return r.drops }
func (r *refNet) Counts() CrossingCounts                { return r.counts }

func (r *refNet) stamp(p *Packet, from topology.NodeID, mode Mode) {
	p.ID, p.From, p.Mode = r.nextID, from, mode
	r.nextID++
}

func (r *refNet) counter(p *Packet) *uint64 {
	payload := p.Class == Payload
	switch {
	case p.Mode == ModeUnicast:
		return &r.counts.PayloadUnicast
	case p.Mode == ModeSubcast && payload:
		return &r.counts.PayloadSubcast
	case p.Mode == ModeSubcast:
		return &r.counts.ControlSubcast
	case payload && p.Msg.(chat).data:
		return &r.counts.Data
	case payload:
		return &r.counts.PayloadMulticast
	}
	return &r.counts.ControlMulticast
}

// cross is the FIFO link: a payload packet waits for the transmitter,
// and under a cap is tail-dropped when cap packets are already queued
// or in service. Control packets take no time and no buffer.
func (r *refNet) cross(link topology.LinkID, down bool, at sim.Time, p *Packet) (sim.Time, bool) {
	var tx time.Duration
	if p.Class == Payload {
		tx = time.Duration(int64(r.cfg.PayloadBytes) * 8 * int64(time.Second) / int64(r.cfg.Bandwidth))
	}
	k := refDir{link, down}
	capped := r.cap > 0 && tx > 0
	if capped {
		q := r.queued[k]
		for len(q) > 0 && !q[0].After(at) {
			q = q[1:]
		}
		r.queued[k] = q
		if len(q) >= r.cap {
			r.drops++
			return 0, false
		}
	}
	start := at
	if b := r.busy[k]; b.After(start) {
		start = b
	}
	finish := start.Add(tx)
	r.busy[k] = finish
	if capped {
		r.queued[k] = append(r.queued[k], finish)
	}
	return finish.Add(r.cfg.LinkDelay), true
}

func (r *refNet) hop(origin, node, from topology.NodeID, p *Packet, downOnly bool, now sim.Time) {
	if h := r.hosts[node]; h != nil && node != origin {
		h.Deliver(now, p)
	}
	forward := func(link topology.LinkID, next topology.NodeID, down bool) {
		*r.counter(p)++
		if r.drop(p, link, down) {
			return
		}
		if arr, ok := r.cross(link, down, now, p); ok {
			r.eng.ScheduleAt(arr, func(t sim.Time) { r.hop(origin, next, node, p, downOnly, t) })
		}
	}
	for _, c := range r.tree.Children(node) {
		if c != from {
			forward(c, c, true)
		}
	}
	if parent := r.tree.Parent(node); !downOnly && parent != topology.None && parent != from {
		forward(node, parent, false)
	}
}

func (r *refNet) Multicast(from topology.NodeID, p *Packet) {
	r.stamp(p, from, ModeMulticast)
	r.hop(from, from, topology.None, p, false, r.eng.Now())
}

func (r *refNet) Subcast(root topology.NodeID, p *Packet) {
	r.stamp(p, p.From, ModeSubcast)
	r.hop(root, root, topology.None, p, true, r.eng.Now())
}

func (r *refNet) UnicastThenSubcast(from, via topology.NodeID, p *Packet) {
	r.stamp(p, from, ModeUnicast)
	at, cur := r.eng.Now(), from
	for _, link := range r.tree.PathLinks(from, via) {
		down := link != cur
		*r.counter(p)++
		if r.drop(p, link, down) {
			return
		}
		var ok bool
		if at, ok = r.cross(link, down, at, p); !ok {
			return
		}
		if cur = link; !down {
			cur = r.tree.Parent(link)
		}
	}
	r.eng.ScheduleAt(at, func(now sim.Time) {
		p.Mode = ModeSubcast
		if h := r.hosts[via]; h != nil && via != from {
			h.Deliver(now, p)
		}
		r.hop(via, via, topology.None, p, true, now)
	})
}

// chat is the scenario's message: data marks an original transmission,
// ttl bounds how many times hosts answer an answer.
type chat struct {
	data bool
	ttl  int
}

func (c chat) IsOriginalData() bool { return c.data }

// chattyHost logs every delivery and, depending on packet and node,
// arms a timer or multicasts from inside Deliver — each takes an engine
// sequence number in the middle of somebody else's flood.
type chattyHost struct {
	node topology.NodeID
	eng  *sim.Engine
	net  floodNet
	log  *[]orderEntry
}

func (h *chattyHost) Deliver(now sim.Time, p *Packet) {
	*h.log = append(*h.log, orderEntry{h.node, now, p.ID})
	switch id := p.ID; (id*7 + uint64(h.node)) % 13 {
	case 0:
		// Zero lands the timer among this instant's remaining hops; one
		// link's delay, bare or behind a payload, among the next hops'.
		delay := [...]time.Duration{0, 20 * time.Millisecond, 20*time.Millisecond + 8192*time.Second/1.5e6}[id%3]
		h.eng.Schedule(delay, func(t sim.Time) {
			*h.log = append(*h.log, orderEntry{h.node, t, ^id})
		})
	case 1:
		if c := p.Msg.(chat); c.ttl > 0 {
			h.net.Multicast(h.node, &Packet{Class: Control, Msg: chat{ttl: c.ttl - 1}})
		}
	}
}

type scenarioResult struct {
	log      []orderEntry
	drops    uint64
	counts   CrossingCounts
	executed uint64
}

// playScenario builds one side (reference or not), schedules the
// seed's sends and cap changes at colliding instants, and runs it dry.
func playScenario(tree *topology.Tree, seed int64, reference bool) scenarioResult {
	cfg := DefaultConfig()
	cfg.Queuing = true
	eng := sim.NewEngine()
	drop := func(p *Packet, link topology.LinkID, down bool) bool {
		k := p.ID*13 + uint64(link)*5
		if down {
			k++
		}
		return k%17 == 0
	}
	var net floodNet
	if reference {
		net = &refNet{eng: eng, tree: tree, cfg: cfg, hosts: make([]Host, tree.NumNodes()), drop: drop,
			busy: map[refDir]sim.Time{}, queued: map[refDir][]sim.Time{}}
	} else {
		real := MustNew(eng, tree, cfg)
		real.SetDropFunc(drop)
		net = real
	}
	var res scenarioResult
	for id := topology.NodeID(0); int(id) < tree.NumNodes(); id++ {
		if tree.IsReceiver(id) || id%3 == 0 {
			net.AttachHost(id, &chattyHost{node: id, eng: eng, net: net, log: &res.log})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	node := func() topology.NodeID { return topology.NodeID(rng.Intn(tree.NumNodes())) }
	for i := 0; i < 60; i++ {
		// Multiples of 5 ms: link delay is 20 ms and a payload takes
		// ≈ 5.46 ms to serialize, so floods meet both exactly and nearly.
		at := sim.Time(time.Duration(rng.Intn(12)) * 5 * time.Millisecond)
		a, b, kind, qcap := node(), node(), rng.Intn(7), rng.Intn(4)
		eng.ScheduleAt(at, func(sim.Time) {
			switch kind {
			case 0, 1:
				net.Multicast(a, &Packet{Class: Payload, Msg: chat{data: kind == 0, ttl: 1}})
			case 2:
				net.Multicast(a, &Packet{Class: Control, Msg: chat{ttl: 1}})
			case 3:
				net.Subcast(a, &Packet{Class: Payload, From: b, Msg: chat{ttl: 1}})
			case 4:
				net.Subcast(a, &Packet{Class: Control, From: b, Msg: chat{ttl: 1}})
			case 5:
				net.UnicastThenSubcast(a, b, &Packet{Class: Payload, Msg: chat{ttl: 1}})
			case 6:
				net.SetQueueCap(qcap)
			}
		})
	}
	eng.Run()
	res.drops, res.counts, res.executed = net.QueueDrops(), net.Counts(), eng.Executed()
	return res
}

// TestQueuingFloodMatchesEventPerLinkReference is the queuing flood's
// independent oracle: on random trees, a chain and a star, with floods
// of every kind colliding under opening and closing queue caps and
// hosts that schedule from inside Deliver, the network must produce the
// reference's exact (time, host, packet) sequence — timers included —
// and its queue-drop and crossing counts.
func TestQueuingFloodMatchesEventPerLinkReference(t *testing.T) {
	chain := []topology.NodeID{topology.None, 0, 1, 2, 3, 4, 5}
	star := []topology.NodeID{topology.None, 0, 0, 0, 0, 0, 0, 0}
	trees := map[string]*topology.Tree{"chain": topology.MustNew(chain), "star": topology.MustNew(star)}
	for seed := int64(0); seed < 12; seed++ {
		spec := topology.GenSpec{Receivers: 1 + int(seed*seed), Depth: 2 + int(seed)%6}
		trees[fmt.Sprintf("gen%d", seed)] = topology.MustGenerate(sim.NewRNG(seed), spec)
	}
	var drops, deliveries, records, links uint64
	for name, tree := range trees {
		for seed := int64(1); seed <= 4; seed++ {
			want, got := playScenario(tree, seed, true), playScenario(tree, seed, false)
			if len(got.log) != len(want.log) {
				t.Fatalf("%s (%d nodes) seed %d: %d log entries, reference %d", name, tree.NumNodes(), seed, len(got.log), len(want.log))
			}
			for i := range want.log {
				if got.log[i] != want.log[i] {
					t.Fatalf("%s (%d nodes) seed %d: entry %d = %+v, reference %+v", name, tree.NumNodes(), seed, i, got.log[i], want.log[i])
				}
			}
			if got.drops != want.drops || !reflect.DeepEqual(got.counts, want.counts) {
				t.Fatalf("%s seed %d: drops %d counts %+v, reference %d %+v", name, seed, got.drops, got.counts, want.drops, want.counts)
			}
			drops += want.drops
			deliveries += uint64(len(want.log))
			records += got.executed
			links += want.executed
		}
	}
	if drops == 0 || deliveries < 10000 || records >= links {
		t.Fatalf("%d queue drops over %d deliveries, %d engine events against the reference's %d: the scenarios lost their teeth", drops, deliveries, records, links)
	}
}

// armingHost schedules an engine event from inside Deliver.
type armingHost struct{ eng *sim.Engine }

func (a armingHost) Deliver(sim.Time, *Packet) { a.eng.Schedule(time.Second, func(sim.Time) {}) }

// TestHopRunRecordCounts is the hop run's regression gate. On testTree
// (six links, depth three) an uncontended data flood from the root is
// three wheel records, one per depth: {1,2}, {3,4,5}, {6}. A host at
// node 2 that arms a timer on delivery takes a sequence number between
// node 1's children and node 2's, so that depth splits into {3,4} and
// {5}; {6} still follows as one record.
func TestHopRunRecordCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Queuing = true
	eng, net, recs := setup(t, cfg)
	flood := func() uint64 {
		before := eng.Executed()
		net.Multicast(0, &Packet{Class: Payload, Msg: dataMsg{}})
		eng.Run()
		return eng.Executed() - before
	}
	if got, depth := flood(), uint64(net.Tree().MaxDepth()); got != depth || net.Counts().Data != 6 {
		t.Fatalf("uncontended flood: %d hop records over %d crossings, want %d over 6", got, net.Counts().Data, depth)
	}
	net.AttachHost(2, armingHost{eng})
	if got := flood(); got != 4+1 {
		t.Fatalf("flood with a host arming a timer at node 2: %d engine events, want 4 hop records and the timer", got)
	}
	for _, id := range []topology.NodeID{3, 4, 6} {
		if len(recs[id].got) != 2 {
			t.Fatalf("host %d got %d deliveries from two floods", id, len(recs[id].got))
		}
	}
}

// BenchmarkQueuingFlood measures one uncontended data flood from the
// root on the queuing path, and reports how many wheel records it took.
func BenchmarkQueuingFlood(b *testing.B) {
	for _, spec := range []topology.GenSpec{{Receivers: 26, Depth: 5}, {Receivers: 766, Depth: 7}} {
		tree := topology.MustGenerate(sim.NewRNG(1), spec)
		b.Run(fmt.Sprintf("nodes=%d", tree.NumNodes()), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Queuing = true
			eng := sim.NewEngine()
			net := MustNew(eng, tree, cfg)
			for _, r := range tree.Receivers() {
				net.AttachHost(r, nullHost{})
			}
			pkt := &Packet{Class: Payload, Msg: dataMsg{}}
			net.Multicast(tree.Root(), pkt)
			eng.Run()
			before := eng.Executed()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Multicast(tree.Root(), pkt)
				eng.Run()
			}
			b.ReportMetric(float64(eng.Executed()-before)/float64(b.N), "hop-records/flood")
		})
	}
}
