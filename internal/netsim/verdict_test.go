package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// verdictFlood is one send of TestFloodVerdictEquivalence's script.
type verdictFlood struct {
	origin  topology.NodeID
	subcast bool
	pkt     Packet
	lost    []topology.LinkID
	// known is what the LossFunc side answers; an unknown flood must fall
	// back to one DropFunc call per link check.
	known bool
	// run drains the engine after this send; floods without it are in
	// flight together, so same-instant deliveries of different floods
	// expose the engine sequence numbers each flood consumed.
	run bool
}

// verdictScript draws the floods for one tree: every origin kind, the
// four crossing classes, random lost sets, and the three shapes the
// membership test is most likely to get wrong — nothing lost (the cohort
// shortcut), a lost link inside another lost link's region, and a flood
// from a receiver whose own inbound link is named lost (it climbs that
// link, and an upstream crossing never drops).
func verdictScript(tree *topology.Tree, rng *rand.Rand) []verdictFlood {
	var routers, links []topology.NodeID
	for id := 0; id < tree.NumNodes(); id++ {
		node := topology.NodeID(id)
		if !tree.IsReceiver(node) {
			routers = append(routers, node)
		}
		if node != tree.Root() {
			links = append(links, node)
		}
	}
	receivers := tree.Receivers()
	pick := func(from []topology.NodeID) topology.NodeID { return from[rng.Intn(len(from))] }
	packets := []Packet{
		{Class: Payload, Msg: reqMsg{}},
		{Class: Control, Msg: reqMsg{}},
		{Class: Control, Session: true},
		{Class: Payload, Msg: dataMsg{}},
	}
	var script []verdictFlood
	for i := 0; i < 14; i++ {
		f := verdictFlood{pkt: packets[i%len(packets)], known: i%5 != 4, run: rng.Intn(3) == 0}
		switch i % 3 {
		case 0:
			f.origin = pick(receivers)
		case 1:
			f.origin = pick(routers)
		default:
			f.origin, f.subcast = pick(routers), true
		}
		switch i % 4 {
		case 0: // nothing lost
		case 1:
			// A link and the link above it (or, right under the root, the
			// link alone).
			inner := pick(links)
			f.lost = append(f.lost, inner)
			if outer := tree.Parent(inner); outer != tree.Root() {
				f.lost = append(f.lost, outer)
			}
		case 2:
			f.origin, f.subcast = pick(receivers), false
			f.lost = []topology.LinkID{f.origin, pick(links)}
		default:
			for k := rng.Intn(4); k > 0; k-- {
				f.lost = append(f.lost, pick(links))
			}
		}
		script = append(script, f)
	}
	script[len(script)-1].run = true
	return script
}

// TestFloodVerdictEquivalence pins the verdict-once flood against both
// of its specifications at once. The same script of floods runs on a
// network with a LossFunc installed (beside a DropFunc that counts its
// calls), on a network with only the equivalent DropFunc, and through
// plan_test.go's recursive reference walk; all three must agree on the
// cross-host (host, instant, packet) delivery order — which under jitter
// fixes the RNG draw order, and across floods in flight together fixes
// the engine sequence numbers each flood consumed — on the
// duplicate-hook call order, on every crossing counter and on the
// number of engine events scheduled and executed. A known flood must
// never call DropFunc; an unknown one must call it once per link check.
// Modes: hop-cohort grouping (where lossless floods of cached plans take
// the precompiled cohorts), jitter, a duplicate hook, one severed link,
// and a plan budget that admits nothing (every origin refused). The
// queuing-and-legs subtest holds queuing floods and unicast legs to the
// same contract (see checkQueuingVerdicts).
func TestFloodVerdictEquivalence(t *testing.T) {
	t.Run("queuing-and-legs", checkQueuingVerdicts)
	const maxJitter = 3 * time.Millisecond
	dupRule := func(id uint64, at sim.Time) (time.Duration, bool) {
		return time.Duration(id+1) * time.Millisecond, (uint64(at)+id)%3 == 0
	}
	noDup := func(uint64, sim.Time) (time.Duration, bool) { return 0, false }
	drops := func(lost []topology.LinkID, link topology.LinkID, down bool) bool {
		return down && slices.Contains(lost, link)
	}
	type mode struct {
		name                         string
		jitter, dup, sever, noBudget bool
	}
	modes := []mode{
		{name: "grouped"},
		{name: "jitter", jitter: true},
		{name: "dup", dup: true},
		{name: "severed", sever: true},
		{name: "refused", noBudget: true},
	}

	// side is one of the two networks under comparison.
	type side struct {
		eng       *sim.Engine
		net       *Network
		log       *orderLog
		dupCalls  []orderEntry
		dropCalls int
		cur       *verdictFlood
	}
	build := func(tree *topology.Tree, m mode, severed topology.LinkID, withVerdict bool) *side {
		s := &side{eng: sim.NewEngine(), log: &orderLog{}}
		s.net = MustNew(s.eng, tree, DefaultConfig())
		if m.noBudget {
			s.net.EnableFloodPlans(s.net.plans.bound - 1)
		}
		if m.jitter {
			s.net.EnableJitter(sim.NewRNG(42), maxJitter)
		}
		if m.dup {
			s.net.SetDupFunc(func(p *Packet, at sim.Time) (time.Duration, bool) {
				s.dupCalls = append(s.dupCalls, orderEntry{0, at, p.ID})
				return dupRule(p.ID, at)
			})
		}
		if m.sever {
			s.net.SetLinkUp(severed, false)
		}
		for _, r := range tree.Receivers() {
			s.net.AttachHost(r, &orderTap{log: s.log, node: r})
		}
		s.net.SetDropFunc(func(p *Packet, link topology.LinkID, down bool) bool {
			s.dropCalls++
			return drops(s.cur.lost, link, down)
		})
		if withVerdict {
			s.net.SetLossFunc(func(p *Packet) ([]topology.LinkID, bool) {
				if !s.cur.known {
					// An unknown verdict's set must be ignored.
					return []topology.LinkID{tree.Receivers()[0]}, false
				}
				return s.cur.lost, true
			})
		}
		return s
	}
	send := func(s *side, f *verdictFlood) {
		s.cur = f
		pkt := f.pkt
		if f.subcast {
			pkt.From = f.origin
			s.net.Subcast(f.origin, &pkt)
		} else {
			s.net.Multicast(f.origin, &pkt)
		}
	}

	for seed := int64(0); seed < 6; seed++ {
		tree := topology.MustGenerate(sim.NewRNG(seed), topology.GenSpec{Receivers: 8 + int(seed)*3, Depth: 3 + int(seed)%3})
		for _, m := range modes {
			rng := rand.New(rand.NewSource(seed))
			script := verdictScript(tree, rng)
			severed := topology.LinkID(1 + rng.Intn(tree.NumNodes()-1))
			where := fmt.Sprintf("seed=%d mode=%s", seed, m.name)

			cfg := DefaultConfig()
			ref := &refFlood{
				tree:    tree,
				isHost:  tree.IsReceiver,
				severed: func(l topology.LinkID) bool { return m.sever && l == severed },
				dup:     noDup,
			}
			if m.jitter {
				ref.jitter, ref.maxJitter = sim.NewRNG(42), maxJitter
			}
			if m.dup {
				ref.dup = dupRule
			}
			verdict, callback := build(tree, m, severed, true), build(tree, m, severed, false)

			wantEvents := 0
			for i := range script {
				f := &script[i]
				where := fmt.Sprintf("%s flood=%d origin=%d subcast=%v lost=%v known=%v", where, i, f.origin, f.subcast, f.lost, f.known)
				ref.drop = func(link topology.LinkID, down bool) bool { return drops(f.lost, link, down) }
				ref.perHop = cfg.LinkDelay + serializeTime(cfg.ControlBytes, cfg.Bandwidth)
				if f.pkt.Class == Payload {
					ref.perHop = cfg.LinkDelay + serializeTime(cfg.PayloadBytes, cfg.Bandwidth)
				}
				checksBefore, schedBefore := len(ref.checks), len(ref.sched)
				ref.visit(f.origin, topology.None, f.origin, 0, f.subcast, verdict.eng.Now(), uint64(i))
				checks := len(ref.checks) - checksBefore
				if m.jitter || m.dup {
					wantEvents += len(ref.sched) - schedBefore
				} else {
					// Grouped: one event per occupied hop distance.
					instants := map[sim.Time]bool{}
					for _, e := range ref.sched[schedBefore:] {
						instants[e.at] = true
					}
					wantEvents += len(instants)
				}

				callsBefore := verdict.dropCalls
				send(verdict, f)
				send(callback, f)
				wantCalls := 0
				if !f.known {
					wantCalls = checks
				}
				if got := verdict.dropCalls - callsBefore; got != wantCalls {
					t.Fatalf("%s: %d DropFunc calls beside the LossFunc, want %d", where, got, wantCalls)
				}
				if callback.dropCalls != len(ref.checks) {
					t.Fatalf("%s: callback network made %d link checks so far, reference %d", where, callback.dropCalls, len(ref.checks))
				}
				if v, c := verdict.net.Counts(), callback.net.Counts(); v != c {
					t.Fatalf("%s: crossing counts %+v with the verdict, %+v by callback", where, v, c)
				}
				if v, c := verdict.eng.Pending(), callback.eng.Pending(); v != c {
					t.Fatalf("%s: %d events pending with the verdict, %d by callback", where, v, c)
				}
				if f.run {
					verdict.eng.Run()
					callback.eng.Run()
				}
			}

			c := verdict.net.Counts()
			if total := c.PayloadMulticast + c.PayloadSubcast + c.ControlMulticast + c.ControlSubcast + c.Session + c.Data; total != uint64(len(ref.checks)) {
				t.Fatalf("%s: %d crossings counted, reference walk checked %d links", where, total, len(ref.checks))
			}
			if c.Session == 0 || c.Data == 0 || c.ControlMulticast == 0 || c.PayloadSubcast == 0 {
				t.Fatalf("%s: script left a crossing class unexercised: %+v", where, c)
			}
			for _, s := range []*side{verdict, callback} {
				if got := s.eng.Executed(); got != uint64(wantEvents) {
					t.Fatalf("%s: %d engine events executed, reference %d", where, got, wantEvents)
				}
			}
			// The engine dispatches by instant, FIFO among equals: a stable
			// sort of the reference's scheduling order.
			want := append([]orderEntry(nil), ref.sched...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].at.Before(want[j].at) })
			if len(want) == 0 {
				t.Fatalf("%s: script delivered nothing", where)
			}
			var wantDups []orderEntry
			if m.dup {
				// The hook is consulted once per first copy, in scheduling
				// order.
				for i, e := range ref.sched {
					if i == 0 || ref.sched[i-1].node != e.node || ref.sched[i-1].pkt != e.pkt {
						wantDups = append(wantDups, orderEntry{0, e.at, e.pkt})
					}
				}
			}
			for name, s := range map[string]*side{"verdict": verdict, "callback": callback} {
				if !slices.Equal(s.log.events, want) {
					t.Fatalf("%s: %s network's delivery order diverges from the reference walk:\n got %v\nwant %v", where, name, s.log.events, want)
				}
				if !slices.Equal(s.dupCalls, wantDups) {
					t.Fatalf("%s: %s network's duplicate-hook calls diverge from the reference walk", where, name)
				}
			}
		}
	}
}

// TestScratchPlanFloodsDoNotAlias: on a network whose budget admits
// nothing, every flood scans with the network's one set of scratch
// state (skip marks, climb, assembling groups). Two floods from
// different origins issued back to back — the second scans while the
// first's deliveries are still in flight — must each reach exactly
// their own host set at their own instants. A delivery event that
// pointed into that scratch instead of owning its cohort would deliver
// the first packet along the second origin's fan-out.
func TestScratchPlanFloodsDoNotAlias(t *testing.T) {
	tree := topology.MustGenerate(sim.NewRNG(5), topology.GenSpec{Receivers: 24, Depth: 5})
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	net := MustNew(eng, tree, cfg)
	net.EnableFloodPlans(net.plans.bound - 1)
	log := &orderLog{}
	for _, r := range tree.Receivers() {
		net.AttachHost(r, &orderTap{log: log, node: r})
	}
	rs := tree.Receivers()
	origins := []topology.NodeID{rs[0], rs[len(rs)-1]}
	if tree.HopCount(origins[0], origins[1]) < 3 {
		t.Fatalf("origins %v are too close for their fan-outs to differ", origins)
	}
	for _, o := range origins {
		net.Multicast(o, &Packet{Class: Control, Msg: reqMsg{}})
	}
	eng.Run()
	if s := net.PlanStats(); s.Hits != 0 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want two refused origins", s)
	}
	got := make([]map[topology.NodeID]sim.Time, len(origins))
	for i := range got {
		got[i] = make(map[topology.NodeID]sim.Time)
	}
	for _, e := range log.events {
		if _, dup := got[e.pkt][e.node]; dup {
			t.Fatalf("packet %d delivered twice to host %d", e.pkt, e.node)
		}
		got[e.pkt][e.node] = e.at
	}
	for i, o := range origins {
		if len(got[i]) != len(rs)-1 {
			t.Fatalf("flood from %d reached %d hosts, want %d", o, len(got[i]), len(rs)-1)
		}
		for _, r := range rs {
			if r == o {
				continue
			}
			want := sim.Time(time.Duration(tree.HopCount(o, r)) * cfg.LinkDelay)
			if at, ok := got[i][r]; !ok || at != want {
				t.Fatalf("flood from %d: host %d delivered at %v (reached=%v), want %v", o, r, at, ok, want)
			}
		}
	}
}

// lossyMsg carries its own loss pattern, so both networks answer every
// send from the message alone, whichever floods are in flight together.
type lossyMsg struct {
	data  bool
	lost  []topology.LinkID
	known bool
}

func (m lossyMsg) IsOriginalData() bool { return m.data }

// queuingVerdictRun is what one side of checkQueuingVerdicts observed.
type queuingVerdictRun struct {
	log                      []orderEntry
	counts                   CrossingCounts
	queueDrops, executed     uint64
	knownCalls, unknownCalls int
}

// diff names the first observation two runs disagree on, or is empty.
func (r queuingVerdictRun) diff(o queuingVerdictRun) string {
	switch {
	case !slices.Equal(r.log, o.log):
		return fmt.Sprintf("delivery order: %d entries against %d", len(r.log), len(o.log))
	case r.counts != o.counts:
		return fmt.Sprintf("crossing counts %+v against %+v", r.counts, o.counts)
	case r.queueDrops != o.queueDrops:
		return fmt.Sprintf("%d queue drops against %d", r.queueDrops, o.queueDrops)
	case r.executed != o.executed:
		return fmt.Sprintf("%d engine events against %d", r.executed, o.executed)
	}
	return ""
}

// playQueuingVerdicts runs one seed's script of queuing floods, subcasts,
// unicasts and unicast-then-subcasts, sent at colliding instants, on one
// network. capWindow leaves Config.Queuing off and opens a queue cap at
// 10 ms and lifts it at 45 ms, so floods start on plan replay, on the
// queuing path, and keep hopping after the cap is gone; otherwise the
// network queues from the start under a static cap. One link goes down
// at 25 ms, between the first floods' hops, and comes back at 50 ms.
// withVerdict installs a LossFunc beside the DropFunc; omitOne makes it
// leave out the first lost link of every send.
func playQueuingVerdicts(tree *topology.Tree, seed int64, capWindow, withVerdict, omitOne bool) queuingVerdictRun {
	cfg := DefaultConfig()
	cfg.Queuing = !capWindow
	eng := sim.NewEngine()
	net := MustNew(eng, tree, cfg)
	if !capWindow {
		net.SetQueueCap(2)
	}
	log := &orderLog{}
	for id := 0; id < tree.NumNodes(); id++ {
		if node := topology.NodeID(id); tree.IsReceiver(node) || id%3 == 0 {
			net.AttachHost(node, &orderTap{log: log, node: node})
		}
	}
	var run queuingVerdictRun
	net.SetDropFunc(func(p *Packet, link topology.LinkID, down bool) bool {
		m := p.Msg.(lossyMsg)
		if m.known {
			run.knownCalls++
		} else {
			run.unknownCalls++
		}
		return down && slices.Contains(m.lost, link)
	})
	if withVerdict {
		net.SetLossFunc(func(p *Packet) ([]topology.LinkID, bool) {
			m := p.Msg.(lossyMsg)
			if omitOne && len(m.lost) > 0 {
				return m.lost[1:], m.known
			}
			return m.lost, m.known
		})
	}

	rng := rand.New(rand.NewSource(seed))
	receivers := tree.Receivers()
	var routers []topology.NodeID
	for id := 0; id < tree.NumNodes(); id++ {
		if node := topology.NodeID(id); !tree.IsReceiver(node) {
			routers = append(routers, node)
		}
	}
	pick := func(from []topology.NodeID) topology.NodeID { return from[rng.Intn(len(from))] }
	link := func() topology.LinkID { return topology.LinkID(1 + rng.Intn(tree.NumNodes()-1)) }
	ms := func(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }
	if capWindow {
		eng.ScheduleAt(ms(10), func(sim.Time) { net.SetQueueCap(2) })
		eng.ScheduleAt(ms(45), func(sim.Time) { net.SetQueueCap(0) })
	}
	severed := link()
	eng.ScheduleAt(ms(25), func(sim.Time) { net.SetLinkUp(severed, false) })
	eng.ScheduleAt(ms(50), func(sim.Time) { net.SetLinkUp(severed, true) })
	for i := 0; i < 48; i++ {
		at := ms(5 * rng.Intn(12))
		kind, a, b := i%4, pick(receivers), pick(receivers)
		m := lossyMsg{known: rng.Intn(5) != 0}
		pkt := &Packet{Class: Payload}
		switch rng.Intn(4) {
		case 0:
			pkt.Class = Control
		case 1:
			pkt.Class, pkt.Session = Control, kind == 0
		case 2:
			m.data = kind == 0
		}
		// The path's links make unicast losses likely; random ones reach
		// the floods.
		if path := tree.PathLinks(a, b); len(path) > 0 && rng.Intn(2) == 0 {
			m.lost = append(m.lost, path[rng.Intn(len(path))])
		}
		for k := rng.Intn(3); k > 0; k-- {
			m.lost = append(m.lost, link())
		}
		pkt.Msg = m
		router := pick(routers)
		eng.ScheduleAt(at, func(sim.Time) {
			switch kind {
			case 0:
				net.Multicast(a, pkt)
			case 1:
				pkt.From = a
				net.Subcast(router, pkt)
			case 2:
				net.Unicast(a, b, pkt)
			default:
				net.UnicastThenSubcast(a, router, pkt)
			}
		})
	}
	eng.Run()
	run.log, run.counts, run.queueDrops, run.executed = log.events, net.Counts(), net.QueueDrops(), eng.Executed()
	return run
}

// checkQueuingVerdicts is TestFloodVerdictEquivalence for the sends that
// cross links at later instants than they were sent: queuing floods
// (under a static cap, and across a cap window opening and closing
// mid-flood) and unicast legs. A network with a LossFunc must equal one
// with only the DropFunc in delivery order, crossing counters, queue
// drops and engine events, while calling DropFunc on no known send and
// as often as the callback network on unknown ones. A LossFunc that
// omits one lost link must be caught.
func checkQueuingVerdicts(t *testing.T) {
	var total queuingVerdictRun
	for seed := int64(0); seed < 6; seed++ {
		tree := topology.MustGenerate(sim.NewRNG(seed), topology.GenSpec{Receivers: 8 + int(seed)*3, Depth: 3 + int(seed)%3})
		for _, capWindow := range []bool{false, true} {
			where := fmt.Sprintf("seed=%d capWindow=%v", seed, capWindow)
			verdict := playQueuingVerdicts(tree, seed, capWindow, true, false)
			callback := playQueuingVerdicts(tree, seed, capWindow, false, false)
			if d := verdict.diff(callback); d != "" {
				t.Fatalf("%s: the LossFunc network diverges from the DropFunc one: %s", where, d)
			}
			if verdict.knownCalls != 0 {
				t.Fatalf("%s: %d DropFunc calls on known sends beside the LossFunc", where, verdict.knownCalls)
			}
			if verdict.unknownCalls != callback.unknownCalls {
				t.Fatalf("%s: %d DropFunc calls on unknown sends, %d by callback", where, verdict.unknownCalls, callback.unknownCalls)
			}
			if d := playQueuingVerdicts(tree, seed, capWindow, true, true).diff(callback); d == "" {
				t.Fatalf("%s: a LossFunc omitting one lost link went unnoticed", where)
			}
			total.knownCalls += callback.knownCalls
			total.unknownCalls += callback.unknownCalls
			total.queueDrops += callback.queueDrops
			c := &total.counts
			c.Data += callback.counts.Data
			c.Session += callback.counts.Session
			c.PayloadSubcast += callback.counts.PayloadSubcast
			c.PayloadUnicast += callback.counts.PayloadUnicast
			c.ControlUnicast += callback.counts.ControlUnicast
		}
	}
	if c := total.counts; total.knownCalls == 0 || total.unknownCalls == 0 || total.queueDrops == 0 ||
		c.Data == 0 || c.Session == 0 || c.PayloadSubcast == 0 || c.PayloadUnicast == 0 || c.ControlUnicast == 0 {
		t.Fatalf("the scripts left a case unexercised: %+v", total)
	}
}
