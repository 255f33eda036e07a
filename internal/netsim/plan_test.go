package netsim

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// nullHost is a no-op delivery sink for allocation gates: unlike
// recorder it never appends, so a warm flood must be exactly
// allocation-free.
type nullHost struct{}

func (nullHost) Deliver(sim.Time, *Packet) {}

// refFlood is the reference TestFloodPlanReplayIdenticalSchedule pins
// plan replay against: the non-queuing flood written as the plain
// recursive walk it is defined to be, with no flood order, plans or skip
// marks. A visited node first delivers (drawing jitter, then consulting
// the duplicate rule), then checks its links — children in tree order,
// then the parent; per link sever-test → crossing-count → drop-test —
// and then descends into the survivors last-checked first (the order a
// LIFO worklist pops them).
type refFlood struct {
	tree      *topology.Tree
	isHost    func(topology.NodeID) bool
	severed   func(topology.LinkID) bool
	drop      func(link topology.LinkID, down bool) bool
	dup       func(id uint64, at sim.Time) (time.Duration, bool)
	jitter    *sim.RNG
	maxJitter time.Duration
	perHop    time.Duration

	// checks is every counted link crossing, in call order; sched is
	// every delivery in scheduling order (the engine's FIFO tie-break).
	checks []refCheck
	sched  []orderEntry
}

type refCheck struct {
	link topology.LinkID
	down bool
}

func (r *refFlood) visit(node, from, origin topology.NodeID, hops int, downOnly bool, now sim.Time, id uint64) {
	if node != origin && r.isHost(node) {
		at := now.Add(time.Duration(hops)*r.perHop + r.jitter.UniformDuration(0, r.maxJitter))
		r.sched = append(r.sched, orderEntry{node, at, id})
		if extra, dup := r.dup(id, at); dup {
			r.sched = append(r.sched, orderEntry{node, at.Add(extra), id})
		}
	}
	var next []topology.NodeID
	for _, c := range r.tree.Children(node) {
		if c == from || r.severed(c) {
			continue
		}
		r.checks = append(r.checks, refCheck{c, true})
		if !r.drop(c, true) {
			next = append(next, c)
		}
	}
	if p := r.tree.Parent(node); !downOnly && p != topology.None && p != from && !r.severed(node) {
		r.checks = append(r.checks, refCheck{node, false})
		if !r.drop(node, false) {
			next = append(next, p)
		}
	}
	for i := len(next) - 1; i >= 0; i-- {
		r.visit(next[i], node, origin, hops+1, downOnly, now, id)
	}
}

// TestFloodPlanReplayIdenticalSchedule pins plan replay at its
// strongest: with jitter enabled (so every delivery consumes an RNG
// draw) and a duplicate hook installed, replay — with the origin cached
// and on a network whose budget admits nothing — must
// produce exactly the reference walk's cross-host (host, instant)
// delivery order, its link-check sequence with the crossing counter
// advancing once before each drop test, and its duplicate-hook call
// order, across random trees, origins, subcast roots, deterministic
// drops and severed links. Identical instants under jitter can only
// happen if replay draws the RNG in exactly the reference's order.
func TestFloodPlanReplayIdenticalSchedule(t *testing.T) {
	const maxJitter = 3 * time.Millisecond
	dupRule := func(id uint64, at sim.Time) (time.Duration, bool) {
		return time.Duration(id+1) * time.Millisecond, (uint64(at)+id)%3 == 0
	}
	// upDrop and sevLink script one more dropped upward crossing and one
	// more severed link (topology.None for neither), for cutting the
	// origin's own climb where the modular rules happen not to.
	check := func(tree *topology.Tree, seed int64, refuseAll bool, origin topology.NodeID, subcast bool, dropMod, sevMod int, upDrop, sevLink topology.LinkID) {
		t.Helper()
		where := fmt.Sprintf("seed=%d origin=%d subcast=%v drop=%d sev=%d upDrop=%d sevLink=%d refuseAll=%v", seed, origin, subcast, dropMod, sevMod, upDrop, sevLink, refuseAll)
		dropRule := func(link topology.LinkID, down bool) bool {
			if !down && link == upDrop {
				return true
			}
			if dropMod == 0 {
				return false
			}
			k := int(link) * 2
			if down {
				k++
			}
			return k%dropMod == 0
		}
		severed := func(link topology.LinkID) bool {
			return link == sevLink || sevMod > 0 && int(link) >= 1 && (int(link)-1)%sevMod == 0
		}

		eng := sim.NewEngine()
		cfg := DefaultConfig()
		net := MustNew(eng, tree, cfg)
		if refuseAll {
			net.EnableFloodPlans(net.plans.bound - 1)
		}
		net.EnableJitter(sim.NewRNG(42), maxJitter)
		log := &orderLog{}
		for _, r := range tree.Receivers() {
			net.AttachHost(r, &orderTap{log: log, node: r})
		}
		for l := 1; l < tree.NumNodes(); l++ {
			if severed(topology.LinkID(l)) {
				net.SetLinkUp(topology.LinkID(l), false)
			}
		}
		var checks []refCheck
		net.SetDropFunc(func(p *Packet, link topology.LinkID, down bool) bool {
			checks = append(checks, refCheck{link, down})
			// sever → count → drop: the crossing is counted before the
			// drop test and a severed link is never counted, so the k-th
			// drop test sees exactly k crossings.
			if c := net.Counts(); c.PayloadMulticast+c.PayloadSubcast != uint64(len(checks)) {
				t.Fatalf("%s: drop test %d saw %d crossings counted", where, len(checks), c.PayloadMulticast+c.PayloadSubcast)
			}
			return dropRule(link, down)
		})
		var dupCalls []orderEntry
		net.SetDupFunc(func(p *Packet, at sim.Time) (time.Duration, bool) {
			dupCalls = append(dupCalls, orderEntry{0, at, p.ID})
			return dupRule(p.ID, at)
		})

		ref := &refFlood{
			tree:      tree,
			isHost:    tree.IsReceiver,
			severed:   severed,
			drop:      dropRule,
			dup:       dupRule,
			jitter:    sim.NewRNG(42),
			maxJitter: maxJitter,
			perHop:    cfg.LinkDelay + serializeTime(cfg.PayloadBytes, cfg.Bandwidth),
		}
		// Several floods per run: the first compiles (miss), the rest
		// hit (or, refused, miss again and compile nothing), and
		// every flood advances the shared jitter RNG, so any draw-order
		// divergence compounds into later floods.
		for id := uint64(0); id < 3; id++ {
			ref.visit(origin, topology.None, origin, 0, subcast, eng.Now(), id)
			if subcast {
				net.Subcast(origin, &Packet{Class: Payload, From: origin, Msg: reqMsg{}})
			} else {
				net.Multicast(origin, &Packet{Class: Payload, Msg: reqMsg{}})
			}
			eng.Run()
		}

		if len(checks) != len(ref.checks) {
			t.Fatalf("%s: %d link checks, reference %d", where, len(checks), len(ref.checks))
		}
		for i := range checks {
			if checks[i] != ref.checks[i] {
				t.Fatalf("%s: link check %d = %+v, reference %+v", where, i, checks[i], ref.checks[i])
			}
		}
		// The duplicate hook is consulted once per first-copy delivery,
		// in scheduling order.
		var firsts []orderEntry
		for i, e := range ref.sched {
			if i == 0 || ref.sched[i-1].node != e.node || ref.sched[i-1].pkt != e.pkt {
				firsts = append(firsts, orderEntry{0, e.at, e.pkt})
			}
		}
		if len(dupCalls) != len(firsts) {
			t.Fatalf("%s: %d duplicate-hook calls, reference %d", where, len(dupCalls), len(firsts))
		}
		for i := range dupCalls {
			if dupCalls[i] != firsts[i] {
				t.Fatalf("%s: duplicate-hook call %d = %+v, reference %+v", where, i, dupCalls[i], firsts[i])
			}
		}
		// The engine dispatches by instant, FIFO among equals: a stable
		// sort of the scheduling order.
		want := append([]orderEntry(nil), ref.sched...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at.Before(want[j].at) })
		if len(log.events) != len(want) {
			t.Fatalf("%s: %d deliveries, reference %d", where, len(log.events), len(want))
		}
		for i := range want {
			if log.events[i] != want[i] {
				t.Fatalf("%s: delivery %d = %+v, reference %+v", where, i, log.events[i], want[i])
			}
		}
	}

	for seed := int64(0); seed < 6; seed++ {
		spec := topology.GenSpec{Receivers: 8 + int(seed)*3, Depth: 3 + int(seed)%3}
		tree := topology.MustGenerate(sim.NewRNG(seed), spec)
		origins := []topology.NodeID{tree.Root(), tree.Receivers()[tree.NumReceivers()/2]}
		for _, origin := range origins {
			for _, subcast := range []bool{false, true} {
				for _, dropMod := range []int{0, 3} {
					for _, sevMod := range []int{0, 5} {
						for _, refuseAll := range []bool{false, true} {
							check(tree, seed, refuseAll, origin, subcast, dropMod, sevMod, topology.None, topology.None)
						}
					}
				}
			}
		}
		// The climb cut at each of its links in turn, dropped and severed,
		// alone and on top of the modular drops below it.
		origin := origins[1]
		for link := origin; link != tree.Root(); link = tree.Parent(link) {
			for _, dropMod := range []int{0, 3} {
				check(tree, seed, false, origin, false, dropMod, 0, link, topology.None)
				check(tree, seed, false, origin, false, dropMod, 0, topology.None, link)
			}
		}
	}
}

// TestFloodScanMatchesTour checks replayPlan's scan of the tree's one
// flood order against the per-origin oracle it replaced,
// topology.FloodTour, with a host on every node: the link checks must be
// the tour's ops in the tour's order, and the deliveries the tour's
// entries at the tour's hops, scheduled in pop order (a duplicate hook
// that never duplicates forces one event per host). Chains, stars and
// generated trees from 3 to 1,325 nodes; every node is an origin on all
// but the largest, where the root, interior routers and leaves are
// sampled (topology's own test walks every origin of it).
func TestFloodScanMatchesTour(t *testing.T) {
	trees := []*topology.Tree{testTree(t)}
	for _, n := range []int{3, 4, 9} {
		chain, star := make([]topology.NodeID, n), make([]topology.NodeID, n)
		for i := range chain {
			chain[i], star[i] = topology.NodeID(i-1), 0
		}
		star[0] = topology.None
		trees = append(trees, topology.MustNew(chain), topology.MustNew(star))
	}
	for _, spec := range []topology.GenSpec{{Receivers: 13, Depth: 4}, {Receivers: 120, Depth: 9}, {Receivers: 1024, Depth: 7}} {
		trees = append(trees, topology.MustGenerate(sim.NewRNG(int64(spec.Receivers)), spec))
	}
	for _, tree := range trees {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		net := MustNew(eng, tree, cfg)
		log := &orderLog{}
		for id := topology.NodeID(0); int(id) < tree.NumNodes(); id++ {
			net.AttachHost(id, &orderTap{log: log, node: id})
		}
		var checks []refCheck
		net.SetDropFunc(func(_ *Packet, link topology.LinkID, down bool) bool {
			checks = append(checks, refCheck{link, down})
			return false
		})
		var scheduled []sim.Time
		net.SetDupFunc(func(_ *Packet, at sim.Time) (time.Duration, bool) {
			scheduled = append(scheduled, at)
			return 0, false
		})
		for origin := topology.NodeID(0); int(origin) < tree.NumNodes(); origin++ {
			if tree.NumNodes() > 200 && origin >= 8 && origin%41 != 0 {
				continue // past the root and the backbone routers, sample
			}
			for _, subcast := range []bool{false, true} {
				where := fmt.Sprintf("%v origin=%d subcast=%v", tree, origin, subcast)
				checks, scheduled, log.events = checks[:0], scheduled[:0], log.events[:0]
				sent := eng.Now()
				if subcast {
					net.Subcast(origin, &Packet{Class: Control, From: origin, Msg: reqMsg{}})
				} else {
					net.Multicast(origin, &Packet{Class: Control, Msg: reqMsg{}})
				}
				eng.Run()
				tour := tree.FloodTour(origin, subcast)
				if len(checks) != len(tour.Ops) {
					t.Fatalf("%s: %d link checks, tour has %d ops", where, len(checks), len(tour.Ops))
				}
				for i, op := range tour.Ops {
					if checks[i] != (refCheck{op.Link, op.Down}) {
						t.Fatalf("%s: link check %d = %+v, tour op %+v", where, i, checks[i], op)
					}
				}
				reached := tour.Entries[1:]
				if len(scheduled) != len(reached) || len(log.events) != len(reached) {
					t.Fatalf("%s: %d deliveries scheduled, %d made, tour reaches %d nodes", where, len(scheduled), len(log.events), len(reached))
				}
				for i, e := range reached {
					if want := sent.Add(time.Duration(e.Hops) * cfg.LinkDelay); scheduled[i] != want {
						t.Fatalf("%s: pop %d scheduled for %v, tour entry %+v is due at %v", where, i+1, scheduled[i], e, want)
					}
				}
				// The engine dispatches by instant, FIFO among equals.
				byHop := slices.Clone(reached)
				slices.SortStableFunc(byHop, func(a, b topology.TourEntry) int { return int(a.Hops - b.Hops) })
				for i, e := range byHop {
					if got := log.events[i]; got.node != e.Node || got.at != sent.Add(time.Duration(e.Hops)*cfg.LinkDelay) {
						t.Fatalf("%s: delivery %d = %+v, tour entry %+v", where, i, got, e)
					}
				}
			}
		}
	}
}

// TestFloodPlanCacheCounters pins the hit/miss accounting: first flood
// from an origin compiles (miss), subsequent floods replay (hits), and
// multicast vs subcast from the same origin are distinct plans.
func TestFloodPlanCacheCounters(t *testing.T) {
	eng := sim.NewEngine()
	tree := topology.MustGenerate(sim.NewRNG(1), topology.GenSpec{Receivers: 10, Depth: 4})
	net := MustNew(eng, tree, DefaultConfig())
	net.EnableFloodPlans(0)
	for _, r := range tree.Receivers() {
		net.AttachHost(r, nullHost{})
	}
	root := tree.Root()
	for i := 0; i < 3; i++ {
		net.Multicast(root, &Packet{Class: Payload, Msg: dataMsg{}})
		eng.Run()
	}
	if s := net.PlanStats(); s.Misses != 1 || s.Hits != 2 || s.Evictions != 0 {
		t.Fatalf("after 3 multicasts: stats = %+v, want 1 miss 2 hits", s)
	}
	// A subcast from the same origin is a different plan key.
	net.Subcast(root, &Packet{Class: Payload, From: root, Msg: reqMsg{}})
	eng.Run()
	if s := net.PlanStats(); s.Misses != 2 || s.Hits != 2 {
		t.Fatalf("after subcast: stats = %+v, want 2 misses 2 hits", s)
	}
}

// TestFloodPlanCacheAppendOnly pins the append-only rule with a budget
// that fits exactly one plan: the first origin compiles; a second origin
// is refused on every flood and never displaces it; AttachHost purges
// the plan as one eviction, the next miss compiles again, and a budget
// cut purges it as well.
func TestFloodPlanCacheAppendOnly(t *testing.T) {
	eng := sim.NewEngine()
	tree := topology.MustGenerate(sim.NewRNG(2), topology.GenSpec{Receivers: 8, Depth: 3})
	net := MustNew(eng, tree, DefaultConfig())
	net.EnableFloodPlans(net.plans.bound) // exactly one full plan
	rs := tree.Receivers()
	for _, r := range rs[1:] {
		net.AttachHost(r, nullHost{})
	}
	a, b := tree.Root(), rs[1]
	cast := func(origin topology.NodeID) {
		net.Multicast(origin, &Packet{Class: Payload, Msg: dataMsg{}})
		eng.Run()
	}
	cast(a) // miss, cache empty: compiled and kept
	for i := 0; i < 4; i++ {
		cast(b) // miss, no room: refused, however often it recurs
	}
	cast(a) // still there
	if s := net.PlanStats(); s != (PlanStats{Hits: 1, Misses: 5, Refused: 4}) {
		t.Fatalf("after repeated misses of a second origin: stats = %+v, want 1 hit, 5 misses, 4 of them refused, 0 evictions", s)
	}
	net.AttachHost(rs[0], nullHost{})
	if s := net.PlanStats(); s.Evictions != 1 || net.plans.used != 0 {
		t.Fatalf("after AttachHost: stats = %+v with %d int32s held, want 1 eviction and an empty cache", s, net.plans.used)
	}
	cast(b) // the room is back: compiled
	cast(b)
	if s := net.PlanStats(); s != (PlanStats{Hits: 2, Misses: 6, Refused: 4, Evictions: 1}) {
		t.Fatalf("after the purge: stats = %+v, want the next miss compiled and hit", s)
	}
	net.EnableFloodPlans(net.plans.bound - 1) // a budget cut purges too
	if s := net.PlanStats(); s.Evictions != 2 || net.plans.used != 0 {
		t.Fatalf("after a budget cut: stats = %+v with %d int32s held, want 2 evictions and an empty cache", s, net.plans.used)
	}
}

// TestFloodPlansOfWideGroupStayResident pins the budget's denomination:
// one flood from every host of a 1,024-receiver tree (the benchmark's
// cache_overflow group) compiles every origin once and, at the default
// budget, keeps them all — in under 5 MB of cached cohorts.
func TestFloodPlansOfWideGroupStayResident(t *testing.T) {
	eng := sim.NewEngine()
	tree := topology.MustGenerate(sim.NewRNG(1), topology.GenSpec{Receivers: 1024, Depth: 7})
	net := MustNew(eng, tree, DefaultConfig())
	hosts := append([]topology.NodeID{tree.Root()}, tree.Receivers()...)
	for _, h := range hosts {
		net.AttachHost(h, nullHost{})
	}
	for _, h := range hosts {
		net.Multicast(h, &Packet{Class: Control, Msg: reqMsg{}})
		eng.Run()
	}
	resident := 0
	for _, pl := range net.plans.slots {
		if pl.buf != nil {
			resident++
		}
	}
	want := PlanStats{Misses: uint64(len(hosts))}
	if s := net.PlanStats(); s != want || resident != len(hosts) {
		t.Fatalf("stats = %+v with %d plans resident, want %+v and %d", s, resident, want, len(hosts))
	}
	if mb := float64(net.plans.used) * 4 / (1 << 20); mb > 5 {
		t.Fatalf("%d origins hold %.1f MB of cohorts, want at most 5", len(hosts), mb)
	}
}

// TestFloodPlanTooLargeNeverCached: a budget below the plan-size bound can
// never hold a plan; every flood is refused, scans and still delivers.
func TestFloodPlanTooLargeNeverCached(t *testing.T) {
	eng := sim.NewEngine()
	tree := topology.MustGenerate(sim.NewRNG(3), topology.GenSpec{Receivers: 8, Depth: 3})
	net := MustNew(eng, tree, DefaultConfig())
	net.EnableFloodPlans(net.plans.bound - 1)
	rec := &recorder{}
	net.AttachHost(tree.Receivers()[0], rec)
	for i := 0; i < 4; i++ {
		net.Multicast(tree.Root(), &Packet{Class: Payload, Msg: dataMsg{}})
		eng.Run()
	}
	if s := net.PlanStats(); s != (PlanStats{Misses: 4, Refused: 4}) {
		t.Fatalf("stats = %+v, want pure refused misses", s)
	}
	if len(rec.got) != 4 {
		t.Fatalf("refused floods delivered %d packets, want 4", len(rec.got))
	}
}

// TestFloodPlanAttachHostInvalidates: host flags and hop cohorts are
// baked into plans, so attaching a host after a plan is cached must
// purge and recompile — the new host is in the recompiled cohorts and
// receives subsequent floods — while a flood already in flight keeps
// the cohorts it was sent with.
func TestFloodPlanAttachHostInvalidates(t *testing.T) {
	eng := sim.NewEngine()
	tree := topology.MustGenerate(sim.NewRNG(4), topology.GenSpec{Receivers: 6, Depth: 3})
	net := MustNew(eng, tree, DefaultConfig())
	net.EnableFloodPlans(0)
	rs := tree.Receivers()
	early := &recorder{}
	net.AttachHost(rs[0], early)
	net.Multicast(tree.Root(), &Packet{Class: Payload, Msg: dataMsg{}})
	eng.Run()
	cohortOf := func() []int32 {
		pl := net.plans.slots[planKey(tree.Root(), false)]
		return pl.buf[:pl.hosts]
	}
	if got := cohortOf(); len(got) != 1 || got[0] != int32(rs[0]) {
		t.Fatalf("compiled cohorts = %v, want only host %d", got, rs[0])
	}
	// In flight across the attach: sent to the old host set.
	net.Multicast(tree.Root(), &Packet{Class: Payload, Msg: dataMsg{}})
	late := &recorder{}
	net.AttachHost(rs[1], late)
	eng.Run()
	if len(early.got) != 2 || len(late.got) != 0 {
		t.Fatalf("flood in flight across AttachHost: early host got %d (want 2), late host got %d (want 0)", len(early.got), len(late.got))
	}
	net.Multicast(tree.Root(), &Packet{Class: Payload, Msg: dataMsg{}})
	eng.Run()
	if len(late.got) != 1 {
		t.Fatalf("late-attached host got %d deliveries, want 1 (stale plan?)", len(late.got))
	}
	if got := cohortOf(); len(got) != 2 || !slices.Contains(got, int32(rs[1])) {
		t.Fatalf("recompiled cohorts = %v, want hosts %d and %d", got, rs[0], rs[1])
	}
	if s := net.PlanStats(); s.Evictions != 1 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want invalidation counted as 1 eviction and a recompile miss", s)
	}
}

// TestFloodPlanAllocationFree: with no-op hosts a warm cached flood
// performs zero heap allocations on each of replayPlan's bodies — the
// precompiled cohorts of a lossless flood, the scan with a known lost
// set, and the scan asking DropFunc per link — and a lossless flood is
// exactly one engine event per occupied hop distance, on the paper-sized
// tree and on a 1000-receiver one. Each body's flood is one engine record
// and one pooled flood event, whatever its cohort count. Compiling an
// origin's cohorts is one allocation.
func TestFloodPlanAllocationFree(t *testing.T) {
	for _, receivers := range []int{15, 1000} {
		eng := sim.NewEngine()
		tree := topology.MustGenerate(sim.NewRNG(1), topology.GenSpec{Receivers: receivers, Depth: 5 + receivers/300})
		net := MustNew(eng, tree, DefaultConfig())
		net.EnableFloodPlans(0)
		for _, r := range tree.Receivers() {
			net.AttachHost(r, nullHost{})
		}
		hopDistances := map[int]bool{}
		for _, r := range tree.Receivers() {
			hopDistances[tree.HopCount(tree.Root(), r)] = true
		}
		lost := []topology.LinkID{tree.Receivers()[0]}
		dropCalls := 0
		net.SetDropFunc(func(_ *Packet, link topology.LinkID, down bool) bool {
			dropCalls++
			return down && link == lost[0]
		})
		pkt := &Packet{Class: Payload, Msg: dataMsg{}}
		verdicts := []struct {
			name string
			loss LossFunc
		}{
			{"lossless-cohorts", func(*Packet) ([]topology.LinkID, bool) { return nil, true }},
			{"lossy-scan", func(*Packet) ([]topology.LinkID, bool) { return lost, true }},
			{"callback", nil},
		}
		for _, v := range verdicts {
			net.SetLossFunc(v.loss)
			flood := func() {
				net.Multicast(tree.Root(), pkt)
				eng.Run()
			}
			for i := 0; i < 8; i++ {
				flood()
			}
			before, calls := eng.Executed(), dropCalls
			if avg := testing.AllocsPerRun(50, flood); avg != 0 {
				t.Fatalf("receivers=%d %s: plan replay allocates %.1f objects per flood, want 0", receivers, v.name, avg)
			}
			if v.loss != nil && dropCalls != calls {
				t.Fatalf("receivers=%d %s: %d DropFunc calls on known floods", receivers, v.name, dropCalls-calls)
			}
			if v.name == "lossless-cohorts" {
				// AllocsPerRun runs the function once more to warm up.
				if got, want := eng.Executed()-before, uint64(51*len(hopDistances)); got != want {
					t.Fatalf("receivers=%d: 51 lossless floods executed %d events, want one per occupied hop distance (%d each)", receivers, got, len(hopDistances))
				}
			}
			net.Multicast(tree.Root(), pkt)
			if got := eng.Pending(); got != 1 {
				t.Fatalf("receivers=%d %s: a flood of %d cohorts holds %d engine records, want 1", receivers, v.name, len(hopDistances), got)
			}
			eng.Run()
			if got := net.FloodEvents(); got != 1 {
				t.Fatalf("receivers=%d %s: floods one at a time made %d pooled flood events, want 1", receivers, v.name, got)
			}
		}
		if avg := testing.AllocsPerRun(20, func() { net.compileCohorts(tree.Receivers()[0], false) }); avg != 1 {
			t.Fatalf("receivers=%d: compiling a plan's cohorts allocates %.1f objects, want 1", receivers, avg)
		}
	}
}

// BenchmarkFloodPlan measures a warm flood end to end (replay + engine
// dispatch of the deliveries) on a ~40-node tree and a ~1000-node one, on
// each of replayPlan's bodies: "lossless-cohorts", a known-lossless flood
// replayed from the plan's precompiled cohorts; "lossy-scan", a known
// lost link tested inline by the scan; "callback", the scan asking
// DropFunc per link; and "refused", a lossless flood on a network whose
// budget admits nothing, which scans.
func BenchmarkFloodPlan(b *testing.B) {
	for _, spec := range []topology.GenSpec{{Receivers: 26, Depth: 5}, {Receivers: 766, Depth: 7}} {
		tree := topology.MustGenerate(sim.NewRNG(1), spec)
		lost := []topology.LinkID{tree.Receivers()[0]}
		for _, variant := range []string{"lossless-cohorts", "lossy-scan", "callback", "refused"} {
			b.Run(fmt.Sprintf("nodes=%d/%s", tree.NumNodes(), variant), func(b *testing.B) {
				eng := sim.NewEngine()
				net := MustNew(eng, tree, DefaultConfig())
				for _, r := range tree.Receivers() {
					net.AttachHost(r, nullHost{})
				}
				net.SetDropFunc(func(_ *Packet, link topology.LinkID, down bool) bool {
					return down && link == lost[0]
				})
				switch variant {
				case "refused":
					net.EnableFloodPlans(net.plans.bound - 1)
					fallthrough
				case "lossless-cohorts":
					net.SetLossFunc(func(*Packet) ([]topology.LinkID, bool) { return nil, true })
				case "lossy-scan":
					net.SetLossFunc(func(*Packet) ([]topology.LinkID, bool) { return lost, true })
				}
				pkt := &Packet{Class: Payload, Msg: dataMsg{}}
				net.Multicast(tree.Root(), pkt)
				eng.Run()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.Multicast(tree.Root(), pkt)
					eng.Run()
				}
			})
		}
	}
}

// BenchmarkHostLookup pins the satellite win of replacing the
// per-delivery map probe with a dense NodeID-indexed slice: the two
// sub-benchmarks perform the identical mixed hit/miss lookup sweep a
// flood's delivery loop performs.
func BenchmarkHostLookup(b *testing.B) {
	tree := topology.MustGenerate(sim.NewRNG(1), topology.GenSpec{Receivers: 1000, Depth: 8})
	m := make(map[topology.NodeID]Host, tree.NumReceivers())
	dense := make([]Host, tree.NumNodes())
	for _, r := range tree.Receivers() {
		m[r] = nullHost{}
		dense[r] = nullHost{}
	}
	n := tree.NumNodes()
	b.Run("map", func(b *testing.B) {
		hit := 0
		for i := 0; i < b.N; i++ {
			if h, ok := m[topology.NodeID(i%n)]; ok && h != nil {
				hit++
			}
		}
		sinkInt = hit
	})
	b.Run("dense", func(b *testing.B) {
		hit := 0
		for i := 0; i < b.N; i++ {
			if h := dense[topology.NodeID(i%n)]; h != nil {
				hit++
			}
		}
		sinkInt = hit
	})
}

// sinkInt defeats dead-code elimination in benchmarks.
var sinkInt int
