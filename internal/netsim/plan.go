// Flood plans: the per-origin compiled fan-out every non-queuing flood
// replays. A plan pairs a topology.Tour — the flattened Euler-tour of a
// LIFO depth-first flood from one origin — with the host flag of every
// visited entry. Replaying the plan performs the deliveries, the sever →
// count → drop call sequence per link, and the jitter/drop/duplicate RNG
// draws in exactly the order that walk would; see topology/tour.go for
// the order-preservation argument and DESIGN.md §14 for the full design.
//
// Plans are compiled lazily on first use and held in a size-capped LRU
// keyed by (origin, downOnly). The cap is a total entry budget across
// all cached plans, bounding worst-case cache heap at roughly
// budget × ~44 bytes regardless of tree size or origin diversity. An
// origin the cache refuses is compiled into one reused scratch plan and
// replayed from there — same path, nothing inserted, no garbage.
// Admission under pressure is scan-resistant (an origin must re-miss
// within a recency window before it may evict residents), so a one-shot
// sweep over many origins — the session-message round-robin at SYN10K
// scale — never thrashes the resident working set.
package netsim

import (
	"container/list"
	"slices"
	"time"

	"cesrm/internal/topology"
)

// DefaultFloodPlanEntries is the default total-entry budget of the flood
// plan cache: 1<<20 entries is ~44 MB of worst-case cache heap, enough
// to hold every (origin, downOnly) plan of every catalog trace while
// keeping the 10k-receiver SYN10K stress entry to a bounded working set.
const DefaultFloodPlanEntries = 1 << 20

// PlanStats is a snapshot of the flood plan cache counters.
type PlanStats struct {
	// Hits counts floods replayed from a cached plan.
	Hits uint64
	// Misses counts floods that found no cached plan; a miss compiles
	// the plan, and caches it when the budget and admission policy
	// allow.
	Misses uint64
	// Evictions counts plans removed to make room (plus plans discarded
	// by a cache invalidation, e.g. a post-setup AttachHost).
	Evictions uint64
}

// Add accumulates other into s (for aggregating across runs).
func (s *PlanStats) Add(other PlanStats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
}

// floodPlan is one cached fan-out: the topology tour plus the baked
// per-entry host flags (which is why AttachHost invalidates the cache).
type floodPlan struct {
	key  int64
	tour topology.Tour
	host []bool
	// cohort and hopEnd are the flood's outcome when nothing obstructs
	// it: the hosting nodes bucketed by hop distance, pop order within a
	// hop — hop h's cohort is cohort[hopEnd[h-1]:hopEnd[h]], and
	// hopEnd[0] is 0 because the origin is never delivered to. In-flight
	// cohort events point into cohort, so both are written once, by
	// compileCohorts on a plan entering the cache, and never again; the
	// scratch plan is rewritten by the next refusal and has none (hopEnd
	// nil).
	cohort, hopEnd []int32
}

// planCache is the size-capped LRU of compiled flood plans.
type planCache struct {
	// byKey finds a plan's element in lru, whose values are *floodPlan,
	// most recently used at the front.
	byKey map[int64]*list.Element
	lru   list.List
	// budget and used count tour entries, not plans: the unit that
	// actually bounds heap.
	budget, used int
	stats        PlanStats
	// builder compiles every miss; scratch is the plan a refused origin
	// is compiled into, its slices reused from one refusal to the next.
	builder topology.TourBuilder
	scratch floodPlan
	// lastMiss and tick implement scan-resistant admission: lastMiss[k]
	// is the miss tick at which plan key k last failed a lookup. When
	// inserting would evict, the key must have re-missed within the
	// admission window to be admitted.
	lastMiss []int64
	tick     int64
}

// newPlanCache returns an empty cache at the default budget.
func newPlanCache(tree *topology.Tree) planCache {
	return planCache{
		byKey:    make(map[int64]*list.Element),
		budget:   DefaultFloodPlanEntries,
		lastMiss: make([]int64, 2*tree.NumNodes()),
	}
}

// planKey encodes (origin, downOnly): full floods and subcasts from the
// same node are distinct plans.
func planKey(origin topology.NodeID, downOnly bool) int64 {
	k := int64(origin) << 1
	if downOnly {
		k |= 1
	}
	return k
}

// EnableFloodPlans sets the plan cache's total entry budget (<= 0
// selects DefaultFloodPlanEntries, New's default), evicting down to it.
// The budget only decides how many floods recompile their plan, so
// fingerprints are byte-identical at any value. The queuing flood path
// ignores plans entirely and remains the conformance oracle.
func (n *Network) EnableFloodPlans(budgetEntries int) {
	if budgetEntries <= 0 {
		budgetEntries = DefaultFloodPlanEntries
	}
	c := &n.plans
	c.budget = budgetEntries
	for c.used > c.budget {
		c.evictLRU()
	}
}

// PlanStats returns a snapshot of the plan cache counters.
func (n *Network) PlanStats() PlanStats { return n.plans.stats }

// invalidatePlans discards every cached plan (host flags are baked into
// plans, so AttachHost after the first flood must purge). Counted as
// evictions.
func (n *Network) invalidatePlans() {
	c := &n.plans
	if len(c.byKey) == 0 {
		return
	}
	c.stats.Evictions += uint64(len(c.byKey))
	clear(c.byKey)
	c.lru.Init()
	c.used = 0
}

// evictLRU removes the least recently used plan.
func (c *planCache) evictLRU() {
	pl := c.lru.Remove(c.lru.Back()).(*floodPlan)
	delete(c.byKey, pl.key)
	c.used -= len(pl.tour.Entries)
	c.stats.Evictions++
}

// planFor returns the plan for (origin, downOnly): the cached one, or
// on a miss a freshly compiled one — inserted when budget and admission
// policy allow, otherwise the scratch plan, valid until the next miss.
func (n *Network) planFor(origin topology.NodeID, downOnly bool) *floodPlan {
	c := &n.plans
	key := planKey(origin, downOnly)
	if el := c.byKey[key]; el != nil {
		c.stats.Hits++
		c.lru.MoveToFront(el)
		return el.Value.(*floodPlan)
	}
	c.stats.Misses++
	c.tick++
	// Admission is decided before compiling, using the tree size as the
	// plan-size bound, so a refused origin never allocates a plan.
	bound := n.tree.NumNodes()
	if bound > c.budget {
		// A full plan could exceed the whole budget: never cache.
		return n.compilePlan(&c.scratch, origin, downOnly)
	}
	if c.used+bound > c.budget {
		// Inserting may evict residents. Scan resistance: only an origin
		// that missed again within the recency window may displace them;
		// a one-shot sweep over many origins (session round-robin on a
		// huge tree) keeps missing outside the window and never evicts
		// the hot set. The window scales with the resident plan count so
		// a hot set slightly larger than the cache still rotates in.
		last := c.lastMiss[key]
		c.lastMiss[key] = c.tick
		window := int64(4*len(c.byKey)) + 64
		if last == 0 || c.tick-last > window {
			return n.compilePlan(&c.scratch, origin, downOnly)
		}
	}
	pl := n.compilePlan(&floodPlan{key: key}, origin, downOnly)
	pl.compileCohorts()
	for c.used+len(pl.tour.Entries) > c.budget {
		c.evictLRU()
	}
	c.byKey[key] = c.lru.PushFront(pl)
	c.used += len(pl.tour.Entries)
	return pl
}

// compilePlan builds the plan into pl, reusing its slices: the
// pure-topology tour plus the host flags at compile time.
func (n *Network) compilePlan(pl *floodPlan, origin topology.NodeID, downOnly bool) *floodPlan {
	n.plans.builder.Build(n.tree, origin, downOnly, &pl.tour)
	pl.host = slices.Grow(pl.host[:0], len(pl.tour.Entries))[:len(pl.tour.Entries)]
	for i := range pl.tour.Entries {
		pl.host[i] = n.hostAt[pl.tour.Entries[i].Node] != nil
	}
	return pl
}

// compileCohorts bakes the unobstructed outcome into a plan that is about
// to be cached: one stable counting sort of the hosting entries by hop,
// into one allocation that holds the cohorts and then their end offsets.
func (pl *floodPlan) compileCohorts() {
	entries := pl.tour.Entries
	hosts, maxHop := 0, int32(0)
	for i := 1; i < len(entries); i++ {
		if pl.host[i] {
			hosts++
		}
		maxHop = max(maxHop, entries[i].Hops)
	}
	buf := make([]int32, hosts+int(maxHop)+1)
	cohort, hopEnd := buf[:hosts:hosts], buf[hosts:]
	for i := 1; i < len(entries); i++ {
		if pl.host[i] {
			hopEnd[entries[i].Hops]++
		}
	}
	// Counts become start offsets, which the placement pass advances to
	// end offsets.
	sum := int32(0)
	for h, c := range hopEnd {
		hopEnd[h] = sum
		sum += c
	}
	for i := 1; i < len(entries); i++ {
		if pl.host[i] {
			h := entries[i].Hops
			cohort[hopEnd[h]] = int32(entries[i].Node)
			hopEnd[h]++
		}
	}
	pl.cohort, pl.hopEnd = cohort, hopEnd
}

// replayPlan is the non-queuing flood. The loss verdict is taken once,
// up front: a LossFunc that knows p's lost links (or no drop hook at
// all) replaces every per-link DropFunc call with a membership test.
//
// When the verdict is "nothing lost", no link is down, deliveries group
// and the plan carries compiled cohorts, the outcome is a pure function
// of the plan: every op is a crossing and every cohort is delivered, so
// the flood is one counter add and one event per occupied hop distance,
// each pointing at the plan's own slice. Ascending hop order is the
// order flushGroups schedules the groups the scan below would have
// assembled — no group is scheduled before the flush — so the events
// take the same engine sequence numbers.
//
// Otherwise the flood is a linear scan of the plan's pop-order entries,
// each delivering (when hosting) and then running its link checks —
// children in tree order, then the parent; per link sever-test →
// crossing-count → drop-test — with a severed or dropped link marking
// the neighbor's region start so the scan jumps its whole span. That
// order is load-bearing: it fixes the jitter/drop RNG draw order and the
// FIFO tie-break sequence of the scheduled deliveries (hop-cohort groups
// or per-host events, see canGroupDeliveries), and is the LIFO
// depth-first order every pinned fingerprint was produced by
// (region-contiguity argument in topology/tour.go). Deliveries fire
// later, from scheduled events, so the scratch state is never
// re-entered; allocation-free once skipMark fits the largest plan.
func (n *Network) replayPlan(pl *floodPlan, p *Packet) {
	entries, ops := pl.tour.Entries, pl.tour.Ops
	crossings := n.counterFor(p)
	var lost []topology.LinkID
	known := n.drop == nil
	if n.loss != nil {
		lost, known = n.loss(p)
	}
	perHop := n.cfg.LinkDelay + n.txTime(p)
	now := n.eng.Now()
	grouped := n.canGroupDeliveries(perHop)
	if known && len(lost) == 0 && grouped && pl.hopEnd != nil && n.downLinks == 0 {
		*crossings += uint64(len(ops))
		start := int32(0)
		for h, end := range pl.hopEnd {
			if end == start {
				continue
			}
			g := n.newGroup(p)
			g.nodes = pl.cohort[start:end]
			n.eng.ScheduleHandlerAt(now.Add(time.Duration(h)*perHop), g)
			start = end
		}
		return
	}
	if len(n.skipMark) < len(entries) {
		n.skipMark = make([]uint64, len(entries))
	}
	mark := n.skipMark
	n.skipGen++
	gen := n.skipGen
	if grouped {
		n.gNow, n.gPerHop, n.gPkt = now, perHop, p
	}
	for i := 0; i < len(entries); {
		if mark[i] == gen {
			i += int(entries[i].Span)
			continue
		}
		e := &entries[i]
		if i > 0 && pl.host[i] {
			if grouped {
				n.groupDeliver(e.Node, int(e.Hops))
			} else {
				n.scheduleDelivery(now.Add(time.Duration(e.Hops)*perHop+n.jitter()), n.hostAt[e.Node], p)
			}
		}
		opStart := int32(0)
		if i > 0 {
			opStart = entries[i-1].OpsEnd
		}
		for j := opStart; j < e.OpsEnd; j++ {
			op := &ops[j]
			if n.linkSevered(op.Link) {
				mark[op.Region] = gen
				continue
			}
			*crossings++
			var dropped bool
			if known {
				dropped = op.Down && slices.Contains(lost, op.Link)
			} else {
				dropped = n.drop != nil && n.drop(p, op.Link, op.Down)
			}
			if dropped {
				mark[op.Region] = gen
			}
		}
		i++
	}
	if grouped {
		n.flushGroups()
	}
}
