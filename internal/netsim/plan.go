// Flood plans: what every non-queuing flood replays. The traversal is
// not per origin — the tree has one flood order (topology.FloodOrder) and
// replayPlan scans a flood from any origin straight out of it. What is
// per origin, and cached, is the flood's unobstructed outcome: the
// hosting nodes bucketed by hop distance, compiled on first use and kept
// in an append-only table keyed by (origin, downOnly) and capped in
// stored int32s, so cache heap is bounded whatever the tree size or
// origin diversity. A miss compiles only while the plan-size bound still
// fits the budget; otherwise it is refused, compiles nothing and scans.
// The tree is static (§4.3), so nothing is evicted: a plan stays until
// AttachHost or a budget cut purges every plan. DESIGN.md §14.
package netsim

import (
	"slices"
	"time"

	"cesrm/internal/topology"
)

// DefaultFloodPlanEntries is the default plan cache budget in stored
// int32s: 32 MiB at worst, four times what every origin of a 1,024-receiver
// group needs, and a bound on the SYN10K stress entry.
const DefaultFloodPlanEntries = 1 << 23

// PlanStats is a snapshot of the flood plan cache counters.
type PlanStats struct {
	// Hits counts floods that found their plan cached, Misses those that
	// did not; a miss compiles and keeps the plan while the budget has
	// room for the largest plan of the tree.
	Hits, Misses uint64
	// Refused counts the misses without that room: floods served by the
	// scan with nothing compiled. A subset of Misses.
	Refused uint64
	// Evictions counts plans discarded by a purge: a post-setup
	// AttachHost or a budget cut. Nothing else removes a plan.
	Evictions uint64
}

// floodPlan is one plan key's slot in the cache.
type floodPlan struct {
	// buf is the flood's outcome when nothing obstructs it, nil while the
	// plan is not compiled: buf[:hosts] is the hosting nodes bucketed by
	// hop distance, pop order within a hop, and buf[hosts:] each hop's end
	// offset in it (hop 0's is 0: the origin is never delivered to). Host
	// flags are baked in, hence AttachHost's purge. In-flight floods point
	// into buf: it is never rewritten, a purge drops the reference.
	buf   []int32
	hosts int32
}

// planCache is the append-only, size-capped table of compiled flood
// plans.
type planCache struct {
	// slots is dense on planKey.
	slots []floodPlan
	// budget and used count stored int32s, the unit that bounds heap, and
	// bound is the most one plan of this tree can store (every node
	// hosting, deepest leaf to deepest leaf). Every plan stores at least
	// one, so used is 0 exactly when no plan is held.
	budget, used, bound int
	stats               PlanStats
}

// newPlanCache returns an empty cache at the default budget.
func newPlanCache(tree *topology.Tree) planCache {
	return planCache{slots: make([]floodPlan, 2*tree.NumNodes()), budget: DefaultFloodPlanEntries, bound: tree.NumNodes() + 2*tree.MaxDepth()}
}

// planKey encodes (origin, downOnly): full floods and subcasts from the
// same node are distinct plans.
func planKey(origin topology.NodeID, downOnly bool) int32 {
	if downOnly {
		return int32(origin)<<1 | 1
	}
	return int32(origin) << 1
}

// EnableFloodPlans sets the plan cache's budget in stored int32s (<= 0
// selects DefaultFloodPlanEntries, New's default); a cut purges every
// plan. The budget only decides how many floods find their cohorts
// compiled, so fingerprints are byte-identical at any value.
func (n *Network) EnableFloodPlans(budgetEntries int) {
	if budgetEntries <= 0 {
		budgetEntries = DefaultFloodPlanEntries
	}
	if budgetEntries < n.plans.budget {
		n.plans.purge()
	}
	n.plans.budget = budgetEntries
}

// PlanStats returns a snapshot of the plan cache counters.
func (n *Network) PlanStats() PlanStats { return n.plans.stats }

// purge drops every plan, each counted as an eviction.
func (c *planCache) purge() {
	if c.used == 0 {
		return
	}
	for i := range c.slots {
		if c.slots[i].buf != nil {
			c.slots[i] = floodPlan{}
			c.stats.Evictions++
		}
	}
	c.used = 0
}

// cohortsFor returns the compiled cohorts for (origin, downOnly) and their
// host count: cached, or on a miss freshly compiled and kept when the
// budget has room, otherwise nil — the flood takes the scan.
func (n *Network) cohortsFor(origin topology.NodeID, downOnly bool) ([]int32, int32) {
	c := &n.plans
	pl := &c.slots[planKey(origin, downOnly)]
	if pl.buf != nil {
		c.stats.Hits++
		return pl.buf, pl.hosts
	}
	c.stats.Misses++
	// Admission is decided before compiling, on the plan-size bound, so a
	// refused origin never allocates and used never passes the budget.
	if c.used+c.bound > c.budget {
		c.stats.Refused++
		return nil, 0
	}
	pl.buf, pl.hosts = n.compileCohorts(origin, downOnly)
	c.used += len(pl.buf)
	return pl.buf, pl.hosts
}

// compileCohorts bakes the unobstructed outcome of a flood into one
// allocation, assembled as the scan assembles its cohorts.
func (n *Network) compileCohorts(origin topology.NodeID, downOnly bool) (buf []int32, hosts int32) {
	entries := n.tree.FloodOrder().Entries
	n.tree.WalkFlood(origin, downOnly, func(i, hops int32) {
		if node := entries[i].Node; hops > 0 && n.hostAt[node] != nil {
			n.addCohort(node, hops)
		}
	})
	return n.takeCohorts(nil)
}

// replayPlan is the non-queuing flood. The loss verdict is taken once,
// up front: a LossFunc that knows p's lost links (or no drop hook at
// all) replaces every per-link DropFunc call with a membership test.
//
// When the verdict is "nothing lost", no link is down, deliveries group
// and the origin's cohorts are compiled, the outcome is a pure function
// of the origin: every link is crossed and every cohort delivered, so the
// flood is one counter add and one series of the cached cohorts, exactly
// the cohorts the scan would have assembled.
//
// Otherwise the flood is a scan of the tree's flood order in pop order
// (topology.FloodOrder): the climb from the origin, one entry at a time,
// then the slice below each climbed node from the highest reached back
// down, the branch the flood came up marked like a cut one. Every popped
// entry delivers (when hosting) and then checks its links, a cut child
// marked so the scan jumps its whole span, a cut up-link ending the
// climb. The order is load-bearing: it fixes the jitter/drop RNG draw
// order and the FIFO tie-break sequence of the scheduled deliveries
// (hop-cohort groups or per-host events, see canGroupDeliveries).
// Deliveries fire later, from scheduled events, so the scratch state is
// never re-entered.
func (n *Network) replayPlan(origin topology.NodeID, downOnly bool, p *Packet) {
	order := n.tree.FloodOrder()
	entries, kids := order.Entries, order.Kids
	crossings := n.counterFor(p)
	lost, known := n.lossVerdict(p)
	perHop := n.cfg.LinkDelay + n.txTime(p)
	now := n.eng.Now()
	grouped := n.canGroupDeliveries(perHop)
	plan, hosts := n.cohortsFor(origin, downOnly)
	at := order.Pos[origin]
	if known && len(lost) == 0 && grouped && plan != nil && n.downLinks == 0 {
		if downOnly {
			*crossings += uint64(entries[at].Span - 1)
		} else {
			*crossings += uint64(len(kids))
		}
		n.deliverCohorts(p, now, perHop, plan, hosts)
		return
	}
	mark := n.skipMark
	n.skipGen++
	gen := n.skipGen
	// at is the climbed node being expanded, k hops out: climbing, only its
	// own entry is popped, otherwise the slice below it. from is the child
	// the flood reached it through.
	o, climb, from, k, climbing := at, n.climb[:0], int32(topology.None), int32(0), true
	for {
		lo, hi := at, at+1
		if !climbing {
			lo, hi = at+1, at+entries[at].Span
		}
		base := k - entries[at].Depth
		for i := lo; i < hi; i++ {
			e := &entries[i]
			if mark[e.Node] == gen {
				i += e.Span - 1
				continue
			}
			if i != o && n.hostAt[e.Node] != nil {
				hops := int(base + e.Depth)
				if grouped {
					n.addCohort(e.Node, int32(hops))
				} else {
					n.scheduleDelivery(now.Add(time.Duration(hops)*perHop+n.jitter()), n.hostAt[e.Node], p)
				}
			}
			for _, c := range kids[e.Kids:entries[i+1].Kids] {
				link := topology.LinkID(c)
				if c == from {
					continue
				}
				if n.linkSevered(link) {
					mark[c] = gen
					continue
				}
				*crossings++
				var dropped bool
				if known {
					dropped = slices.Contains(lost, link)
				} else {
					dropped = n.drop != nil && n.drop(p, link, true)
				}
				if dropped {
					mark[c] = gen
				}
			}
		}
		if climbing {
			// The up-link; a known verdict only loses downstream crossings.
			if node := topology.NodeID(entries[at].Node); !downOnly && node != n.tree.Root() && !n.linkSevered(node) {
				*crossings++
				if known || n.drop == nil || !n.drop(p, node, false) {
					climb = append(climb, at)
					from = int32(node)
					mark[from] = gen
					at = order.Pos[n.tree.Parent(node)]
					k++
					continue
				}
			}
			climbing = false
			continue
		}
		if k == 0 {
			break
		}
		k--
		at = climb[k]
	}
	n.climb = climb
	if grouped {
		n.deliverCohorts(p, now, perHop, nil, 0)
	}
}
