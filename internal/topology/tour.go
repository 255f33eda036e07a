// Flood tours: the flattened Euler-tour representation of a flood's
// traversal, precomputed per origin so the network simulator can replay
// a multicast fan-out as a linear scan instead of re-walking the tree.
//
// The fast (non-queuing) flood in internal/netsim is a LIFO DFS with a
// load-bearing visit discipline: when a node is popped it first delivers
// (drawing jitter), then checks its neighbors' links in a fixed order —
// children in tree order, then the parent — where each check is
// sever-test → crossing-count → drop-test, and survivors are pushed. A
// tour records, for a fixed origin, exactly the pop order and link-check
// order that walk produces when nothing is severed or dropped.
//
// Two structural facts make the tour replayable under arbitrary drops:
//
//  1. Region contiguity. In a LIFO DFS over a tree, the set of entries
//     reached through a pushed neighbor (its "region") occupies a
//     contiguous span of the pop order, beginning at the neighbor
//     itself; sibling regions appear in reverse push order. Span is
//     that length, so "skip this subtree" is a single index jump.
//  2. Drop locality. The link checks a popped node performs depend only
//     on the topology and where the walk entered it — never on drop
//     outcomes elsewhere, because a tree has a unique path to every
//     node, so a dropped neighbor's region contains every node the drop
//     hides. Dropping a link therefore deletes its region from the pop
//     order without reordering, re-timing or re-checking anything else.
//
// Replaying a tour — skipping the regions of severed or dropped links —
// thus reproduces the DFS's exact delivery order, link-check order and
// RNG draw order, which is what keeps run fingerprints byte-identical.
package topology

// TourEntry is one visited node of a flood tour, in exactly the order
// the fast flood's LIFO DFS pops nodes.
type TourEntry struct {
	// Node is the visited node; the first entry is the tour origin.
	Node NodeID
	// Hops is the link count from the origin along the traversal path.
	Hops int32
	// Span is the size of this node's region: this entry plus every
	// entry the walk reached through it. Skipping a dropped node means
	// advancing Span entries.
	Span int32
	// OpsEnd is the end of this entry's link-check range in Tour.Ops.
	// Ops are emitted in pop order, so the range starts at the previous
	// entry's OpsEnd (0 for the first entry).
	OpsEnd int32
}

// TourOp is one link check a popped node performs, in check order:
// children in tree order, then the parent (full floods only).
type TourOp struct {
	// Link is the checked link, identified by its downstream endpoint
	// as everywhere else.
	Link LinkID
	// Region is the index of the entry that starts the neighbor's
	// region: the entry to mark skipped when the check severs or drops.
	Region int32
	// Down reports the crossing direction: true when descending to a
	// child, false when climbing the node's own inbound link.
	Down bool
}

// Tour is the flattened Euler-tour of a flood from one origin. The zero
// value is an empty tour; build one with Tree.FloodTour.
type Tour struct {
	Entries []TourEntry
	Ops     []TourOp
}

// FloodTour computes the flood tour from origin. downOnly restricts the
// walk to descendants (the subcast primitive); otherwise the walk covers
// the whole tree. The tour is a pure function of the topology.
func (t *Tree) FloodTour(origin NodeID, downOnly bool) Tour {
	var b TourBuilder
	var tour Tour
	b.Build(t, origin, downOnly, &tour)
	return tour
}

// TourBuilder compiles flood tours, keeping its worklist scratch across
// builds; a caller that also reuses the destination Tour compiles
// without allocating once both have grown to the tree. The zero value
// is ready to use.
type TourBuilder struct {
	stack []tourItem
	// pusher[i] is the entry index of the node whose link check pushed
	// entry i (-1 for the origin).
	pusher []int32
}

// tourItem is one worklist entry: the node, its hop count, and the
// indices of the op that pushed it and of the entry that issued that op
// (both -1 for the origin).
type tourItem struct {
	node          NodeID
	hops          int32
	opIdx, pusher int32
}

// Build compiles the flood tour from origin into tour, overwriting it
// and reusing its slices' capacity: the flood's traversal with every
// sever and drop test answering "pass". In a tree the only visited
// neighbor of a popped node is the one that pushed it, so "skip the
// pusher" stands in for a visited set.
func (b *TourBuilder) Build(t *Tree, origin NodeID, downOnly bool, tour *Tour) {
	if !downOnly && cap(tour.Entries) < t.NumNodes() {
		// A full flood visits every node and checks every link exactly
		// once; subcast tours are subtree-sized and grow by appending.
		tour.Entries = make([]TourEntry, 0, t.NumNodes())
		tour.Ops = make([]TourOp, 0, t.NumNodes()-1)
	}
	entries, ops := tour.Entries[:0], tour.Ops[:0]
	pusher := b.pusher[:0]
	stack := append(b.stack[:0], tourItem{origin, 0, -1, -1})
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		idx := int32(len(entries))
		from := None
		if it.opIdx >= 0 {
			ops[it.opIdx].Region = idx
			from = entries[it.pusher].Node
		}
		pusher = append(pusher, it.pusher)
		for _, c := range t.children[it.node] {
			if c == from {
				continue
			}
			ops = append(ops, TourOp{Link: c, Down: true})
			stack = append(stack, tourItem{c, it.hops + 1, int32(len(ops) - 1), idx})
		}
		if !downOnly {
			if p := t.parent[it.node]; p != None && p != from {
				ops = append(ops, TourOp{Link: it.node, Down: false})
				stack = append(stack, tourItem{p, it.hops + 1, int32(len(ops) - 1), idx})
			}
		}
		entries = append(entries, TourEntry{
			Node:   it.node,
			Hops:   it.hops,
			Span:   1,
			OpsEnd: int32(len(ops)),
		})
	}
	// Regions nest: a node's region contains its pushees' regions, and
	// every pushee has a higher entry index than its pusher, so one
	// reverse accumulation computes all spans.
	for i := len(entries) - 1; i >= 1; i-- {
		entries[pusher[i]].Span += entries[i].Span
	}
	tour.Entries, tour.Ops = entries, ops
	b.stack, b.pusher = stack, pusher
}
