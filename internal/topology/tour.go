// Flood tours: one origin's flood, flattened as the LIFO depth-first walk
// pops it when nothing is severed or dropped. The network simulator scans
// the tree's one FloodOrder instead (order.go, with the argument for why
// a linear scan can stand in for the walk); tours are compiled
// independently of it and are what that scan is tested against.
package topology

// TourEntry is one visited node of a flood tour, in pop order.
type TourEntry struct {
	// Node is the visited node (the first entry's is the origin) and Hops
	// its link count from the origin.
	Node NodeID
	Hops int32
	// Span is the size of this node's region: this entry plus every
	// entry the walk reached through it.
	Span int32
	// OpsEnd ends this entry's link-check range in Tour.Ops, which starts
	// at the previous entry's OpsEnd (0 for the first entry).
	OpsEnd int32
}

// TourOp is one link check a popped node performs, in check order:
// children in tree order, then the parent (full floods only).
type TourOp struct {
	// Link is the checked link and Down the crossing direction: true to
	// a child, false when climbing the node's own inbound link.
	Link LinkID
	Down bool
	// Region is the index of the entry that starts the neighbor's
	// region: what a severed or dropped check removes from the flood.
	Region int32
}

// Tour is the flattened Euler-tour of a flood from one origin.
type Tour struct {
	Entries []TourEntry
	Ops     []TourOp
}

// FloodTour computes the flood tour from origin. downOnly restricts the
// walk to descendants (the subcast primitive); otherwise it covers the
// whole tree. In a tree the only visited neighbor of a popped node is the
// one that pushed it, so "skip the pusher" stands in for a visited set.
func (t *Tree) FloodTour(origin NodeID, downOnly bool) Tour {
	// tourItem is one worklist entry: the node, its hop count, and the
	// indices of the op that pushed it and of the entry that issued that
	// op (both -1 for the origin).
	type tourItem struct {
		node          NodeID
		hops          int32
		opIdx, pusher int32
	}
	var entries []TourEntry
	var ops []TourOp
	if !downOnly {
		// A full flood visits every node and checks every link once.
		entries, ops = make([]TourEntry, 0, t.NumNodes()), make([]TourOp, 0, t.NumLinks())
	}
	// pusher[i] is the entry index of the node whose link check pushed
	// entry i (-1 for the origin).
	var pusher []int32
	stack := []tourItem{{origin, 0, -1, -1}}
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
	return Tour{Entries: entries, Ops: ops}
}
