package topology

// FloodOrder is the tree in reverse preorder — the root, then each
// child's subtree, last child first — which is the order a LIFO
// depth-first flood pops a subtree it enters from above. The fast
// (non-queuing) flood in internal/netsim is that walk, with a
// load-bearing discipline: a popped node first delivers (drawing
// jitter), then checks its links — children in tree order, then the
// parent; per link sever-test → crossing-count → drop-test — and pushes
// the survivors. So in pop order a flood from any origin is
//
//   - the origin and its ancestors a_1 … root, the climb;
//   - then, for each a_k from the root back down to the origin a_0, the
//     entries below a_k less the subtree the flood came up through, at
//     hops k + depth(v) − depth(a_k);
//
// and a subcast is the origin's own slice. A tree has a unique path to
// every node, so what a cut link hides is exactly the contiguous span
// behind it, and the checks a popped node performs depend only on where
// the walk entered it: skipping cut spans reproduces the walk's delivery,
// link-check and RNG draw order exactly, which keeps fingerprints
// byte-identical. Built once by New.
type FloodOrder struct {
	// Entries is the order, closed by a sentinel that spans nothing; Kids
	// every entry's children in tree order, entry after entry; Pos each
	// node's index in Entries.
	Entries []FloodEntry
	Kids    []int32
	Pos     []int32
}

// FloodEntry is one node of the flood order.
type FloodEntry struct {
	Node, Depth int32
	// Span counts the node's subtree, itself included: the Span entries
	// starting here, so skipping a cut subtree is one jump.
	Span int32
	// Kids starts the entry's run in FloodOrder.Kids, which ends where
	// the next entry's starts.
	Kids int32
}

// FloodOrder returns the tree's flood order, shared and read-only.
func (t *Tree) FloodOrder() *FloodOrder { return &t.order }

// WalkFlood calls visit with the Entries index and hop count of every
// node an unobstructed flood (downOnly: subcast) from origin pops, origin
// first, in pop order.
func (t *Tree) WalkFlood(origin NodeID, downOnly bool, visit func(i, hops int32)) {
	t.walkFlood(t.order.Pos[origin], 0, -1, downOnly, visit)
}

// walkFlood pops the entry at, k hops out, then all that is reached
// through its parent, then its subtree less the branch it climbed, below.
func (t *Tree) walkFlood(at, k, below int32, downOnly bool, visit func(i, hops int32)) {
	entries := t.order.Entries
	e := entries[at]
	visit(at, k)
	if p := t.parent[e.Node]; !downOnly && p != None {
		t.walkFlood(t.order.Pos[p], k+1, at, false, visit)
	}
	for i := at + 1; i < at+e.Span; i++ {
		if i == below {
			i += entries[i].Span - 1
			continue
		}
		visit(i, k+entries[i].Depth-e.Depth)
	}
}
