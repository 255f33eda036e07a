package topology

import (
	"testing"

	"cesrm/internal/sim"
)

// referenceTour is an independent re-implementation of the fast flood's
// LIFO traversal (pop order + link-check order), kept deliberately
// simple: no span bookkeeping, just the orders FloodTour must match.
func referenceTour(t *Tree, origin NodeID, downOnly bool) (pops []NodeID, hops []int32, ops [][]TourOp) {
	type item struct {
		node NodeID
		hops int32
	}
	visited := make([]bool, t.NumNodes())
	stack := []item{{origin, 0}}
	visited[origin] = true
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pops = append(pops, it.node)
		hops = append(hops, it.hops)
		var own []TourOp
		for _, c := range t.children[it.node] {
			if visited[c] {
				continue
			}
			visited[c] = true
			own = append(own, TourOp{Link: c, Down: true})
			stack = append(stack, item{c, it.hops + 1})
		}
		if !downOnly {
			if p := t.parent[it.node]; p != None && !visited[p] {
				visited[p] = true
				own = append(own, TourOp{Link: it.node, Down: false})
				stack = append(stack, item{p, it.hops + 1})
			}
		}
		ops = append(ops, own)
	}
	return pops, hops, ops
}

// checkTour verifies every structural invariant of a tour against the
// reference traversal: pop order, hop counts, per-entry op ranges, the
// span arithmetic (a region is itself plus its pushees' regions), and
// region contiguity (pushee regions tile the pusher's region back to
// front, in reverse push order).
func checkTour(t *testing.T, tree *Tree, origin NodeID, downOnly bool) {
	t.Helper()
	tour := tree.FloodTour(origin, downOnly)
	pops, hops, refOps := referenceTour(tree, origin, downOnly)

	if len(tour.Entries) != len(pops) {
		t.Fatalf("origin=%d downOnly=%v: %d entries, reference pops %d nodes",
			origin, downOnly, len(tour.Entries), len(pops))
	}
	seen := make(map[NodeID]bool, len(pops))
	totalOps := 0
	for i, e := range tour.Entries {
		if e.Node != pops[i] {
			t.Fatalf("origin=%d downOnly=%v: entry %d node=%d, reference pops %d",
				origin, downOnly, i, e.Node, pops[i])
		}
		if e.Hops != hops[i] {
			t.Fatalf("entry %d (node %d): hops=%d, reference %d", i, e.Node, e.Hops, hops[i])
		}
		if seen[e.Node] {
			t.Fatalf("node %d visited twice", e.Node)
		}
		seen[e.Node] = true

		// Op range: [prev OpsEnd, OpsEnd) must hold exactly the
		// reference's link checks for this node, in order.
		start := int32(0)
		if i > 0 {
			start = tour.Entries[i-1].OpsEnd
		}
		if e.OpsEnd < start {
			t.Fatalf("entry %d: OpsEnd=%d below range start %d", i, e.OpsEnd, start)
		}
		got := tour.Ops[start:e.OpsEnd]
		want := refOps[i]
		if len(got) != len(want) {
			t.Fatalf("entry %d (node %d): %d ops, reference %d", i, e.Node, len(got), len(want))
		}
		for j := range got {
			if got[j].Link != want[j].Link || got[j].Down != want[j].Down {
				t.Fatalf("entry %d op %d: (link=%d down=%v), reference (link=%d down=%v)",
					i, j, got[j].Link, got[j].Down, want[j].Link, want[j].Down)
			}
		}
		totalOps += len(got)

		// Span arithmetic: the region is the entry plus its pushees'
		// regions, and in LIFO pop order the pushee regions tile the rest
		// of the region contiguously, last-pushed first.
		sum := int32(1)
		next := int32(i) + 1
		for j := int(e.OpsEnd) - 1; j >= int(start); j-- {
			r := tour.Ops[j].Region
			if r != next {
				t.Fatalf("entry %d (node %d): op %d region starts at %d, want %d (contiguity)",
					i, e.Node, j, r, next)
			}
			sum += tour.Entries[r].Span
			next += tour.Entries[r].Span
		}
		if e.Span != sum {
			t.Fatalf("entry %d (node %d): Span=%d, pushee spans sum to %d", i, e.Node, e.Span, sum)
		}
	}
	if totalOps != len(tour.Ops) {
		t.Fatalf("op ranges cover %d ops, tour has %d", totalOps, len(tour.Ops))
	}

	// Coverage: a full flood visits every node exactly once; a subcast
	// visits exactly the origin's subtree.
	want := tree.NumNodes()
	if downOnly {
		want = len(tree.NodesBelow(origin))
	}
	if len(seen) != want {
		t.Fatalf("origin=%d downOnly=%v: visited %d nodes, want %d", origin, downOnly, len(seen), want)
	}
	if tour.Entries[0].Node != origin || tour.Entries[0].Span != int32(len(tour.Entries)) {
		t.Fatalf("root entry = %+v, want node %d spanning %d", tour.Entries[0], origin, len(tour.Entries))
	}
}

func TestFloodTourStructure(t *testing.T) {
	// The fixed tree every netsim test uses, then random trees of varied
	// shape; origins cover root, internal routers and leaves.
	trees := []*Tree{MustNew([]NodeID{None, 0, 0, 1, 1, 2, 5})}
	for seed := int64(0); seed < 10; seed++ {
		spec := GenSpec{Receivers: 4 + int(seed)*3, Depth: 2 + int(seed)%5}
		trees = append(trees, MustGenerate(sim.NewRNG(seed), spec))
	}
	for ti, tree := range trees {
		origins := []NodeID{tree.Root()}
		for id := NodeID(0); int(id) < tree.NumNodes(); id += NodeID(1 + tree.NumNodes()/7) {
			origins = append(origins, id)
		}
		origins = append(origins, NodeID(tree.NumNodes()-1))
		for _, origin := range origins {
			for _, downOnly := range []bool{false, true} {
				checkTour(t, tree, origin, downOnly)
			}
		}
		_ = ti
	}
}

func TestFloodTourLeafSubcast(t *testing.T) {
	// A subcast rooted at a leaf is the degenerate tour: one entry, no
	// link checks.
	tree := MustNew([]NodeID{None, 0})
	tour := tree.FloodTour(1, true)
	if len(tour.Entries) != 1 || len(tour.Ops) != 0 {
		t.Fatalf("tour = %+v, want a single entry and no ops", tour)
	}
	if tour.Entries[0].Span != 1 || tour.Entries[0].OpsEnd != 0 {
		t.Fatalf("entry = %+v, want span 1, no ops", tour.Entries[0])
	}
}

// oracleTrees are the shapes the flood order is checked on, here and by
// netsim's scan test: chains and stars from 3 nodes, the fixed tree every
// netsim test uses, and generated trees up to the benchmark's
// 1,024-receiver one.
func oracleTrees() []*Tree {
	trees := []*Tree{MustNew([]NodeID{None, 0, 0, 1, 1, 2, 5})}
	for _, n := range []int{3, 4, 9} {
		chain, star := make([]NodeID, n), make([]NodeID, n)
		for i := range chain {
			chain[i], star[i] = NodeID(i-1), 0
		}
		star[0] = None
		trees = append(trees, MustNew(chain), MustNew(star))
	}
	for _, spec := range []GenSpec{{Receivers: 2, Depth: 2}, {Receivers: 13, Depth: 4}, {Receivers: 120, Depth: 9}, {Receivers: 1024, Depth: 7}} {
		trees = append(trees, MustGenerate(sim.NewRNG(int64(spec.Receivers)), spec))
	}
	return trees
}

// TestFloodOrderMatchesTour checks the one shared order against the
// per-origin oracle, for every origin of every tree, full and subcast:
// WalkFlood must pop FloodTour's nodes at FloodTour's hops; every entry's
// children run must be the downward link checks the tour records for it;
// and a tour region must be the order's subtree slice — or, for a node
// the flood climbed to, everything outside the branch it came from.
func TestFloodOrderMatchesTour(t *testing.T) {
	for _, tree := range oracleTrees() {
		o := tree.FloodOrder()
		if len(o.Entries) != tree.NumNodes()+1 || len(o.Kids) != tree.NumLinks() {
			t.Fatalf("%v: order has %d entries and %d kids", tree, len(o.Entries), len(o.Kids))
		}
		for i, e := range o.Entries[:tree.NumNodes()] {
			run, want := o.Kids[e.Kids:o.Entries[i+1].Kids], tree.Children(NodeID(e.Node))
			if len(run) != len(want) {
				t.Fatalf("%v: entry %d (node %d) has the run %v, children %v", tree, i, e.Node, run, want)
			}
			for j := range run {
				if NodeID(run[j]) != want[j] {
					t.Fatalf("%v: entry %d (node %d) has the run %v, children %v", tree, i, e.Node, run, want)
				}
			}
		}
		for origin := NodeID(0); int(origin) < tree.NumNodes(); origin++ {
			for _, downOnly := range []bool{false, true} {
				tour := tree.FloodTour(origin, downOnly)
				n, below := 0, int32(0)
				tree.WalkFlood(origin, downOnly, func(i, hops int32) {
					if n >= len(tour.Entries) {
						t.Fatalf("%v origin=%d downOnly=%v: walk pops more than the tour's %d entries", tree, origin, downOnly, n)
					}
					e, want := o.Entries[i], tour.Entries[n]
					span := e.Span
					if climbed := !downOnly && tree.IsAncestor(NodeID(e.Node), origin); climbed {
						span = int32(tree.NumNodes()) - below
						below = e.Span
					}
					if NodeID(e.Node) != want.Node || hops != want.Hops || span != want.Span || o.Pos[e.Node] != i || int(e.Depth) != tree.Depth(want.Node) {
						t.Fatalf("%v origin=%d downOnly=%v: pop %d = node %d hops %d span %d, tour has %+v", tree, origin, downOnly, n, e.Node, hops, span, want)
					}
					// The tour's downward checks at this pop are the node's
					// children less the branch the flood came up.
					var down []NodeID
					opStart := int32(0)
					if n > 0 {
						opStart = tour.Entries[n-1].OpsEnd
					}
					for _, op := range tour.Ops[opStart:want.OpsEnd] {
						if op.Down {
							down = append(down, op.Link)
						}
					}
					for _, c := range tree.Children(want.Node) {
						if !downOnly && tree.IsAncestor(c, origin) {
							continue
						}
						if len(down) == 0 || down[0] != c {
							t.Fatalf("%v origin=%d downOnly=%v: node %d checks %v next, its children say %d", tree, origin, downOnly, e.Node, down, c)
						}
						down = down[1:]
					}
					if len(down) != 0 {
						t.Fatalf("%v origin=%d downOnly=%v: node %d checks %v beyond its children", tree, origin, downOnly, e.Node, down)
					}
					n++
				})
				if n != len(tour.Entries) {
					t.Fatalf("%v origin=%d downOnly=%v: walk pops %d entries, tour %d", tree, origin, downOnly, n, len(tour.Entries))
				}
			}
		}
	}
}
