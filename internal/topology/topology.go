// Package topology models the static IP multicast tree over which a
// trace's packets are disseminated.
//
// Following §4.1 of the paper, a transmission's topology is a directed
// tree T = (N, s, L): the root s is the transmission source, internal
// nodes are multicast-capable routers, and the leaves are exactly the
// receivers. Edges ("links") are directed away from the source; each
// non-root node identifies the unique link arriving at it, so links are
// addressed by their downstream endpoint.
package topology

import (
	"errors"
	"fmt"
)

// NodeID identifies a node of the tree. IDs are dense indices in
// [0, NumNodes).
type NodeID int

// None is the sentinel "no node" value (for example, the root's parent).
const None NodeID = -1

// LinkID identifies a link by its downstream endpoint node. Every
// non-root node n has exactly one inbound link, written Link(n).
type LinkID = NodeID

// Tree is an immutable rooted multicast tree. Construct one with New or
// the generator in this package; the zero value is not usable.
type Tree struct {
	parent    []NodeID
	children  [][]NodeID
	depth     []int // root-to-node link count
	root      NodeID
	receivers []NodeID // all leaves, ascending ID order
	maxDepth  int
	// order is the flood order every non-queuing flood scans; see order.go.
	order FloodOrder
}

// New builds a tree from a parent vector: parents[i] is the parent of
// node i, and exactly one entry (the root) must be None. Parents must
// precede children is NOT required; any topological order is accepted.
func New(parents []NodeID) (*Tree, error) {
	n := len(parents)
	if n == 0 {
		return nil, errors.New("topology: empty parent vector")
	}
	t := &Tree{
		parent:   make([]NodeID, n),
		children: make([][]NodeID, n),
		depth:    make([]int, n),
		root:     None,
	}
	copy(t.parent, parents)
	for i, p := range parents {
		switch {
		case p == None:
			if t.root != None {
				return nil, fmt.Errorf("topology: multiple roots (%d and %d)", t.root, i)
			}
			t.root = NodeID(i)
		case p < 0 || int(p) >= n:
			return nil, fmt.Errorf("topology: node %d has out-of-range parent %d", i, p)
		case p == NodeID(i):
			return nil, fmt.Errorf("topology: node %d is its own parent", i)
		default:
			t.children[p] = append(t.children[p], NodeID(i))
		}
	}
	if t.root == None {
		return nil, errors.New("topology: no root")
	}
	// Depth-first walk assigns depths and detects disconnected nodes or
	// cycles (unreached nodes). Its pop order is the flood order.
	o := &t.order
	o.Entries, o.Kids, o.Pos = make([]FloodEntry, 0, n+1), make([]int32, 0, n-1), make([]int32, n)
	seen := make([]bool, n)
	stack := []NodeID{t.root}
	seen[t.root] = true
	count := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		o.Pos[u] = int32(len(o.Entries))
		o.Entries = append(o.Entries, FloodEntry{int32(u), int32(t.depth[u]), 1, int32(len(o.Kids))})
		for _, c := range t.children[u] {
			if seen[c] {
				return nil, fmt.Errorf("topology: node %d reached twice", c)
			}
			seen[c] = true
			t.depth[c] = t.depth[u] + 1
			if t.depth[c] > t.maxDepth {
				t.maxDepth = t.depth[c]
			}
			stack = append(stack, c)
			o.Kids = append(o.Kids, int32(c))
		}
	}
	if count != n {
		return nil, fmt.Errorf("topology: %d of %d nodes unreachable from root", n-count, n)
	}
	// Every node follows its parent in the order, so one reverse pass
	// sums the subtree sizes.
	for i := n - 1; i >= 1; i-- {
		o.Entries[o.Pos[t.parent[o.Entries[i].Node]]].Span += o.Entries[i].Span
	}
	o.Entries = append(o.Entries, FloodEntry{Node: int32(None), Kids: int32(n - 1)})
	for i := 0; i < n; i++ {
		if len(t.children[i]) == 0 && NodeID(i) != t.root {
			t.receivers = append(t.receivers, NodeID(i))
		}
	}
	if len(t.receivers) == 0 {
		return nil, errors.New("topology: tree has no receivers")
	}
	return t, nil
}

// MustNew is New panicking on error, for tests and static catalogs.
func MustNew(parents []NodeID) *Tree {
	t, err := New(parents)
	if err != nil {
		panic(err)
	}
	return t
}

// NumNodes returns the total node count (source + routers + receivers).
func (t *Tree) NumNodes() int { return len(t.parent) }

// NumLinks returns the link count, always NumNodes-1.
func (t *Tree) NumLinks() int { return len(t.parent) - 1 }

// Root returns the transmission source.
func (t *Tree) Root() NodeID { return t.root }

// Parent returns the parent of n, or None for the root.
func (t *Tree) Parent(n NodeID) NodeID { return t.parent[n] }

// Children returns the children of n. The returned slice is shared and
// must not be modified.
func (t *Tree) Children(n NodeID) []NodeID { return t.children[n] }

// Depth returns the number of links from the root to n.
func (t *Tree) Depth(n NodeID) int { return t.depth[n] }

// MaxDepth returns the depth of the deepest node (the paper's "tree
// depth" column in Table 1).
func (t *Tree) MaxDepth() int { return t.maxDepth }

// IsLeaf reports whether n has no children.
func (t *Tree) IsLeaf(n NodeID) bool { return len(t.children[n]) == 0 }

// IsReceiver reports whether n is a receiver (a non-root leaf).
func (t *Tree) IsReceiver(n NodeID) bool { return n != t.root && t.IsLeaf(n) }

// Receivers returns all receivers in ascending ID order. The returned
// slice is shared and must not be modified.
func (t *Tree) Receivers() []NodeID { return t.receivers }

// NumReceivers returns the receiver count.
func (t *Tree) NumReceivers() int { return len(t.receivers) }

// Links returns all link IDs (every node except the root), ascending.
func (t *Tree) Links() []LinkID {
	links := make([]LinkID, 0, t.NumLinks())
	for i := 0; i < t.NumNodes(); i++ {
		if NodeID(i) != t.root {
			links = append(links, NodeID(i))
		}
	}
	return links
}

// LCA returns the lowest common ancestor of a and b.
func (t *Tree) LCA(a, b NodeID) NodeID {
	for t.depth[a] > t.depth[b] {
		a = t.parent[a]
	}
	for t.depth[b] > t.depth[a] {
		b = t.parent[b]
	}
	for a != b {
		a = t.parent[a]
		b = t.parent[b]
	}
	return a
}

// HopCount returns the number of links on the tree path between a and b.
func (t *Tree) HopCount(a, b NodeID) int {
	l := t.LCA(a, b)
	return (t.depth[a] - t.depth[l]) + (t.depth[b] - t.depth[l])
}

// IsAncestor reports whether a is an ancestor of b (or equal to it).
func (t *Tree) IsAncestor(a, b NodeID) bool {
	for t.depth[b] > t.depth[a] {
		b = t.parent[b]
	}
	return a == b
}

// PathLinks returns the links crossed travelling from a to b, identified
// by downstream endpoints, in traversal order: first the links climbed
// from a up to LCA(a,b), then the links descended to b.
func (t *Tree) PathLinks(a, b NodeID) []LinkID {
	return t.AppendPathLinks(nil, a, b)
}

// AppendPathLinks appends PathLinks(a, b) to dst, for callers that walk
// many paths through one reused buffer.
func (t *Tree) AppendPathLinks(dst []LinkID, a, b NodeID) []LinkID {
	l := t.LCA(a, b)
	for n := a; n != l; n = t.parent[n] {
		dst = append(dst, n)
	}
	// The descent is collected bottom-up; reverse it in place.
	down := len(dst)
	for n := b; n != l; n = t.parent[n] {
		dst = append(dst, n)
	}
	for i, j := down, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// TurningPoint returns the router at which a packet travelling from
// sender toward dst stops moving up (toward the source) and starts
// moving down: the LCA of the two nodes. In the router-assisted variant
// of §3.3 this is the router that subcasts expedited replies.
func (t *Tree) TurningPoint(sender, dst NodeID) NodeID { return t.LCA(sender, dst) }

// NodesBelow returns n and every descendant of n in preorder.
func (t *Tree) NodesBelow(n NodeID) []NodeID {
	var out []NodeID
	stack := []NodeID{n}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, u)
		for i := len(t.children[u]) - 1; i >= 0; i-- {
			stack = append(stack, t.children[u][i])
		}
	}
	return out
}

// ReceiversBelow returns the receivers in the subtree rooted at n, in
// preorder.
func (t *Tree) ReceiversBelow(n NodeID) []NodeID {
	var out []NodeID
	for _, u := range t.NodesBelow(n) {
		if t.IsReceiver(u) {
			out = append(out, u)
		}
	}
	return out
}

// LinksBelow returns every link in the subtree rooted at n, i.e. the
// inbound links of all strict descendants of n.
func (t *Tree) LinksBelow(n NodeID) []LinkID {
	nodes := t.NodesBelow(n)
	out := make([]LinkID, 0, len(nodes)-1)
	for _, u := range nodes {
		if u != n {
			out = append(out, u)
		}
	}
	return out
}

// ParentVector returns a copy of the parent representation, suitable for
// serialization.
func (t *Tree) ParentVector() []NodeID {
	out := make([]NodeID, len(t.parent))
	copy(out, t.parent)
	return out
}

// String renders a compact single-line summary.
func (t *Tree) String() string {
	return fmt.Sprintf("tree{nodes=%d receivers=%d depth=%d}", t.NumNodes(), t.NumReceivers(), t.maxDepth)
}
