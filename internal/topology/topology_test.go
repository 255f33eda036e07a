package topology

import (
	"testing"
	"testing/quick"

	"cesrm/internal/sim"
)

// chain builds 0 -> 1 -> 2 -> 3 (source, router, router, receiver).
func chain(t *testing.T) *Tree {
	t.Helper()
	tr, err := New([]NodeID{None, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

//	   0 (source)
//	  / \
//	 1   2
//	/ \   \
//
// 3   4   5
//
//	|
//	6
func sample(t *testing.T) *Tree {
	t.Helper()
	tr, err := New([]NodeID{None, 0, 0, 1, 1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewBasicProperties(t *testing.T) {
	tr := sample(t)
	if tr.Root() != 0 {
		t.Fatalf("Root = %d", tr.Root())
	}
	if tr.NumNodes() != 7 || tr.NumLinks() != 6 {
		t.Fatalf("NumNodes=%d NumLinks=%d", tr.NumNodes(), tr.NumLinks())
	}
	wantRecv := []NodeID{3, 4, 6}
	got := tr.Receivers()
	if len(got) != len(wantRecv) {
		t.Fatalf("Receivers = %v, want %v", got, wantRecv)
	}
	for i := range wantRecv {
		if got[i] != wantRecv[i] {
			t.Fatalf("Receivers = %v, want %v", got, wantRecv)
		}
	}
	if tr.MaxDepth() != 3 {
		t.Fatalf("MaxDepth = %d, want 3", tr.MaxDepth())
	}
	if tr.Depth(6) != 3 || tr.Depth(3) != 2 || tr.Depth(0) != 0 {
		t.Fatal("wrong depths")
	}
	if !tr.IsReceiver(3) || tr.IsReceiver(5) || tr.IsReceiver(0) {
		t.Fatal("IsReceiver misclassifies")
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	cases := map[string][]NodeID{
		"empty":          {},
		"no root":        {0, 0},
		"two roots":      {None, None},
		"out of range":   {None, 9},
		"self parent":    {None, 1},
		"cycle":          {None, 2, 1},
		"all leaf cycle": {1, 0},
	}
	for name, parents := range cases {
		if _, err := New(parents); err == nil {
			t.Errorf("%s: New(%v) succeeded, want error", name, parents)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid input")
		}
	}()
	MustNew([]NodeID{0})
}

func TestLCA(t *testing.T) {
	tr := sample(t)
	cases := []struct{ a, b, want NodeID }{
		{3, 4, 1},
		{3, 6, 0},
		{4, 5, 0},
		{6, 5, 5},
		{6, 6, 6},
		{0, 6, 0},
		{1, 3, 1},
	}
	for _, c := range cases {
		if got := tr.LCA(c.a, c.b); got != c.want {
			t.Errorf("LCA(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := tr.LCA(c.b, c.a); got != c.want {
			t.Errorf("LCA(%d,%d) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestHopCount(t *testing.T) {
	tr := sample(t)
	cases := []struct {
		a, b NodeID
		want int
	}{
		{3, 4, 2},
		{3, 6, 5},
		{0, 6, 3},
		{6, 6, 0},
		{5, 6, 1},
	}
	for _, c := range cases {
		if got := tr.HopCount(c.a, c.b); got != c.want {
			t.Errorf("HopCount(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestIsAncestor(t *testing.T) {
	tr := sample(t)
	if !tr.IsAncestor(0, 6) || !tr.IsAncestor(2, 6) || !tr.IsAncestor(6, 6) {
		t.Fatal("expected ancestor relations missing")
	}
	if tr.IsAncestor(1, 6) || tr.IsAncestor(6, 0) || tr.IsAncestor(3, 4) {
		t.Fatal("unexpected ancestor relations")
	}
}

func TestPathLinks(t *testing.T) {
	tr := sample(t)
	// 3 -> 6: up 3,1 then down 2,5,6.
	got := tr.PathLinks(3, 6)
	want := []LinkID{3, 1, 2, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("PathLinks(3,6) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PathLinks(3,6) = %v, want %v", got, want)
		}
	}
	if got := tr.PathLinks(6, 6); len(got) != 0 {
		t.Fatalf("PathLinks(6,6) = %v, want empty", got)
	}
	// Source to receiver is pure descent.
	got = tr.PathLinks(0, 4)
	want = []LinkID{1, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PathLinks(0,4) = %v, want %v", got, want)
		}
	}
}

func TestTurningPoint(t *testing.T) {
	tr := sample(t)
	if tp := tr.TurningPoint(4, 3); tp != 1 {
		t.Fatalf("TurningPoint(4,3) = %d, want 1", tp)
	}
	if tp := tr.TurningPoint(3, 6); tp != 0 {
		t.Fatalf("TurningPoint(3,6) = %d, want 0", tp)
	}
}

func TestNodesBelowAndReceiversBelow(t *testing.T) {
	tr := sample(t)
	nodes := tr.NodesBelow(1)
	if len(nodes) != 3 || nodes[0] != 1 {
		t.Fatalf("NodesBelow(1) = %v", nodes)
	}
	rs := tr.ReceiversBelow(2)
	if len(rs) != 1 || rs[0] != 6 {
		t.Fatalf("ReceiversBelow(2) = %v, want [6]", rs)
	}
	links := tr.LinksBelow(2)
	if len(links) != 2 {
		t.Fatalf("LinksBelow(2) = %v, want 2 links", links)
	}
}

func TestLinksExcludesRoot(t *testing.T) {
	tr := chain(t)
	links := tr.Links()
	if len(links) != 3 {
		t.Fatalf("Links = %v, want 3 entries", links)
	}
	for _, l := range links {
		if l == tr.Root() {
			t.Fatal("Links contains root")
		}
	}
}

func TestParentVectorRoundTrip(t *testing.T) {
	tr := sample(t)
	clone, err := New(tr.ParentVector())
	if err != nil {
		t.Fatal(err)
	}
	if clone.NumNodes() != tr.NumNodes() || clone.MaxDepth() != tr.MaxDepth() {
		t.Fatal("round-trip changed tree shape")
	}
	// Mutating the returned vector must not corrupt the tree.
	pv := tr.ParentVector()
	pv[1] = 99
	if tr.Parent(1) == 99 {
		t.Fatal("ParentVector aliases internal state")
	}
}

func TestGenerateMeetsSpec(t *testing.T) {
	specs := []GenSpec{
		{Receivers: 1, Depth: 2},
		{Receivers: 8, Depth: 3},
		{Receivers: 12, Depth: 6},
		{Receivers: 15, Depth: 7},
		{Receivers: 10, Depth: 4},
		{Receivers: 30, Depth: 5},
	}
	for _, spec := range specs {
		for seed := int64(0); seed < 5; seed++ {
			tr, err := Generate(sim.NewRNG(seed), spec)
			if err != nil {
				t.Fatalf("%+v seed=%d: %v", spec, seed, err)
			}
			if tr.NumReceivers() != spec.Receivers {
				t.Errorf("%+v seed=%d: receivers=%d", spec, seed, tr.NumReceivers())
			}
			if tr.MaxDepth() != spec.Depth {
				t.Errorf("%+v seed=%d: depth=%d want %d", spec, seed, tr.MaxDepth(), spec.Depth)
			}
			// Every internal node must lead to a receiver and every leaf
			// must be a receiver.
			for n := 0; n < tr.NumNodes(); n++ {
				id := NodeID(n)
				if tr.IsLeaf(id) && id != tr.Root() && !tr.IsReceiver(id) {
					t.Errorf("%+v seed=%d: leaf router %d", spec, seed, id)
				}
				if !tr.IsLeaf(id) && len(tr.ReceiversBelow(id)) == 0 {
					t.Errorf("%+v seed=%d: router %d has no receivers below", spec, seed, id)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{Receivers: 12, Depth: 5}
	a := MustGenerate(sim.NewRNG(99), spec).ParentVector()
	b := MustGenerate(sim.NewRNG(99), spec).ParentVector()
	if len(a) != len(b) {
		t.Fatal("same seed produced different trees")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different trees")
		}
	}
}

func TestGenerateRejectsBadSpec(t *testing.T) {
	if _, err := Generate(sim.NewRNG(1), GenSpec{Receivers: 0, Depth: 3}); err == nil {
		t.Fatal("accepted zero receivers")
	}
	if _, err := Generate(sim.NewRNG(1), GenSpec{Receivers: 5, Depth: 1}); err == nil {
		t.Fatal("accepted depth 1")
	}
}

// walkHops returns the hop count from a to every node by an undirected
// walk away from a, an oracle independent of the LCA climb HopCount takes.
func walkHops(tr *Tree, a NodeID) []int {
	hops := make([]int, tr.NumNodes())
	for i := range hops {
		hops[i] = -1
	}
	hops[a] = 0
	stack := []NodeID{a}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		next := append([]NodeID{tr.Parent(u)}, tr.Children(u)...)
		for _, v := range next {
			if v != None && hops[v] < 0 {
				hops[v] = hops[u] + 1
				stack = append(stack, v)
			}
		}
	}
	return hops
}

func TestHopCountMatchesTreeWalk(t *testing.T) {
	var trees []*Tree
	for seed := int64(0); seed < 10; seed++ {
		spec := GenSpec{Receivers: 5 + int(seed)*3, Depth: 3 + int(seed)%4}
		trees = append(trees, MustGenerate(sim.NewRNG(seed), spec))
	}
	// A chain of over 1,024 nodes: the longest climbs.
	chain := make([]NodeID, 1034)
	chain[0] = None
	for i := 1; i < len(chain); i++ {
		chain[i] = NodeID(i - 1)
	}
	trees = append(trees, MustNew(chain))
	for k, tr := range trees {
		n := tr.NumNodes()
		for a := 0; a < n; a += 1 + n/64 {
			want := walkHops(tr, NodeID(a))
			for b := 0; b < n; b++ {
				if got := tr.HopCount(NodeID(a), NodeID(b)); got != want[b] {
					t.Fatalf("tree %d: HopCount(%d,%d) = %d, want %d", k, a, b, got, want[b])
				}
			}
		}
	}
}

func TestPropertyHopCountTriangle(t *testing.T) {
	// Property: on random trees, hop count is a metric — symmetric, zero
	// iff equal, and satisfying the triangle inequality.
	f := func(seed int64, rc, dc uint8) bool {
		spec := GenSpec{Receivers: int(rc%20) + 2, Depth: int(dc%5) + 2}
		tr, err := Generate(sim.NewRNG(seed), spec)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed + 1)
		n := tr.NumNodes()
		for i := 0; i < 20; i++ {
			a := NodeID(rng.Intn(n))
			b := NodeID(rng.Intn(n))
			c := NodeID(rng.Intn(n))
			if tr.HopCount(a, b) != tr.HopCount(b, a) {
				return false
			}
			if (tr.HopCount(a, b) == 0) != (a == b) {
				return false
			}
			if tr.HopCount(a, c) > tr.HopCount(a, b)+tr.HopCount(b, c) {
				return false
			}
			if len(tr.PathLinks(a, b)) != tr.HopCount(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
