package wire

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// testTree is the smoke topology: root 0 feeding two interior routers,
// each with one receiver leaf. Members are 0, 3, 4; the interior nodes
// exercise hop-count distances and subtree (subcast) delivery sets.
func testTree(t testing.TB) *topology.Tree {
	t.Helper()
	tree, err := topology.New([]topology.NodeID{topology.None, 0, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// testNodeConfig shrinks the schedule so a live run finishes in about a
// second of wall clock while still spanning several session periods.
func testNodeConfig(tree *topology.Tree, id topology.NodeID) NodeConfig {
	p := srm.DefaultParams()
	p.SessionPeriod = 120 * time.Millisecond
	return NodeConfig{
		Tree:         tree,
		ID:           id,
		Protocol:     ProtocolCESRM,
		Seed:         42,
		NumPackets:   12,
		Period:       15 * time.Millisecond,
		SRM:          p,
		SourceLinger: 600 * time.Millisecond,
		MaxRunTime:   20 * time.Second,
	}
}

// TestNodeConfigBoundsStream: a stream carries at most srm.MaxSeq+1
// packets, the numbers every agent accepts.
func TestNodeConfigBoundsStream(t *testing.T) {
	cfg := testNodeConfig(testTree(t), 0)
	for _, c := range []struct {
		packets int
		ok      bool
	}{{srm.MaxSeq + 1, true}, {srm.MaxSeq + 2, false}, {-1, false}} {
		cfg.NumPackets = c.packets
		if err := cfg.withDefaults().Validate(); (err == nil) != c.ok {
			t.Errorf("%d packets: Validate() = %v, want ok %v", c.packets, err, c.ok)
		}
	}
}

// runGroup runs one in-process node per member over localhost UDP,
// optionally routing all traffic through a drop-injecting proxy, and
// returns each node's result and parsed capture plus the proxy's drop
// count (zero without a proxy).
func runGroup(t *testing.T, dropProb float64) (map[topology.NodeID]Result, map[topology.NodeID]*Capture, map[topology.NodeID][]byte, uint64) {
	t.Helper()
	tree := testTree(t)
	memberIDs := members(tree)

	nodes := map[topology.NodeID]*Node{}
	bufs := map[topology.NodeID]*bytes.Buffer{}
	for _, id := range memberIDs {
		buf := &bytes.Buffer{}
		node, err := NewNode(testNodeConfig(tree, id), "127.0.0.1:0", buf)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Transport().Close()
		nodes[id] = node
		bufs[id] = buf
	}

	var proxy *Proxy
	if dropProb > 0 {
		var err error
		proxy, err = NewProxy("127.0.0.1:0", dropProb, 7)
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		for id, node := range nodes {
			if err := proxy.SetPeer(id, node.Transport().LocalAddr().String()); err != nil {
				t.Fatal(err)
			}
			if err := node.Transport().SetProxy(proxy.LocalAddr().String()); err != nil {
				t.Fatal(err)
			}
		}
		go proxy.Serve()
	} else {
		for _, a := range memberIDs {
			for _, b := range memberIDs {
				if a == b {
					continue
				}
				addr := nodes[b].Transport().LocalAddr().String()
				if err := nodes[a].Transport().SetPeer(b, addr); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	results := map[topology.NodeID]Result{}
	errs := map[topology.NodeID]error{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id, node := range nodes {
		wg.Add(1)
		go func(id topology.NodeID, node *Node) {
			defer wg.Done()
			res, err := node.RunFor(context.Background(), 10*time.Second)
			mu.Lock()
			results[id] = res
			errs[id] = err
			mu.Unlock()
		}(id, node)
	}
	wg.Wait()

	captures := map[topology.NodeID]*Capture{}
	raw := map[topology.NodeID][]byte{}
	for id := range nodes {
		if errs[id] != nil {
			t.Fatalf("node %d: run: %v", id, errs[id])
		}
		raw[id] = bufs[id].Bytes()
		c, err := ReadCapture(bytes.NewReader(raw[id]))
		if err != nil {
			t.Fatalf("node %d: capture: %v", id, err)
		}
		captures[id] = c
	}
	var dropped uint64
	if proxy != nil {
		_, dropped = proxy.Stats()
	}
	return results, captures, raw, dropped
}

// replayAll replays every capture and asserts conformance.
func replayAll(t *testing.T, captures map[topology.NodeID]*Capture) map[topology.NodeID]*Report {
	t.Helper()
	reports := map[topology.NodeID]*Report{}
	for id, c := range captures {
		report, err := Replay(c)
		if err != nil {
			t.Fatalf("node %d: replay: %v", id, err)
		}
		for _, d := range report.Divergences {
			t.Errorf("node %d: %s", id, d)
		}
		reports[id] = report
	}
	return reports
}

// TestThreeNodeLoopback is the lossless end-to-end smoke: three
// processes-in-miniature over real localhost UDP complete the stream,
// and each node's capture replays through the deterministic simulator
// with a byte-identical conformance stream. It doubles as the oracle's
// own sanity check: a tampered capture must diverge.
func TestThreeNodeLoopback(t *testing.T) {
	results, captures, _, _ := runGroup(t, 0)
	for id, res := range results {
		if !res.Completed || !res.Stopped {
			t.Errorf("node %d: completed=%v stopped=%v, want both", id, res.Completed, res.Stopped)
		}
		if res.DecodeErrors != 0 || res.SessionRejects != 0 {
			t.Errorf("node %d: %d decode errors, %d session rejects", id, res.DecodeErrors, res.SessionRejects)
		}
		if res.DatagramsSent == 0 || res.DatagramsReceived == 0 {
			t.Errorf("node %d: no traffic (sent=%d received=%d)",
				id, res.DatagramsSent, res.DatagramsReceived)
		}
	}
	reports := replayAll(t, captures)
	for id, r := range reports {
		if r.Sends == 0 || r.Events == 0 {
			t.Errorf("node %d: empty conformance stream (sends=%d events=%d)", id, r.Sends, r.Events)
		}
	}

	// Oracle sanity: shifting one captured send record by a nanosecond
	// must surface as a divergence.
	tree := testTree(t)
	tampered := *captures[tree.Root()]
	tampered.Records = append([]Record(nil), tampered.Records...)
	found := false
	for i, rec := range tampered.Records {
		if rec.Kind == recKindSend {
			rec.AtNS++
			tampered.Records[i] = rec
			found = true
			break
		}
	}
	if !found {
		t.Fatal("source capture has no send records")
	}
	report, err := Replay(&tampered)
	if err != nil {
		t.Fatalf("tampered replay: %v", err)
	}
	if report.OK() {
		t.Error("replay accepted a tampered capture")
	}
}

// TestThreeNodeLoopbackWithLoss routes all traffic through the seeded
// drop proxy: data and repair packets are lost, the protocol recovers
// them, every node still completes, and every capture still replays
// divergence-free — loss shows up as recovery decisions the oracle
// certifies, not as conformance failures.
func TestThreeNodeLoopbackWithLoss(t *testing.T) {
	results, captures, _, dropped := runGroup(t, 0.3)
	if dropped == 0 {
		t.Fatal("proxy dropped nothing; loss path not exercised")
	}
	for id, res := range results {
		if !res.Completed || !res.Stopped {
			t.Errorf("node %d: completed=%v stopped=%v, want both", id, res.Completed, res.Stopped)
		}
	}
	reports := replayAll(t, captures)
	recoveries := 0
	for _, r := range reports {
		recoveries += r.Recoveries
	}
	if recoveries == 0 {
		t.Errorf("dropped %d packets but replay certified no recoveries", dropped)
	}
}
