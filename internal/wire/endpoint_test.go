package wire

import (
	"reflect"
	"testing"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

type deliveredTo map[topology.NodeID]bool

func (d deliveredTo) host(id topology.NodeID) netsim.Host {
	return hostFunc(func(sim.Time, *netsim.Packet) { d[id] = true })
}

type hostFunc func(sim.Time, *netsim.Packet)

func (f hostFunc) Deliver(now sim.Time, p *netsim.Packet) { f(now, p) }

// TestUnicastThenSubcastMatchesSimulator: for every member sending
// through every node of a small tree, the wire endpoint emits to the
// members the simulated network delivers to, but for one: the
// simulator's subcast also reaches the sender when it lies strictly
// below via, while a wire node never sends to itself. A receiver that
// replies through its turning point (its LCA with the requestor) always
// lies below it. Nothing in the wire node reaches this method today
// (NodeConfig has no router-assist switch), so this test is what keeps
// the two delivery sets in step.
func TestUnicastThenSubcastMatchesSimulator(t *testing.T) {
	//	     0
	//	   /   \
	//	  1     2
	//	 / \     \
	//	3   4     5
	//	          |
	//	          6
	tree, err := topology.New([]topology.NodeID{topology.None, 0, 0, 1, 1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	mem := members(tree)
	for _, from := range mem {
		for via := topology.NodeID(0); int(via) < tree.NumNodes(); via++ {
			sent := deliveredTo{}
			w := NewNetwork(tree, netsim.DefaultConfig(), from, func() sim.Time { return 0 })
			w.SetSend(func(dst topology.NodeID, _ []byte) { sent[dst] = true })
			w.UnicastThenSubcast(from, via, &netsim.Packet{Class: netsim.Payload, Msg: &srm.ReplyMsg{Replier: from, Expedited: true}})

			got := deliveredTo{}
			eng := sim.NewEngine()
			n := netsim.MustNew(eng, tree, netsim.DefaultConfig())
			for _, m := range mem {
				n.AttachHost(m, got.host(m))
			}
			n.UnicastThenSubcast(from, via, &netsim.Packet{Class: netsim.Payload, Msg: &srm.ReplyMsg{Replier: from, Expedited: true}})
			eng.Run()

			if via != from && w.inSubtree(from, via) {
				sent[from] = true
			}
			if !reflect.DeepEqual(sent, got) {
				t.Errorf("from %d via %d: the wire emits to %v, the simulator delivers to %v", from, via, sent, got)
			}
		}
	}
}
