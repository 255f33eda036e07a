package netsim

import (
	"math/rand"
	"testing"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// sliceQueue is the per-link FIFO hopArrival used to keep: a slice
// pruned by reslicing its head away and grown by append, so its backing
// array crept forward and reallocated every few packets. It is the
// model the in-place queue must agree with.
type sliceQueue struct {
	cap        int
	tx, delay  time.Duration
	busyUntil  sim.Time
	queued     []sim.Time
	queueDrops uint64
}

func (m *sliceQueue) arrival(at sim.Time) (sim.Time, bool) {
	q := m.queued
	for len(q) > 0 && !q[0].After(at) {
		q = q[1:]
	}
	if len(q) >= m.cap {
		m.queued = q
		m.queueDrops++
		return at, false
	}
	start := at
	if m.busyUntil.After(start) {
		start = m.busyUntil
	}
	finish := start.Add(m.tx)
	m.busyUntil = finish
	m.queued = append(q, finish)
	return finish.Add(m.delay), true
}

// TestHopArrivalInPlaceQueueMatchesSliceModel drives one capped link
// direction with a random arrival schedule — bursts that overflow the
// queue, lulls that drain it, exact ties with finish instants — and
// requires every arrival instant, every tail-drop and the drop counter
// to equal the old slice implementation's, under queueCap = 2 and a
// deeper cap; then pins the steady state at zero allocations.
func TestHopArrivalInPlaceQueueMatchesSliceModel(t *testing.T) {
	for _, qcap := range []int{2, 5} {
		cfg := DefaultConfig()
		cfg.Queuing = true
		eng := sim.NewEngine()
		tree := topology.MustNew([]topology.NodeID{topology.None, 0, 1})
		net := MustNew(eng, tree, cfg)
		net.SetQueueCap(qcap)
		model := &sliceQueue{cap: qcap, tx: net.txPayload, delay: cfg.LinkDelay}
		payload, control := &Packet{Class: Payload}, &Packet{Class: Control}

		rng := rand.New(rand.NewSource(int64(qcap)))
		at := sim.Time(0)
		step := func() {
			switch rng.Intn(4) {
			case 0: // burst: same instant
			case 1: // land exactly on the next finish instant
				if len(model.queued) > 0 {
					at = model.queued[0]
				}
			case 2:
				at = at.Add(time.Duration(rng.Int63n(int64(net.txPayload))))
			default:
				at = at.Add(time.Duration(rng.Int63n(int64(4 * net.txPayload))))
			}
		}
		const link, down = topology.LinkID(2), true
		for i := 0; i < 5000; i++ {
			step()
			if i%7 == 0 {
				// Control packets serialize in no time and occupy no buffer.
				if arr, ok := net.hopArrival(link, down, at, control); !ok || arr.Before(at.Add(cfg.LinkDelay)) {
					t.Fatalf("cap %d step %d: control packet arrival = %v, %v", qcap, i, arr, ok)
				}
			}
			wantArr, wantOK := model.arrival(at)
			gotArr, gotOK := net.hopArrival(link, down, at, payload)
			if gotArr != wantArr || gotOK != wantOK {
				t.Fatalf("cap %d step %d at %v: arrival = %v, %v; slice model %v, %v", qcap, i, at, gotArr, gotOK, wantArr, wantOK)
			}
			if net.QueueDrops() != model.queueDrops {
				t.Fatalf("cap %d step %d: queueDrops = %d, slice model %d", qcap, i, net.QueueDrops(), model.queueDrops)
			}
			if q := net.queued[0][link]; len(q) > qcap || cap(q) > 2*qcap+2 {
				t.Fatalf("cap %d step %d: queue len %d cap %d outgrew the bound", qcap, i, len(q), cap(q))
			}
		}
		if model.queueDrops == 0 || model.queueDrops == 5000 {
			t.Fatalf("cap %d: %d drops in 5000 arrivals; the schedule never exercised both outcomes", qcap, model.queueDrops)
		}
		// One measured run of many hops: AllocsPerRun's per-run average
		// would truncate the old queue's reallocations, one every few
		// accepted packets, to zero. One object is allowed for the
		// runtime's own occasional allocation.
		if n := testing.AllocsPerRun(1, func() {
			for i := 0; i < 1000; i++ {
				step()
				net.hopArrival(link, down, at, payload)
			}
		}); n > 1 {
			t.Fatalf("cap %d: 1000 payload hops allocate %.0f objects, want 0", qcap, n)
		}
	}
}

// TestUnicastAllocationFree pins the unicast path at zero allocations
// once warm, across a depth-7 tree (fourteen links leaf to leaf), on the
// fixed-delay path and on the capped queuing path: the walk goes through
// the network's reused path buffer instead of a materialised PathLinks.
// The capped network then pins a whole queuing flood at zero too.
func TestUnicastAllocationFree(t *testing.T) {
	for _, queuing := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Queuing = queuing
		eng := sim.NewEngine()
		tree := topology.MustGenerate(sim.NewRNG(1), topology.GenSpec{Receivers: 64, Depth: 7})
		net := MustNew(eng, tree, cfg)
		if queuing {
			net.SetQueueCap(2)
		}
		var from, to topology.NodeID
		hops := 0
		for _, a := range tree.Receivers() {
			for _, b := range tree.Receivers() {
				if h := tree.HopCount(a, b); h > hops {
					from, to, hops = a, b, h
				}
			}
		}
		if tree.MaxDepth() != 7 || hops < 10 {
			t.Fatalf("tree depth %d, longest leaf-to-leaf path %d links: not the deep walk this test wants", tree.MaxDepth(), hops)
		}
		rec := &countingHost{}
		net.AttachHost(from, nullHost{})
		net.AttachHost(to, rec)
		pkt := &Packet{Class: Control, Msg: reqMsg{}}
		send := func() {
			net.Unicast(from, to, pkt)
			eng.Run()
		}
		send()
		before := net.Counts().ControlUnicast
		if avg := testing.AllocsPerRun(100, send); avg != 0 {
			t.Fatalf("queuing=%v: Unicast over %d links allocates %.1f objects, want 0", queuing, hops, avg)
		}
		if got := net.Counts().ControlUnicast - before; got != uint64(101*hops) || rec.n != 102 {
			t.Fatalf("queuing=%v: %d crossings and %d deliveries for 101 sends over %d links", queuing, got, rec.n, hops)
		}
		if !queuing {
			continue
		}
		// The same warmed network floods hop by hop: runs come from the
		// pool with room for their steps.
		payload := &Packet{Class: Payload, Msg: dataMsg{}}
		flood := func() {
			net.Multicast(from, payload)
			eng.Run()
		}
		flood()
		if avg := testing.AllocsPerRun(100, flood); avg != 0 {
			t.Fatalf("queuing flood over %d nodes allocates %.1f objects, want 0", tree.NumNodes(), avg)
		}
	}
}

type countingHost struct{ n int }

func (c *countingHost) Deliver(sim.Time, *Packet) { c.n++ }
