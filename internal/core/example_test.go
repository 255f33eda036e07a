package core_test

import (
	"fmt"
	"log"
	"time"

	"cesrm/internal/core"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
)

// Example_multisource runs two concurrent single-source streams over one
// multicast group. CESRM keeps one requestor/replier cache per source
// (§3.1), so expedited recovery works independently per stream even
// when the streams lose packets in different bursts.
func Example_multisource() {
	// A 10-receiver tree; stream A originates at the tree root, stream B
	// at the first receiver (any member may source its own stream).
	tree := topology.MustGenerate(sim.NewRNG(4), topology.GenSpec{Receivers: 10, Depth: 4})
	streamA := tree.Root()
	streamB := tree.Receivers()[0]

	eng := sim.NewEngine()
	net, err := netsim.New(eng, tree, netsim.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	collector := stats.New()

	// One CESRM agent per member (source + receivers).
	rng := sim.NewRNG(99)
	hosts := append([]topology.NodeID{tree.Root()}, tree.Receivers()...)
	agents := make(map[topology.NodeID]*core.Agent, len(hosts))
	for _, id := range hosts {
		a, err := core.NewAgent(eng, net, rng.Split(), id, core.DefaultConfig(), collector)
		if err != nil {
			log.Fatal(err)
		}
		agents[id] = a
		a.StartSessions()
	}

	// Both streams lose 5-packet bursts, at offset phases, on the same
	// receiver's leaf link, which every flood crosses downward whichever
	// member sourced it. The loss is declared once per send: a burst data
	// packet loses exactly that link, every other packet nothing.
	lossy := tree.Receivers()[5]
	lossLink := []topology.LinkID{topology.LinkID(lossy)}
	net.SetLossFunc(func(p *netsim.Packet) ([]topology.LinkID, bool) {
		m, ok := p.Msg.(*srm.DataMsg)
		if !ok {
			return nil, true
		}
		phase := m.Seq % 50
		switch {
		case m.Source == streamA && phase >= 10 && phase < 15,
			m.Source == streamB && phase >= 30 && phase < 35:
			return lossLink, true
		}
		return nil, true
	})

	// Interleave 2000 packets per stream at 80 ms, after a session
	// warm-up.
	const packets = 2000
	warmup := 3 * time.Second
	for i := 0; i < packets; i++ {
		seq := i
		eng.ScheduleAt(sim.Time(warmup+time.Duration(i)*80*time.Millisecond), func(sim.Time) {
			agents[streamA].Transmit(seq)
		})
		eng.ScheduleAt(sim.Time(warmup+time.Duration(i)*80*time.Millisecond+40*time.Millisecond), func(sim.Time) {
			agents[streamB].Transmit(seq)
		})
	}
	// Stop sessions once both streams are fully recovered everywhere.
	var monitor func(now sim.Time)
	monitor = func(now sim.Time) {
		for _, id := range hosts {
			a := agents[id].SRM()
			if a.MissingIn(streamA, packets) != 0 || a.MissingIn(streamB, packets) != 0 || a.Outstanding() > 0 {
				eng.Schedule(time.Second, monitor)
				return
			}
		}
		for _, a := range agents {
			a.Stop()
		}
	}
	eng.ScheduleAt(sim.Time(warmup+packets*80*time.Millisecond), monitor)
	eng.Run()

	fmt.Printf("two concurrent streams over %v\n\n", tree)
	for _, src := range []topology.NodeID{streamA, streamB} {
		var n, exp int
		for _, r := range collector.Recoveries() {
			if r.Source != src {
				continue
			}
			n++
			if r.Expedited {
				exp++
			}
		}
		fmt.Printf("stream from host %d: %d recoveries, %d expedited (%.0f%%)\n",
			src, n, exp, 100*float64(exp)/float64(n))
	}

	// The lossy receiver holds one cache per stream it lost packets of.
	probe := agents[lossy]
	ca, cb := probe.Cache(streamA), probe.Cache(streamB)
	fmt.Printf("\nreceiver %d cache sizes: stream A=%d entries, stream B=%d entries\n",
		probe.ID(), ca.Len(), cb.Len())
	if ta, ok := ca.MostRecent(); ok {
		fmt.Printf("  stream A most-recent pair: requestor %d -> replier %d\n", ta.Requestor, ta.Replier)
	}
	if tb, ok := cb.MostRecent(); ok {
		fmt.Printf("  stream B most-recent pair: requestor %d -> replier %d\n", tb.Requestor, tb.Replier)
	}
	// Output:
	// two concurrent streams over tree{nodes=15 receivers=10 depth=4}
	//
	// stream from host 0: 200 recoveries, 195 expedited (98%)
	// stream from host 5: 200 recoveries, 195 expedited (98%)
	//
	// receiver 10 cache sizes: stream A=16 entries, stream B=16 entries
	//   stream A most-recent pair: requestor 10 -> replier 7
	//   stream B most-recent pair: requestor 10 -> replier 7
}
