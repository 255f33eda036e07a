package core

import (
	"testing"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// tally is an srm.Observer that counts and retains nothing.
type tally struct {
	recovered, expRecovered, requests, expRequests, expReplies int
}

func (c *tally) LossDetected(_, _ topology.NodeID, _ int, _ sim.Time) {}
func (c *tally) Recovered(_, _ topology.NodeID, _ int, _ sim.Time, info srm.RecoveryInfo) {
	c.recovered++
	if info.Expedited {
		c.expRecovered++
	}
}
func (c *tally) RequestSent(_, _ topology.NodeID, _ int, _ int) { c.requests++ }
func (c *tally) ExpRequestSent(_, _ topology.NodeID, _ int)     { c.expRequests++ }
func (c *tally) ReplySent(_, _ topology.NodeID, _ int, expedited bool) {
	if expedited {
		c.expReplies++
	}
}
func (c *tally) SessionSent(topology.NodeID)                         {}
func (c *tally) RequestAbandoned(_, _ topology.NodeID, _ int, _ int) {}

// TestExpeditedRoundAllocationAmortised pins CESRM's expedited round —
// loss detected, cache hit, REORDER-DELAY timer, unicast expedited
// request, expedited reply, recovery, cache update on every host — at
// nothing once warm: the frames come back after their last delivery and
// the records at release, and both the request and the REORDER-DELAY
// timer are the loss record itself. (On
// this tree the SRM request timer beats the expedited round trip, so
// every round also multicasts one SRM request: five packets and three
// timers a round, which cost one object each — and a second per packet —
// before the arenas.) With a non-zero REORDER-DELAY the timer really
// waits in the wheel; with the paper's zero it fires within the instant.
func TestExpeditedRoundAllocationAmortised(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on this path; the plain test run enforces this pin")
	}
	for _, reorder := range []time.Duration{0, 5 * time.Millisecond} {
		cfg := detConfig()
		cfg.ReorderDelay = reorder
		obs := &tally{}
		b := newBedObserved(t, forkTree(), cfg, obs)
		src := b.agents[0]
		seq, lost := 0, -1
		b.net.SetDropFunc(func(p *netsim.Packet, link topology.LinkID, down bool) bool {
			m, ok := p.Msg.(*srm.DataMsg)
			return ok && down && link == 2 && m.Seq == lost
		})
		round := func() {
			// Host 2 misses seq and sees the gap when seq+1 arrives.
			lost = seq
			src.Transmit(seq)
			src.Transmit(seq + 1)
			seq += 2
			b.eng.Run()
			for _, a := range b.agents {
				a.SRM().ReleaseThrough(0, seq)
			}
		}
		round() // an SRM recovery fills host 2's cache
		if obs.recovered != 1 || obs.expRecovered != 0 {
			t.Fatalf("reorder %v: priming round recovered %d (%d expedited), want one SRM recovery", reorder, obs.recovered, obs.expRecovered)
		}
		const rounds = 128
		// A few objects are allowed for the runtime's own occasional
		// allocations; frames that never came back would cost dozens.
		got := testing.AllocsPerRun(1, func() {
			for i := 0; i < rounds; i++ {
				round()
			}
		})
		if got > 4 {
			t.Errorf("reorder %v: %d expedited rounds allocate %.0f objects, want 0", reorder, rounds, got)
		}
		if n := 2 * rounds; obs.expRecovered != n || obs.expRequests != n || obs.expReplies != n {
			t.Fatalf("reorder %v: %d rounds: %d expedited recoveries, %d expedited requests, %d expedited replies, %d SRM requests",
				reorder, n, obs.expRecovered, obs.expRequests, obs.expReplies, obs.requests)
		}
	}
}
