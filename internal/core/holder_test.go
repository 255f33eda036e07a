package core

import (
	"testing"

	"cesrm/internal/netsim"
	"cesrm/internal/srm"
	"cesrm/internal/stats"
	"cesrm/internal/topology"
)

// TestLateJoinerNeverRepairsBelowItsFloor: host 3 is out of the group
// while packets 0–4 go out and rejoins before packet 5, the first
// evidence of the stream it hears, so its stream opens at 5. An
// expedited request for packet 2 then reaches it: it must not answer,
// since it never held 2, and the validator's invariant 11 watches.
func TestLateJoinerNeverRepairsBelowItsFloor(t *testing.T) {
	v := stats.NewValidator()
	log := newObsLog()
	b := newBedObserved(t, yTree(), detConfig(), stats.Tee{log, v})
	v.SetClock(b.eng.Now)
	src, joiner := b.agents[0], b.agents[3]
	joiner.Leave()
	v.NoteLeave(3, b.eng.Now())
	for seq := 0; seq < 5; seq++ {
		src.Transmit(seq)
	}
	b.eng.Run()
	joiner.Join()
	v.NoteJoin(3, b.eng.Now())
	joiner.Stop() // no session ticks: the next data packet is its first evidence
	src.Transmit(5)
	b.eng.Run()
	if base, _, open := joiner.HeldWindow(0); !open || base != 5 {
		t.Fatalf("the joiner's stream opened at %d (open %v), want 5", base, open)
	}
	joiner.Deliver(b.eng.Now(), &netsim.Packet{From: 2, To: 3, Mode: netsim.ModeUnicast, Class: netsim.Control,
		Msg: &srm.RequestMsg{Source: 0, Seq: 2, Requestor: 2, Expedited: true, TurningPoint: topology.None}})
	b.eng.Run()
	if log.expReplies != 0 {
		t.Fatalf("the joiner sent %d expedited replies for a packet below its floor", log.expReplies)
	}
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
	// The same request for packet 5, which it holds, is answered.
	joiner.Deliver(b.eng.Now(), &netsim.Packet{From: 2, To: 3, Mode: netsim.ModeUnicast, Class: netsim.Control,
		Msg: &srm.RequestMsg{Source: 0, Seq: 5, Requestor: 2, Expedited: true, TurningPoint: topology.None}})
	b.eng.Run()
	if log.expReplies != 1 {
		t.Fatalf("the joiner sent %d expedited replies for packet 5, which it holds", log.expReplies)
	}
	for _, x := range v.ViolationRecords() {
		if x.Class == "never-held-reply" {
			t.Fatal(x.Detail)
		}
	}
}
