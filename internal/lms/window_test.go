package lms

import (
	"testing"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// TestWatermarkRelease exercises the sliding release window on a live
// agent: after a run with a recovered loss, the full prefix is
// releasable, release rebases the dense windows without disturbing
// possession queries, and the window keeps sliding for packets sent
// after the release.
func TestWatermarkRelease(t *testing.T) {
	b := newBed(t, time.Second)
	// Drop seq 1 on receiver 4's leaf link so recovery state exists.
	b.net.SetDropFunc(func(p *netsim.Packet, l topology.LinkID, down bool) bool {
		m, ok := p.Msg.(*srm.DataMsg)
		return ok && down && m.Seq == 1 && l == 4
	})
	b.sendData(4, 100*time.Millisecond)
	b.eng.Run()

	a := b.agents[4]
	if a.MissingIn(0, 4) != 0 {
		t.Fatal("receiver 4 did not recover")
	}
	// LMS has no replier-side timers or abstinence: the whole held
	// prefix is releasable the moment it is held.
	if got := a.ReleasableThrough(0); got != 4 {
		t.Fatalf("ReleasableThrough = %d, want 4", got)
	}
	before := a.PacketWindow()
	a.ReleaseThrough(0, 4)
	if a.PacketWindow() >= before {
		t.Fatalf("PacketWindow %d did not shrink from %d", a.PacketWindow(), before)
	}
	// Released packets still read as held — a straggler NAK for them is
	// served from possession, not from the released records.
	for seq := 0; seq < 4; seq++ {
		if !a.Has(seq) {
			t.Fatalf("released seq %d must report held", seq)
		}
	}
	if a.MissingIn(0, 4) != 0 {
		t.Fatal("release changed MissingIn")
	}

	// The window keeps sliding after release.
	b.eng.ScheduleAt(b.eng.Now()+sim.Time(time.Millisecond), func(sim.Time) {
		b.agents[0].Transmit(4)
	})
	b.eng.Run()
	if !a.Has(4) {
		t.Fatal("post-release packet not received")
	}
	if a.ReleasableThrough(0) != 5 {
		t.Fatalf("ReleasableThrough = %d after post-release receipt, want 5", a.ReleasableThrough(0))
	}
	// Clamped release beyond held is a no-op past the prefix.
	a.ReleaseThrough(0, 100)
	if a.Has(4) != true || a.MissingIn(0, 5) != 0 {
		t.Fatal("clamped release corrupted possession state")
	}
}

// TestWatermarkReleaseRespectsCrash checks a crashed agent's watermark
// surface stays callable (the runner skips crashed hosts, but defense
// in depth is cheap).
func TestWatermarkReleaseRespectsCrash(t *testing.T) {
	b := newBed(t, time.Second)
	b.sendData(2, 100*time.Millisecond)
	b.eng.Run()
	a := b.agents[6]
	a.Crash()
	_ = a.ReleasableThrough(topology.NodeID(0))
	a.ReleaseThrough(0, 2)
}

// TestReleaseRefillAllocationFree pins the drift fix: the per-packet
// windows keep their backing arrays across a release, so once they have
// reached the peak in-flight size a receiver's steady receive→release
// cycle performs no heap allocations (the old copy-to-a-fresh-array
// release allocated per window per host per release).
func TestReleaseRefillAllocationFree(t *testing.T) {
	b := newBed(t, time.Second)
	a := b.agents[4]
	msg := &srm.DataMsg{Source: 0}
	pkt := &netsim.Packet{Class: netsim.Payload, Msg: msg}
	next := 0
	cycle := func() {
		for i := 0; i < 32; i++ {
			msg.Seq = next
			a.Deliver(b.eng.Now(), pkt)
			next++
		}
		a.ReleaseThrough(0, next-4)
	}
	cycle()
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("receive→release cycle allocates %.1f objects, want 0", avg)
	}
	if a.MissingIn(0, next) != 0 || a.PacketWindow() != 4 {
		t.Fatalf("window corrupted: missing %d, cells %d (want 0, 4)", a.MissingIn(0, next), a.PacketWindow())
	}
}
