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

	// Leave → release on the others → Join. A departed host neither
	// votes nor is released; rejoined, it holds nothing until its first
	// post-join contact applies the floor, and then its windows are based
	// there, whatever its peers released meanwhile, while theirs stay
	// where the release left them.
	transmit := func(seq int) {
		b.eng.ScheduleAt(b.eng.Now()+sim.Time(time.Millisecond), func(sim.Time) {
			b.agents[0].Transmit(seq)
		})
		b.eng.Run()
	}
	leaver, stayer := b.agents[6], b.agents[3]
	detections := b.log.detections
	leaver.Leave() // holds 0..4
	transmit(5)    // missed by the leaver
	for _, id := range []topology.NodeID{0, 3, 4} {
		b.agents[id].ReleaseThrough(0, 6)
	}
	leaver.Join()
	if _, held, open := leaver.HeldWindow(0); open || held != 0 || leaver.ReleasableThrough(0) != 0 {
		t.Fatal("a rejoined host must hold nothing until its stream opens")
	}
	transmit(6) // first post-join contact
	if base, held, open := leaver.HeldWindow(0); !open || base != 6 || held != 7 {
		t.Fatalf("rejoiner's window = [%d, %d) open=%v, want [6, 7) based at its floor", base, held, open)
	}
	if leaver.rx.Losses().Base() != 6 || leaver.rx.Replies().Base() != 6 || leaver.ClassifiedThrough(0) != 7 {
		t.Fatalf("rejoiner's loss/pending windows based at %d/%d, cursor %d, want 6/6/7",
			leaver.rx.Losses().Base(), leaver.rx.Replies().Base(), leaver.ClassifiedThrough(0))
	}
	if base, held, open := stayer.HeldWindow(0); !open || base != 6 || held != 7 {
		t.Fatalf("stayer's window = [%d, %d) open=%v, want [6, 7) as released", base, held, open)
	}
	if n, visited := stayer.ReleasableBelow(0, 6); n != 6 || visited != 0 {
		t.Fatalf("ReleasableBelow(6) = %d reading %d cells, want the limit and no reads", n, visited)
	}
	if b.log.detections != detections {
		t.Fatalf("%d losses detected across the rejoin, want none: the rejoiner is not owed seq 5",
			b.log.detections-detections)
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
