package srm

import (
	"math"
	"testing"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
)

// TestStreamStateWatermarkRelease exercises the sliding release window
// directly: the held prefix advances with contiguous receipt, live
// reply abstinence pins the releasable watermark, release rebases the
// dense windows, and every accessor honors the base invariant
// (base ≤ held ≤ cursor) afterwards.
func TestStreamStateWatermarkRelease(t *testing.T) {
	st := newStreamState(&Agent{}, 0)
	releasable := func(now sim.Time) int {
		n, _ := st.releasableBelow(now, math.MaxInt)
		return n
	}
	for i := 0; i < 10; i++ {
		st.received.Mark(i)
	}
	if st.received.Held() != 10 {
		t.Fatalf("held = %d after 10 contiguous receipts, want 10", st.received.Held())
	}

	// A packet inside its reply-abstinence period pins the watermark.
	st.word(4).setHorizon(sim.Time(100))
	if got := releasable(sim.Time(50)); got != 4 {
		t.Fatalf("releasableThrough mid-abstinence = %d, want 4", got)
	}
	// Once the abstinence expires, the whole held prefix is releasable.
	if got := releasable(sim.Time(100)); got != 10 {
		t.Fatalf("releasableThrough after abstinence = %d, want 10", got)
	}

	st.releaseThrough(6)
	if st.received.Base() != 6 {
		t.Fatalf("base = %d after releaseThrough(6), want 6", st.received.Base())
	}
	// Released sequence numbers still read as held — release is gated on
	// every live host holding them — with no live loss or reply state.
	if !st.received.Has(3) {
		t.Fatal("released seq 3 must report held")
	}
	if st.losses.At(3) != nil || st.replies.At(4) != (replyCell{}) || st.wordAt(4) != 0 || st.ownPlane.Base() != 6 {
		t.Fatal("released seqs must have no loss record, a zero reply cell and no reply word")
	}
	// A straggler touching a released coordinate mutates nothing live.
	st.word(2).setHorizon(sim.Time(999))
	if got := releasable(sim.Time(0)); got != 10 {
		t.Fatalf("throwaway reply state leaked into the watermark: %d", got)
	}

	// The window keeps sliding after a release.
	st.received.Mark(10)
	if st.received.Held() != 11 || !st.received.Has(10) {
		t.Fatalf("held = %d has(10) = %v after post-release receipt", st.received.Held(), st.received.Has(10))
	}
	// releaseThrough clamps to held and frees everything retained.
	st.releaseThrough(50)
	if st.received.Base() != 11 {
		t.Fatalf("base = %d after clamped release, want 11", st.received.Base())
	}
	if st.Len() != 0 {
		t.Fatalf("window = %d after full release, want 0", st.Len())
	}

	// Leave → release on the others → Join, on live agents. A departed
	// host neither votes nor is released; rejoined, it holds nothing
	// until its first post-join evidence opens its stream, and then its
	// windows are based at that floor, whatever its peers released
	// meanwhile, while theirs stay where the release left them.
	f := newFixture(t, yTree(), detParams())
	// A packet reaches both receivers 51 ms after it is sent: at(seq)
	// is an instant by which seq has arrived and seq+1 has not left.
	const period = 100 * time.Millisecond
	at := func(seq int) sim.Time { return sim.Time(time.Duration(seq)*period + 3*period/4) }
	f.sendData(22, period)
	src, leaver, stayer := f.agents[0], f.agents[2], f.agents[3]
	f.eng.RunUntil(at(19))
	leaver.Leave() // holds 0..19, misses 20
	f.eng.RunUntil(at(20))
	src.ReleaseThrough(0, 12)
	stayer.ReleaseThrough(0, 12)
	leaver.Join()
	if _, _, open := leaver.HeldWindow(0); open || leaver.ReleasableThrough(0) != 0 {
		t.Fatal("a rejoined host must hold nothing until its stream opens")
	}
	f.eng.RunUntil(at(21)) // first post-join evidence: data 21
	leaver.Stop()
	if base, held, open := leaver.HeldWindow(0); !open || base != 21 || held != 22 {
		t.Fatalf("rejoiner's window = [%d, %d) open=%v, want [21, 22) based at its floor", base, held, open)
	}
	if st := leaver.peek(0); st.losses.Base() != 21 || st.replies.Base() != 21 || st.Cursor() != 22 {
		t.Fatalf("rejoiner's loss/reply windows based at %d/%d, cursor %d, want 21/21/22",
			st.losses.Base(), st.replies.Base(), st.Cursor())
	}
	if base, held, open := stayer.HeldWindow(0); !open || base != 12 || held != 22 {
		t.Fatalf("stayer's window = [%d, %d) open=%v, want [12, 22) as released", base, held, open)
	}
	if n := len(f.log.detections); n != 0 {
		t.Fatalf("%d losses detected, want none: the rejoiner is not owed seq 20", n)
	}
}

// TestInspectorsLeaveLateJoinFloorAlone is the regression test for the
// read-only inspector that defeated the floor: the run's completion
// monitor polls ClassifiedThrough on every present host every tick, and
// when it created the stream it asked about, a tick landing between a
// Join and the joiner's first post-join packet left a stream based at 0
// that streamFloored would never floor — the joiner then chased the
// whole history it is not owed. No inspector or read path may create
// stream state; only Transmit and streamFloored do.
func TestInspectorsLeaveLateJoinFloorAlone(t *testing.T) {
	f := newFixture(t, yTree(), detParams())
	a := f.agents[2]
	a.Leave()
	a.Join()
	defer a.Stop()
	now := f.eng.Now()
	if got := a.ClassifiedThrough(0); got != 0 {
		t.Fatalf("ClassifiedThrough = %d on a stateless host, want 0", got)
	}
	_, _, open := a.HeldWindow(0)
	n, visited := a.ReleasableBelow(0, math.MaxInt)
	sent := a.SendExpeditedReply(now, &RequestMsg{Source: 0, Seq: 7, Requestor: 3, Expedited: true}, false)
	if open || n != 0 || visited != 0 || a.ReleasableThrough(0) != 0 || sent ||
		a.Has(0, 7) || a.EverLost(0, 7) || a.ReplyBlocked(now, 0, 7) || a.MissingIn(0, 3) != 3 || a.AbandonedIn(0) != 0 {
		t.Fatal("a host with no stream state holds, owes and answers nothing")
	}
	a.ReleaseThrough(0, 5)
	if srcs := a.Sources(); len(srcs) != 0 {
		t.Fatalf("read paths created stream state for %v", srcs)
	}

	const s = 500
	data := func(seq int) *netsim.Packet {
		return &netsim.Packet{Class: netsim.Payload, Msg: &DataMsg{Source: 0, Seq: seq}}
	}
	a.Deliver(now, data(s))
	if st := a.peek(0); st == nil || st.received.Base() != s || st.Cursor() != s+1 {
		t.Fatalf("first post-join data at seq %d did not open the stream there: %+v", s, st)
	}
	if got := a.ClassifiedThrough(0); got != s+1 {
		t.Fatalf("ClassifiedThrough = %d, want %d", got, s+1)
	}
	// The floor is where detection starts: a gap above it is a loss,
	// nothing below it ever is.
	a.Deliver(now, data(s+2))
	if len(f.log.detections) != 1 || f.log.detections[0].seq != s+1 {
		t.Fatalf("detections = %+v, want exactly seq %d", f.log.detections, s+1)
	}
}

// TestStreamStateHeldGap checks the held prefix stalls at a gap and the
// releasable watermark never passes it.
func TestStreamStateHeldGap(t *testing.T) {
	st := newStreamState(&Agent{}, 0)
	releasable := func(now sim.Time) int {
		n, _ := st.releasableBelow(now, math.MaxInt)
		return n
	}
	st.received.Mark(0)
	st.received.Mark(2) // gap at 1
	if st.received.Held() != 1 {
		t.Fatalf("held = %d with a gap at 1, want 1", st.received.Held())
	}
	if got := releasable(sim.Time(1 << 40)); got != 1 {
		t.Fatalf("releasableThrough = %d with a gap at 1, want 1", got)
	}
	st.received.Mark(1)
	if st.received.Held() != 3 {
		t.Fatalf("held = %d after the gap filled, want 3", st.received.Held())
	}
}

// TestReplyCellBelowBaseAllocationFree: a straggling reply for a
// released coordinate lands in the window's scratch cell — no heap
// object, zeroed between uses, nothing live moved — through the real
// handler.
func TestReplyCellBelowBaseAllocationFree(t *testing.T) {
	f := newFixture(t, yTree(), detParams())
	a := f.agents[2]
	for i := 0; i < 10; i++ {
		a.Deliver(0, &netsim.Packet{Class: netsim.Payload, Msg: &DataMsg{Source: 0, Seq: i}})
	}
	a.ReleaseThrough(0, 8)
	st := a.peek(0)
	straggler := &netsim.Packet{Msg: &ReplyMsg{Source: 0, Seq: 2, Requestor: 3, Replier: 0}}
	avg := testing.AllocsPerRun(100, func() {
		if c := st.replies.Ensure(2); *c != (replyCell{}) {
			t.Fatal("scratch reply cell not zeroed between uses")
		}
		a.Deliver(0, straggler)
	})
	if avg != 0 {
		t.Fatalf("a reply below the watermark allocates %.1f objects, want 0", avg)
	}
	if n := a.ReleasableThrough(0); n != 10 || st.replies.Len() != 0 {
		t.Fatalf("the straggler reached live state: releasable %d, %d reply cells", n, st.replies.Len())
	}
}
