package srm

import (
	"testing"

	"cesrm/internal/sim"
)

// TestStreamStateWatermarkRelease exercises the sliding release window
// directly: the held prefix advances with contiguous receipt, live
// reply abstinence pins the releasable watermark, release rebases the
// dense windows, and every accessor honors the base invariant
// (base ≤ held ≤ cursor) afterwards.
func TestStreamStateWatermarkRelease(t *testing.T) {
	st := newStreamState(nil, 0)
	for i := 0; i < 10; i++ {
		st.received.Mark(i)
	}
	if st.received.Held() != 10 {
		t.Fatalf("held = %d after 10 contiguous receipts, want 10", st.received.Held())
	}

	// A packet inside its reply-abstinence period pins the watermark.
	rs := st.ensureReply(4)
	rs.pendingUntil = sim.Time(100)
	if got := st.releasableThrough(sim.Time(50)); got != 4 {
		t.Fatalf("releasableThrough mid-abstinence = %d, want 4", got)
	}
	// Once the abstinence expires, the whole held prefix is releasable.
	if got := st.releasableThrough(sim.Time(100)); got != 10 {
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
	if st.losses.At(3) != nil || st.replies.At(4) != nil {
		t.Fatal("released seqs must have nil loss/reply records")
	}
	// A straggler touching a released coordinate mutates nothing live.
	ghost := st.ensureReply(2)
	ghost.pendingUntil = sim.Time(999)
	if got := st.releasableThrough(sim.Time(0)); got != 10 {
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
	if st.window() != 0 {
		t.Fatalf("window = %d after full release, want 0", st.window())
	}
}

// TestStreamStateHeldGap checks the held prefix stalls at a gap and the
// releasable watermark never passes it.
func TestStreamStateHeldGap(t *testing.T) {
	st := newStreamState(nil, 0)
	st.received.Mark(0)
	st.received.Mark(2) // gap at 1
	if st.received.Held() != 1 {
		t.Fatalf("held = %d with a gap at 1, want 1", st.received.Held())
	}
	if got := st.releasableThrough(sim.Time(1 << 40)); got != 1 {
		t.Fatalf("releasableThrough = %d with a gap at 1, want 1", got)
	}
	st.received.Mark(1)
	if st.received.Held() != 3 {
		t.Fatalf("held = %d after the gap filled, want 3", st.received.Held())
	}
}

// TestEnsureReplyBelowBaseAllocationFree: a straggler touching a
// released coordinate gets the stream's scratch record, not a fresh
// heap object, and the scratch is zeroed between uses.
func TestEnsureReplyBelowBaseAllocationFree(t *testing.T) {
	st := newStreamState(nil, 0)
	for i := 0; i < 10; i++ {
		st.received.Mark(i)
	}
	st.releaseThrough(8)
	avg := testing.AllocsPerRun(100, func() {
		rs := st.ensureReply(2)
		if rs.pendingUntil != 0 {
			t.Fatal("scratch reply state not zeroed between uses")
		}
		rs.pendingUntil = sim.Time(999)
	})
	if avg != 0 {
		t.Fatalf("ensureReply below the watermark allocates %.1f objects, want 0", avg)
	}
}
