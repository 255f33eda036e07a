package stats

import (
	"slices"
	"testing"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// TestSeqTableReleaseThrough exercises the watermark on the validator's
// dense per-packet table: released coordinates read as absent, writes to them
// land in the scratch cell without resurrecting freed state, and the
// live-cell count reflects exactly the surviving tail.
func TestSeqTableReleaseThrough(t *testing.T) {
	var tab seqTable[packetAudit]
	for seq := 0; seq < 8; seq++ {
		tab.ensure(2, 0, seq).det = true
		tab.ensure(3, 0, seq).det = true
	}
	if got := tab.liveCells(); got != 16 {
		t.Fatalf("liveCells = %d, want 16", got)
	}

	tab.releaseThrough(0, 5)
	if got := tab.liveCells(); got != 6 {
		t.Fatalf("liveCells = %d after releasing 5 of 8 on 2 hosts, want 6", got)
	}
	if tab.get(2, 0, 4) != nil {
		t.Fatal("released cell still readable")
	}
	if p := tab.get(2, 0, 5); p == nil || !p.det {
		t.Fatal("surviving cell lost after release")
	}

	// A write below the watermark goes to the scratch cell: it must not
	// grow the table or become readable.
	ghost := tab.ensure(2, 0, 1)
	ghost.det = true
	if tab.get(2, 0, 1) != nil {
		t.Fatal("released coordinate resurrected")
	}
	if got := tab.liveCells(); got != 6 {
		t.Fatalf("scratch write changed liveCells to %d", got)
	}
	// The scratch cell is re-zeroed per ensure, so one straggler cannot
	// leak state into the next.
	if tab.ensure(3, 0, 0).det {
		t.Fatal("scratch cell not zeroed between uses")
	}

	// Release on a different source leaves this stream alone.
	tab.releaseThrough(1, 100)
	if got := tab.liveCells(); got != 6 {
		t.Fatalf("foreign-source release dropped cells: %d", got)
	}
}

// TestStreamingAggregatesMatchRetained feeds an identical observation
// sequence to a retained-mode and a streaming-mode collector and
// asserts every aggregate answer is bit-identical: folding online and
// folding the retained records at query time visit recoveries in the
// same completion order.
func TestStreamingAggregatesMatchRetained(t *testing.T) {
	rtt := func(h topology.NodeID) time.Duration {
		return time.Duration(20+int(h)) * time.Millisecond
	}
	retained := New()
	streaming := New()
	streaming.StreamAggregates(rtt)

	feed := func(c *Collector) {
		for seq := 0; seq < 40; seq++ {
			host := topology.NodeID(2 + seq%3)
			det := sim.Time(time.Duration(seq) * time.Millisecond)
			rec := det + sim.Time(time.Duration(5+seq%7)*time.Millisecond)
			c.LossDetected(host, 0, seq, det)
			c.Recovered(host, 0, seq, rec, srm.RecoveryInfo{
				DetectedAt:  det,
				Expedited:   seq%4 == 0,
				OwnRequests: seq % 2,
				Reschedules: seq % 3,
			})
		}
	}
	feed(retained)
	feed(streaming)

	for _, h := range []topology.NodeID{2, 3, 4} {
		if r, s := retained.NormalizedRecovery(h, rtt), streaming.NormalizedRecovery(h, rtt); r != s {
			t.Fatalf("host %d NormalizedRecovery: retained %+v streaming %+v", h, r, s)
		}
		re, rn := retained.NormalizedRecoverySplit(h, rtt)
		se, sn := streaming.NormalizedRecoverySplit(h, rtt)
		if re != se || rn != sn {
			t.Fatalf("host %d split: retained %+v/%+v streaming %+v/%+v", h, re, rn, se, sn)
		}
	}
	if r, s := retained.OverallNormalized(rtt), streaming.OverallNormalized(rtt); r != s {
		t.Fatalf("OverallNormalized: retained %+v streaming %+v", r, s)
	}
	if r, s := retained.FirstRoundNormalized(rtt), streaming.FirstRoundNormalized(rtt); r != s {
		t.Fatalf("FirstRoundNormalized: retained %+v streaming %+v", r, s)
	}
	// Retained-record APIs legitimately report empty in streaming mode.
	if len(streaming.Recoveries()) != 0 {
		t.Fatal("streaming collector retained Recovery records")
	}
}

// TestStreamingExpRequestedPacketsSurviveRelease checks both modes report
// the distinct expedited-request keys in (host, source, seq) order,
// whatever the request order and repeats, and that the benchmark's
// release call loses none of them.
func TestStreamingExpRequestedPacketsSurviveRelease(t *testing.T) {
	want := []ExpRequestKey{{Host: 2, Source: 0, Seq: 3}, {Host: 2, Source: 1, Seq: 1}, {Host: 3, Source: 0, Seq: 7}}
	for _, streaming := range []bool{false, true} {
		c := New()
		if streaming {
			c.StreamAggregates(func(topology.NodeID) time.Duration { return 20 * time.Millisecond })
		}
		c.ExpRequestSent(3, 0, 7)
		c.ExpRequestSent(2, 0, 3)
		c.ExpRequestSent(2, 0, 3) // a repeat
		c.ExpRequestSent(2, 1, 1)
		c.ReleasePacketsThrough(0, 10)
		if got := c.ExpRequestedPackets(); !slices.Equal(got, want) {
			t.Fatalf("streaming=%v: ExpRequestedPackets = %v, want %v", streaming, got, want)
		}
	}
}

// TestRecorderStreamsWithoutRetention checks the recorder's streaming
// contract: the sink sees every event in order and Len counts them,
// while retention-off keeps Events nil.
func TestRecorderStreamsWithoutRetention(t *testing.T) {
	r := NewRecorder(nil)
	var sunk []Event
	r.SetSink(func(ev Event) { sunk = append(sunk, ev) })
	r.SetKeep(false)

	r.LossDetected(2, 0, 1, sim.Time(time.Millisecond))
	r.RequestSent(2, 0, 1, 0)
	r.Recovered(2, 0, 1, sim.Time(5*time.Millisecond), srm.RecoveryInfo{Replier: 3})
	r.SessionSent(0)

	if r.Events() != nil {
		t.Fatalf("retention off but Events holds %d entries", len(r.Events()))
	}
	if r.Len() != 4 || len(sunk) != 4 {
		t.Fatalf("Len = %d, sink saw %d, want 4 each", r.Len(), len(sunk))
	}
	if sunk[0].Kind != EventLossDetected || sunk[2].Kind != EventRecovered || sunk[2].Replier != 3 {
		t.Fatalf("sink stream out of order or lossy: %+v", sunk)
	}

	// Retention on: same stream lands in both places.
	kept := NewRecorder(nil)
	n := 0
	kept.SetSink(func(Event) { n++ })
	kept.SessionSent(1)
	if len(kept.Events()) != 1 || n != 1 || kept.Len() != 1 {
		t.Fatalf("retained recorder: events=%d sink=%d len=%d", len(kept.Events()), n, kept.Len())
	}
}
