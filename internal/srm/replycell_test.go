package srm

import (
	"testing"
	"unsafe"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
)

// TestReplyCellSize pins the layout the reply flood depends on: a cell
// is the record pointer alone, the abstinence horizon living in the
// reply word, one 8-byte word a member.
func TestReplyCellSize(t *testing.T) {
	if got := unsafe.Sizeof(replyCell{}); got != 8 {
		t.Fatalf("replyCell is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(replyWord(0)); got != 8 {
		t.Fatalf("replyWord is %d bytes, want 8", got)
	}
}

// TestLossRecordSize bounds the record every detected loss allocates:
// the recovery's report travels in the Recovered event, so the record
// holds only what recovery still needs. A 200-byte record once cost
// 3-4 % of peak heap on the wide workloads (EXPERIMENTS.md, perf
// ledger).
func TestLossRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(lossRecord{}); got > 152 {
		t.Fatalf("lossRecord is %d bytes, want at most 152", got)
	}
}

// TestReplyCellRecordLifetime walks one packet's cell through request →
// armed timer → first foreign reply → duplicate → a second request
// after the abstinence → own reply sent. Only considerReply creates a
// record; with fixed timers no record is reachable from a cell whose
// timer is spent — the cell hands it back to its stream, and the second
// round gets it back reset; with adaptive timers the one record stays
// and keeps counting replies.
func TestReplyCellRecordLifetime(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		f := newFixture(t, yTree(), detParams())
		a := f.agents[3]
		if adaptive {
			if err := a.EnableAdaptiveTimers(DefaultAdaptiveConfig()); err != nil {
				t.Fatal(err)
			}
		}
		const seq = 5
		for i := 0; i <= seq; i++ {
			a.Deliver(0, &netsim.Packet{Class: netsim.Payload, Msg: &DataMsg{Source: 0, Seq: i}})
		}
		st := a.peek(0)
		if st.replies.Len() != 0 {
			t.Fatalf("adaptive=%v: data alone grew the reply window to %d cells", adaptive, st.replies.Len())
		}
		request := &netsim.Packet{Msg: &RequestMsg{Source: 0, Seq: seq, Requestor: 2}}
		reply := &netsim.Packet{Msg: &ReplyMsg{Source: 0, Seq: seq, Requestor: 2, Replier: 0}}

		a.Deliver(0, request)
		first := st.replies.At(seq).rec
		if first == nil || !first.timer.Active() {
			t.Fatalf("adaptive=%v: a request for a held packet armed no reply", adaptive)
		}
		a.Deliver(0, reply)
		a.Deliver(0, reply)
		c := st.replies.At(seq)
		if first.timer.Active() || !a.ReplyBlocked(0, 0, seq) {
			t.Fatalf("adaptive=%v: the foreign reply did not cancel the timer and start the abstinence", adaptive)
		}
		if !adaptive && (c.rec != nil || st.freeReplies != first) {
			t.Fatal("fixed timers: the cell did not hand its spent record back to the stream")
		}
		if adaptive && (c.rec != first || first.repliesSeen != 2) {
			t.Fatalf("adaptive timers: record %p (was %p) saw %d replies, want the same record and 2",
				c.rec, first, first.repliesSeen)
		}
		if !adaptive {
			// Scribble over the free record: whoever takes it must reset it.
			first.repliesSeen, first.requestor, first.reqDistSrc = 7, 9, -1
		}

		// Past the abstinence a second request arms a reply again, and this
		// time nothing pre-empts it.
		// The word is scheduled exactly while the cell keeps a record.
		if got := st.wordAt(seq)&scheduled != 0; got != (c.rec != nil) {
			t.Fatalf("adaptive=%v: scheduled %v with record %p in the cell", adaptive, got, c.rec)
		}
		f.eng.RunUntil(st.wordAt(seq).horizon())
		a.Deliver(f.eng.Now(), request)
		second := st.replies.At(seq).rec
		if second == nil || !second.timer.Active() {
			t.Fatalf("adaptive=%v: the second round armed no reply", adaptive)
		}
		if second != first {
			t.Fatalf("adaptive=%v: second round's record %p, first round's %p", adaptive, second, first)
		}
		if !adaptive && (st.freeReplies != nil || second.next != nil || second.repliesSeen != 0 ||
			second.requestor != 2 || second.reqDistSrc != 0 || second.requestAt != f.eng.Now()) {
			t.Fatalf("fixed timers: the second round's record is not reset: %+v", *second)
		}
		// D2 = 0: the timer fires D1·d(requestor) = one distance later. The
		// reply's own deliveries are still in flight when the clock stops.
		f.eng.RunUntil(f.eng.Now().Add(f.net.Distance(3, 2)))
		if len(f.log.replies) != 1 {
			t.Fatalf("adaptive=%v: %d replies sent, want 1", adaptive, len(f.log.replies))
		}
		c = st.replies.At(seq)
		if !f.eng.Now().Before(st.wordAt(seq).horizon()) {
			t.Fatalf("adaptive=%v: sending the reply started no abstinence", adaptive)
		}
		if !adaptive && c.rec != nil {
			t.Fatal("fixed timers: the cell still holds a record whose timer fired")
		}
		if adaptive && first.repliesSeen != 3 {
			t.Fatalf("adaptive timers: the record saw %d replies, want 3", first.repliesSeen)
		}
	}
}

// TestRejoinAndRestartDropResolvedStream: the agent keeps the stream its
// latest delivery resolved in front of the stream table, and both
// transitions that replace the table must drop it. A stale one hands
// the pre-leave stream back to the first post-join packet, which then
// never receives its late-join floor — silently undoing the rule that a
// joiner is owed nothing from before its join.
func TestRejoinAndRestartDropResolvedStream(t *testing.T) {
	const s = 40
	for _, restart := range []bool{false, true} {
		f := newFixture(t, yTree(), detParams())
		a := f.agents[2]
		for i := 0; i < 4; i++ {
			a.Deliver(0, &netsim.Packet{Class: netsim.Payload, Msg: &DataMsg{Source: 0, Seq: i}})
		}
		old := a.peek(0)
		if old == nil || a.last != old {
			t.Fatal("the delivery path did not keep the stream it resolved")
		}
		if restart {
			a.Crash()
			a.Restart()
		} else {
			a.Leave()
			a.Join()
		}
		if a.last != nil {
			t.Fatalf("restart=%v: the resolved stream survived the stream table it indexed", restart)
		}
		a.Deliver(f.eng.Now(), &netsim.Packet{Msg: &ReplyMsg{Source: 0, Seq: s, Requestor: 3, Replier: 0}})
		a.Stop()
		st := a.peek(0)
		if st == nil || st == old || a.last != st {
			t.Fatalf("restart=%v: first post-rejoin reply resolved stream %p (pre-leave %p, table %p)", restart, a.last, old, st)
		}
		// A rejoiner's stream opens at its first evidence; an amnesiac
		// restart re-detects from 0 and holds nothing from its past life.
		wantBase, wantLosses := s, 0
		if restart {
			wantBase, wantLosses = 0, s
		}
		if base, _, _ := a.HeldWindow(0); base != wantBase || !a.Has(0, s) || len(f.log.detections) != wantLosses {
			t.Fatalf("restart=%v: window based at %d, has(%d)=%v, %d losses detected; want base %d and %d losses",
				restart, base, s, a.Has(0, s), len(f.log.detections), wantBase, wantLosses)
		}
	}
}

// TestInspectorsIgnoreResolvedStream: inspectors answer from the stream
// table alone, so what the delivery path last resolved can never make
// a stream look open, or closed, to the run's monitor.
func TestInspectorsIgnoreResolvedStream(t *testing.T) {
	f := newFixture(t, yTree(), detParams())
	a := f.agents[2]
	a.Deliver(0, &netsim.Packet{Class: netsim.Payload, Msg: &DataMsg{Source: 0, Seq: 0}})
	a.last = newStreamState(a, 3) // a stream the table does not know
	a.last.received.Mark(7)
	if a.Has(3, 7) || a.ClassifiedThrough(3) != 0 || len(a.Sources()) != 1 {
		t.Fatal("an inspector consulted the delivery path's resolved stream")
	}
	if _, _, open := a.HeldWindow(3); open || a.ReplyBlocked(sim.Time(0), 3, 7) {
		t.Fatal("an inspector consulted the delivery path's resolved stream")
	}
}
