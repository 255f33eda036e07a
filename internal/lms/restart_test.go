package lms

import (
	"testing"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
)

// TestCrashCancelsHeartbeatTimer pins the fail-stop cleanup: the
// source's armed heartbeat tick must not survive a crash in the event
// queue.
func TestCrashCancelsHeartbeatTimer(t *testing.T) {
	b := newBed(t, time.Second)
	b.agents[0].StartSessions()
	if got := b.eng.Pending(); got != 1 {
		t.Fatalf("Pending = %d after StartSessions, want 1", got)
	}
	b.agents[0].Crash()
	// The one remaining event is the fabric's deferred crash-refresh;
	// before the fix the armed heartbeat survived too (Pending = 2).
	if got := b.eng.Pending(); got != 1 {
		t.Fatalf("Pending = %d after Crash, want 1 (heartbeat must be cancelled)", got)
	}
}

func TestRestartPanicsForLiveHost(t *testing.T) {
	b := newBed(t, time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("Restart of a never-crashed host did not panic")
		}
	}()
	b.agents[3].Restart()
}

// TestRestartRedesignatesReplier crashes the designated replier of a
// subtree and restarts it: the fabric routes around the dead host, and
// after the restart plus the refresh staleness window the host is
// designated again.
func TestRestartRedesignatesReplier(t *testing.T) {
	refresh := 200 * time.Millisecond
	b := newBed(t, refresh)
	if got := b.fabric.ReplierOf(1); got != 3 {
		t.Fatalf("replier(1) = %d before crash, want 3", got)
	}
	b.agents[3].Crash()
	// Routing around the crash is deferred by the refresh staleness
	// window (§3.3's fragility argument).
	if got := b.fabric.ReplierOf(1); got != 3 {
		t.Fatalf("replier(1) = %d immediately after crash, want still 3 (stale state)", got)
	}
	b.eng.RunUntil(sim.Time(300 * time.Millisecond))
	if got := b.fabric.ReplierOf(1); got != 4 {
		t.Fatalf("replier(1) = %d after refresh window, want 4", got)
	}
	b.eng.ScheduleAt(sim.Time(400*time.Millisecond), func(sim.Time) { b.agents[3].Restart() })
	b.eng.RunUntil(sim.Time(time.Second))
	if got := b.fabric.ReplierOf(1); got != 3 {
		t.Fatalf("replier(1) = %d after restart refresh window, want 3 again", got)
	}
	if b.agents[3].Crashed() {
		t.Fatal("Crashed() = true after restart")
	}
}

// TestRestartedReceiverCatchesUp crashes a receiver mid-stream and
// restarts it: heartbeat adverts drive the fresh incarnation to NAK and
// recover everything it missed.
func TestRestartedReceiverCatchesUp(t *testing.T) {
	b := newBed(t, 100*time.Millisecond)
	b.agents[0].StartSessions()
	a := b.agents[4]
	b.eng.ScheduleAt(sim.Time(150*time.Millisecond), func(sim.Time) { a.Crash() })
	b.eng.ScheduleAt(sim.Time(450*time.Millisecond), func(sim.Time) { a.Restart() })
	b.sendData(8, 100*time.Millisecond)
	b.eng.RunUntil(sim.Time(30 * time.Second))

	if miss := a.MissingIn(0, 8); miss != 0 {
		t.Fatalf("restarted receiver missing %d packets", miss)
	}
	if b.agents[3].MissingIn(0, 8) != 0 {
		t.Fatal("bystander receiver missing packets")
	}
}

// TestCrashSilencesPendingHeartbeatDetection pins the LMS analog of the
// SRM DetectionSlack fix: a heartbeat delivered just before a crash
// must not make the crashed host detect losses when the slack expires —
// the NAK timers it would arm are outside Crash's cancel sweep and
// would retry against the fabric forever.
func TestCrashSilencesPendingHeartbeatDetection(t *testing.T) {
	b := newBed(t, time.Second)
	a := b.agents[4]
	b.eng.ScheduleAt(sim.Time(100*time.Millisecond), func(now sim.Time) {
		a.Deliver(now, &netsim.Packet{Msg: &srm.SessionMsg{
			From:    0,
			SentAt:  now,
			Highest: []srm.Advert{{Source: 0, Highest: 4}},
		}})
	})
	b.eng.ScheduleAt(sim.Time(120*time.Millisecond), func(sim.Time) { a.Crash() })
	b.eng.RunUntil(sim.Time(5 * time.Second))

	if b.log.detections != 0 {
		t.Fatalf("crashed host detected %d losses from a pre-crash heartbeat", b.log.detections)
	}
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d on a crashed host, want 0", got)
	}
}

// A host that leaves and rejoins inside the detection slack of a
// heartbeat it heard before leaving must not detect the advertised
// packets when the slack expires: they were sent before its join, and
// until its first post-join contact opens the stream at a floor it owes
// nothing. Detecting them chased 21 packets nobody would repair to it.
func TestRejoinInsideSlackDetectsNothing(t *testing.T) {
	b := newBed(t, time.Second)
	a := b.agents[4]
	at := sim.Time(2050 * time.Millisecond)
	b.eng.ScheduleAt(at, func(now sim.Time) {
		a.Deliver(now, &netsim.Packet{Msg: &srm.SessionMsg{
			From:    0,
			SentAt:  now,
			Highest: []srm.Advert{{Source: 0, Highest: 20}},
		}})
	})
	b.eng.ScheduleAt(at.Add(5*time.Millisecond), func(sim.Time) { a.Leave() })
	b.eng.ScheduleAt(at.Add(10*time.Millisecond), func(sim.Time) { a.Join() })
	b.eng.RunUntil(sim.Time(60 * time.Second))

	if b.log.detections != 0 || a.Outstanding() != 0 || b.log.naks != 0 {
		t.Fatalf("rejoined host: %d detections, Outstanding %d, %d NAKs; want 0, 0, 0",
			b.log.detections, a.Outstanding(), b.log.naks)
	}
}
