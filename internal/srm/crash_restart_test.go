package srm

import (
	"testing"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// TestCrashCancelsSessionTimer pins the fail-stop cleanup regression: a
// crashed host's armed session tick must be cancelled, not left to
// drain, so Engine.Pending reflects only live work.
func TestCrashCancelsSessionTimer(t *testing.T) {
	f := newFixture(t, yTree(), detParams())
	f.agents[2].StartSessions()
	if got := f.eng.Pending(); got != 1 {
		t.Fatalf("Pending = %d after StartSessions, want 1", got)
	}
	f.agents[2].Crash()
	if got := f.eng.Pending(); got != 0 {
		t.Fatalf("Pending = %d after Crash, want 0 (session timer must be cancelled)", got)
	}
}

// TestStopLeavesSessionTickToDrainInertly pins the intentional asymmetry
// with Crash: Stop keeps the armed tick queued (it fires once, does
// nothing, and does not reschedule), because cancelling it would change
// the final virtual time every crash-free run fingerprint digests.
func TestStopLeavesSessionTickToDrainInertly(t *testing.T) {
	f := newFixture(t, yTree(), detParams())
	f.agents[2].StartSessions()
	f.agents[2].Stop()
	if got := f.eng.Pending(); got != 1 {
		t.Fatalf("Pending = %d after Stop, want 1 (inert drain)", got)
	}
	f.eng.Run()
	if f.log.sessions != 0 {
		t.Fatal("stopped host sent a session message")
	}
}

func TestCrashedHostCannotSendExpeditedRequest(t *testing.T) {
	f := newFixture(t, yTree(), detParams())
	f.agents[2].Crash()
	defer func() {
		if recover() == nil {
			t.Fatal("crashed unicastExpeditedRequest did not panic")
		}
	}()
	f.agents[2].unicastExpeditedRequest(0, 1, 3, topology.None)
}

func TestCrashedHostCannotSendExpeditedReply(t *testing.T) {
	f := newFixture(t, yTree(), detParams())
	f.agents[3].Crash()
	defer func() {
		if recover() == nil {
			t.Fatal("crashed SendExpeditedReply did not panic")
		}
	}()
	m := &RequestMsg{Source: 0, Seq: 1, Requestor: 2, Expedited: true, TurningPoint: topology.None}
	f.agents[3].SendExpeditedReply(f.eng.Now(), m, false)
}

func TestRestartPanicsForLiveHost(t *testing.T) {
	f := newFixture(t, yTree(), detParams())
	defer func() {
		if recover() == nil {
			t.Fatal("Restart of a never-crashed host did not panic")
		}
	}()
	f.agents[2].Restart()
}

// TestRestartRejoinsWithAmnesia crashes a receiver mid-stream and
// restarts it: the fresh incarnation must re-learn the stream from
// later packets, re-detect everything it missed, and recover to full
// reliability.
func TestRestartRejoinsWithAmnesia(t *testing.T) {
	f := newFixture(t, yTree(), detParams())
	a := f.agents[2]
	f.eng.ScheduleAt(sim.Time(150*time.Millisecond), func(sim.Time) { a.Crash() })
	f.eng.ScheduleAt(sim.Time(250*time.Millisecond), func(now sim.Time) {
		a.Restart()
		// Re-prime distances as a converged session exchange would.
		for id := range f.agents {
			if id != 2 {
				a.SetDistance(id, f.net.Distance(2, id))
			}
		}
	})
	// Seqs 0,1 land before the crash; 2 is swallowed by the outage; 3,4
	// arrive at the restarted incarnation, which must detect 0..2 as
	// missing and re-recover them.
	f.sendData(5, 100*time.Millisecond)
	// Restart re-arms the session timer, which reschedules forever; bound
	// the run instead of draining the queue.
	f.eng.RunUntil(sim.Time(30 * time.Second))

	if a.Crashed() {
		t.Fatal("Crashed() = true after restart")
	}
	if miss := a.MissingIn(0, 5); miss != 0 {
		t.Fatalf("restarted host missing %d packets", miss)
	}
	if f.agents[3].MissingIn(0, 5) != 0 {
		t.Fatal("bystander receiver missing packets")
	}
}

// TestCrashSilencesPendingAdvertDetection pins the fix for the
// fire-and-forget DetectionSlack timer: a session advert delivered just
// before a crash must not make the crashed host detect losses when the
// slack expires. Before the guard, the crashed host armed request
// timers the crash sweep had already missed; with no live holder of the
// advertised packets, the request back-off loop ran — and advanced the
// clock — forever.
func TestCrashSilencesPendingAdvertDetection(t *testing.T) {
	f := newFixture(t, chainTree(), detParams())
	a := f.agents[3]
	f.eng.ScheduleAt(sim.Time(100*time.Millisecond), func(now sim.Time) {
		a.Deliver(now, &netsim.Packet{Msg: &SessionMsg{
			From:    0,
			SentAt:  now.Add(-f.net.Distance(0, 3)),
			Highest: []Advert{{Source: 0, Highest: 4}},
		}})
	})
	// Crash inside the DetectionSlack window (50 ms), with the deferred
	// detectThrough still pending.
	f.eng.ScheduleAt(sim.Time(120*time.Millisecond), func(sim.Time) { a.Crash() })
	f.eng.RunUntil(sim.Time(5 * time.Second))

	if len(f.log.detections) != 0 {
		t.Fatalf("crashed host detected %d losses from a pre-crash advert", len(f.log.detections))
	}
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d on a crashed host, want 0", got)
	}
	if got := f.eng.Pending(); got != 0 {
		t.Fatalf("Pending = %d after drain, want 0 (a request timer survived the crash)", got)
	}
}

// TestRestartOrphansPendingAdvertDetection covers the second half of
// the same fix: if the host restarts before the slack expires, the
// deferred closure holds the pre-crash stream object. Detecting losses
// on that orphan would be unrecoverable — replies resolve against the
// restarted host's fresh stream — so the closure must recognize the
// stream was replaced and stay inert.
func TestRestartOrphansPendingAdvertDetection(t *testing.T) {
	f := newFixture(t, chainTree(), detParams())
	a := f.agents[3]
	f.eng.ScheduleAt(sim.Time(100*time.Millisecond), func(now sim.Time) {
		a.Deliver(now, &netsim.Packet{Msg: &SessionMsg{
			From:    0,
			SentAt:  now.Add(-f.net.Distance(0, 3)),
			Highest: []Advert{{Source: 0, Highest: 4}},
		}})
	})
	f.eng.ScheduleAt(sim.Time(120*time.Millisecond), func(sim.Time) { a.Crash() })
	// Restart before the 150 ms slack expiry: the pending closure now
	// references an orphaned stream.
	f.eng.ScheduleAt(sim.Time(130*time.Millisecond), func(sim.Time) { a.Restart() })
	f.eng.RunUntil(sim.Time(5 * time.Second))

	if len(f.log.detections) != 0 {
		t.Fatalf("orphaned advert closure detected %d losses", len(f.log.detections))
	}
	if got := a.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after restart, want 0", got)
	}
}
