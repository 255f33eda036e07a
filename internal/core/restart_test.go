package core

import (
	"testing"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// TestCrashBeforeReorderExpiryCancelsExpeditedRequest is the regression
// test for the post-crash expedited-transmission bug: a host that
// fail-stops, or leaves, between detecting a loss and its REORDER-DELAY
// expiry must not unicast the deferred expedited request. Before the fix
// the armed timer survived the crash and its closure only checked packet
// possession — which a silent host, never receiving the repair, fails —
// so the dead host kept transmitting. The timer now lives on the loss
// record, and an expedited request from a silent host panics.
func TestCrashBeforeReorderExpiryCancelsExpeditedRequest(t *testing.T) {
	for _, c := range []struct {
		name    string
		silence func(*Agent)
	}{
		{"crash", (*Agent).Crash},
		{"leave", (*Agent).Leave},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := detConfig()
			cfg.ReorderDelay = 20 * time.Millisecond
			b := newBed(t, yTree(), cfg)
			b.agents[2].Cache(0).Update(Tuple{
				Seq: 0, Requestor: 2, ReqDistToSource: 40 * time.Millisecond,
				Replier: 0, ReplierDistToRequestor: 40 * time.Millisecond,
				TurningPoint: topology.None,
			})
			b.net.SetDropFunc(dropSeqsOnLink(2, 1))
			b.sendData(3, 100*time.Millisecond)
			// Receiver 2 detects the loss of seq 1 when seq 2 arrives at
			// ~250.7 ms (two 20 ms hops plus payload serialization) and
			// defers the expedited request to ~270.7 ms; the silence lands
			// in between.
			b.eng.ScheduleAt(sim.Time(260*time.Millisecond), func(sim.Time) {
				c.silence(b.agents[2])
			})
			b.eng.Run()

			if b.agents[2].ExpeditedAttempts() != 1 {
				t.Fatalf("attempts = %d, want 1 (the loss was chased before the %s)", b.agents[2].ExpeditedAttempts(), c.name)
			}
			if b.log.expReqs[2] != 0 {
				t.Fatalf("expedited requests = %d, want 0 (host went silent before expiry)", b.log.expReqs[2])
			}
			if b.log.expReplies != 0 {
				t.Fatal("an expedited reply answered a request that must never have been sent")
			}
		})
	}
}

// TestRestartedReceiverCatchesUp crashes a CESRM receiver, restarts it
// with amnesia, and checks the fresh incarnation recovers every packet —
// including those transmitted while it was down.
func TestRestartedReceiverCatchesUp(t *testing.T) {
	b := newBed(t, yTree(), detConfig())
	a := b.agents[2]
	b.eng.ScheduleAt(sim.Time(150*time.Millisecond), func(sim.Time) { a.Crash() })
	b.eng.ScheduleAt(sim.Time(450*time.Millisecond), func(sim.Time) {
		a.Restart()
		for id := range b.agents {
			if id != 2 {
				a.SRM().SetDistance(id, b.net.Distance(2, id))
			}
		}
	})
	b.sendData(8, 100*time.Millisecond)
	b.eng.RunUntil(sim.Time(30 * time.Second))

	if a.SRM().Crashed() {
		t.Fatal("Crashed() = true after restart")
	}
	if miss := a.SRM().MissingIn(0, 8); miss != 0 {
		t.Fatalf("restarted receiver missing %d packets", miss)
	}
	// The restart discarded the warm cache along with the rest of the
	// incarnation's state.
	if b.agents[3].SRM().MissingIn(0, 8) != 0 {
		t.Fatal("bystander receiver missing packets")
	}
}

// TestInvalidateHostDropsDeadPairs exercises the cache purge a
// membership announcement triggers: every cached tuple naming the dead
// host — as requestor or as replier — is dropped, others survive.
func TestInvalidateHostDropsDeadPairs(t *testing.T) {
	b := newBed(t, forkTree(), detConfig())
	c := b.agents[4].Cache(0)
	c.Update(Tuple{Seq: 1, Requestor: 4, Replier: 2, TurningPoint: topology.None})
	c.Update(Tuple{Seq: 2, Requestor: 2, Replier: 0, TurningPoint: topology.None})
	c.Update(Tuple{Seq: 3, Requestor: 4, Replier: 0, TurningPoint: topology.None})

	if got := b.agents[4].InvalidateHost(2); got != 2 {
		t.Fatalf("InvalidateHost(2) = %d, want 2", got)
	}
	if c.Len() != 1 {
		t.Fatalf("cache length = %d after purge, want 1", c.Len())
	}
	if _, ok := c.Get(3); !ok {
		t.Fatal("tuple not naming the dead host was purged")
	}
	if got := b.agents[4].InvalidateHost(2); got != 0 {
		t.Fatalf("second InvalidateHost(2) = %d, want 0", got)
	}
}
