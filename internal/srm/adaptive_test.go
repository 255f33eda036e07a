package srm

import (
	"testing"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

func TestAdaptiveConfigValidate(t *testing.T) {
	good := DefaultAdaptiveConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	disabled := AdaptiveConfig{}
	if err := disabled.Validate(); err != nil {
		t.Fatal("disabled config must validate")
	}
	cases := []func(*AdaptiveConfig){
		func(c *AdaptiveConfig) { c.TargetDupRequests = -1 },
		func(c *AdaptiveConfig) { c.Gain = -1 },
		func(c *AdaptiveConfig) { c.MinC1, c.MaxC1 = 4, 2 },
		func(c *AdaptiveConfig) { c.MinD2 = -1 },
	}
	for i, mutate := range cases {
		c := DefaultAdaptiveConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d: invalid adaptive config accepted", i)
		}
	}
}

func TestEnableAdaptiveTimersRejectsBadConfig(t *testing.T) {
	f := newFixture(t, yTree(), DefaultParams())
	bad := DefaultAdaptiveConfig()
	bad.Gain = -2
	if err := f.agents[2].EnableAdaptiveTimers(bad); err == nil {
		t.Fatal("bad adaptive config accepted")
	}
}

func TestEwma(t *testing.T) {
	if got := ewma(0, 4, false); got != 4 {
		t.Fatalf("first sample = %v, want 4", got)
	}
	if got := ewma(4, 0, true); got != 3 {
		t.Fatalf("smoothed = %v, want 3 (3/4*4)", got)
	}
}

func TestClampF(t *testing.T) {
	if clampF(5, 1, 3) != 3 || clampF(-1, 1, 3) != 1 || clampF(2, 1, 3) != 2 {
		t.Fatal("clampF wrong")
	}
}

// TestAdaptiveWidensWindowUnderDuplicates drives repeated losses shared
// by equidistant receivers (which duplicate requests under C2=0) and
// checks that the adapted request window widens.
func TestAdaptiveWidensWindowUnderDuplicates(t *testing.T) {
	p := detParams() // C2=0: equidistant hosts always duplicate
	f := newFixture(t, yTree(), p)
	for _, a := range f.agents {
		if err := a.EnableAdaptiveTimers(DefaultAdaptiveConfig()); err != nil {
			t.Fatal(err)
		}
	}
	// Drop every 5th packet on the shared link: both receivers lose it
	// and both request (equidistant, zero-width window).
	f.net.SetDropFunc(func(pk *netsim.Packet, l topology.LinkID, down bool) bool {
		m, ok := pk.Msg.(*DataMsg)
		return ok && down && l == 1 && m.Seq%5 == 2
	})
	f.sendData(100, 100*time.Millisecond)
	f.eng.Run()

	before := detParams()
	after := f.agents[2].AdaptedParams()
	if after.C2 <= before.C2 {
		t.Fatalf("C2 did not widen under duplicate requests: %v -> %v", before.C2, after.C2)
	}
	if f.agents[2].MissingIn(0, 100) != 0 || f.agents[3].MissingIn(0, 100) != 0 {
		t.Fatal("adaptive run did not recover all losses")
	}

	// Adaptation moves the working copy only, and an amnesiac restart
	// forgets it along with the averages that produced it.
	a := f.agents[2]
	if a.Params() != before {
		t.Fatalf("Params() = %+v after adapting, want the constructor's %+v", a.Params(), before)
	}
	a.Crash()
	a.Restart()
	defer a.Stop()
	if a.AdaptedParams() != before || a.Params() != before {
		t.Fatalf("restarted host kept adapted timers %+v, want the constructor's %+v", a.AdaptedParams(), before)
	}
}

// TestAdaptiveTightensWindowWhenAlone drives losses seen by a single
// receiver in a chain: no duplicates ever, long normalized delays, so
// the window should shrink toward the bounds.
func TestAdaptiveTightensWindowWhenAlone(t *testing.T) {
	p := DefaultParams() // wide window: C1=C2=2
	f := newFixture(t, chainTree(), p)
	cfg := DefaultAdaptiveConfig()
	cfg.TargetReqDelay = 1 // aggressive: current delays (~C1+C2/2) exceed this
	for _, a := range f.agents {
		if err := a.EnableAdaptiveTimers(cfg); err != nil {
			t.Fatal(err)
		}
	}
	f.net.SetDropFunc(func(pk *netsim.Packet, l topology.LinkID, down bool) bool {
		m, ok := pk.Msg.(*DataMsg)
		return ok && down && l == 3 && m.Seq%5 == 2
	})
	f.sendData(100, 100*time.Millisecond)
	f.eng.Run()

	after := f.agents[3].AdaptedParams()
	if after.C2 >= p.C2 {
		t.Fatalf("C2 did not shrink without duplicates: %v -> %v", p.C2, after.C2)
	}
	if f.agents[3].MissingIn(0, 100) != 0 {
		t.Fatal("adaptive run did not recover all losses")
	}
}

// TestAdaptiveRespectsBounds drives heavy duplication with tight bounds
// and verifies parameters never escape them.
func TestAdaptiveRespectsBounds(t *testing.T) {
	p := detParams()
	f := newFixture(t, yTree(), p)
	cfg := DefaultAdaptiveConfig()
	cfg.MaxC2 = 2.5
	cfg.MaxC1 = 2.2
	for _, a := range f.agents {
		if err := a.EnableAdaptiveTimers(cfg); err != nil {
			t.Fatal(err)
		}
	}
	f.net.SetDropFunc(func(pk *netsim.Packet, l topology.LinkID, down bool) bool {
		m, ok := pk.Msg.(*DataMsg)
		return ok && down && l == 1 && m.Seq%3 == 1
	})
	f.sendData(150, 100*time.Millisecond)
	f.eng.Run()

	for _, id := range []topology.NodeID{2, 3} {
		ap := f.agents[id].AdaptedParams()
		if ap.C1 > cfg.MaxC1 || ap.C2 > cfg.MaxC2 {
			t.Fatalf("host %d escaped bounds: C1=%v C2=%v", id, ap.C1, ap.C2)
		}
		if ap.C1 < cfg.MinC1 || ap.C2 < cfg.MinC2 {
			t.Fatalf("host %d below bounds: C1=%v C2=%v", id, ap.C1, ap.C2)
		}
	}
}

func TestCrashStopsParticipation(t *testing.T) {
	f := newFixture(t, yTree(), detParams())
	f.net.SetDropFunc(dropSeqOnLink(1, 2))
	// Crash receiver 3 before the loss: it must not answer receiver 2's
	// request, leaving only the source to reply.
	f.eng.ScheduleAt(sim.Time(50*time.Millisecond), func(sim.Time) {
		f.agents[3].Crash()
	})
	f.sendData(3, 100*time.Millisecond)
	f.eng.Run()

	if !f.agents[3].Crashed() {
		t.Fatal("Crashed() = false")
	}
	for _, r := range f.log.replies {
		if r.host == 3 {
			t.Fatal("crashed host sent a reply")
		}
	}
	// Receiver 2 still recovers via the source.
	if f.agents[2].MissingIn(0, 3) != 0 {
		t.Fatal("surviving receiver did not recover")
	}
}
