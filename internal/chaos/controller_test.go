package chaos

import (
	"testing"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// TestDisjointWindowsInReverseOrderKeepTheirState installs windows listed
// latest first. The controller schedules starts and ends in spec order,
// so this is the order in which one window's end could clobber another's
// state; disjoint windows must each hold their declared state throughout.
func TestDisjointWindowsInReverseOrderKeepTheirState(t *testing.T) {
	spec, err := ParseSpec("jitter@20s-30s:max=5ms;jitter@10s-15s:max=2ms;" +
		"link-down@20s-30s:link=1;link-down@10s-15s:link=1;" +
		"qcap@20s-30s:cap=3;qcap@10s-15s:cap=2")
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	net := netsim.MustNew(eng, testTree(t), netsim.DefaultConfig())
	base := net.MaxJitter()
	if _, err := Install(eng, net, sim.NewRNG(1), spec, func(topology.NodeID) Host { return nil }, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		at     time.Duration
		jitter time.Duration
		linkUp bool
		qcap   int
	}{
		{5 * time.Second, base, true, 0},
		{12500 * time.Millisecond, 2 * time.Millisecond, false, 2},
		{17500 * time.Millisecond, base, true, 0},
		{25 * time.Second, 5 * time.Millisecond, false, 3},
		{35 * time.Second, base, true, 0},
	} {
		eng.RunUntil(sim.Time(c.at))
		if got := net.MaxJitter(); got != c.jitter {
			t.Errorf("at %v: jitter %v, want %v", c.at, got, c.jitter)
		}
		if got := net.LinkUp(1); got != c.linkUp {
			t.Errorf("at %v: link 1 up = %v, want %v", c.at, got, c.linkUp)
		}
		if got := net.QueueCap(); got != c.qcap {
			t.Errorf("at %v: queue cap %d, want %d", c.at, got, c.qcap)
		}
	}
}
