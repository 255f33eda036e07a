package chaos

import (
	"fmt"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// Host is the lifecycle surface the controller drives. All protocol
// endpoints (srm.Agent, core.Agent, lms.Agent) implement it.
type Host interface {
	Crash()
	Restart()
	Crashed() bool
}

// Invalidator is the optional cache-invalidation surface a Purge crash
// exercises on the surviving endpoints (implemented by CESRM's
// core.Agent).
type Invalidator interface {
	InvalidateHost(dead topology.NodeID) int
}

// Member is the graceful-membership surface Leave/Join faults drive.
// Unlike Crash/Restart it models announced departures: a leaving host
// goes silent without amnesia, and a joining host opens its reliability
// window at the first post-join data rather than seq 0. All protocol
// endpoints implement it.
type Member interface {
	Leave()
	Join()
	Absent() bool
}

// Probe observes lifecycle faults as they fire; the stats validator
// implements it to arm its post-crash and post-leave silence
// invariants. May be nil.
type Probe interface {
	NoteCrash(host topology.NodeID, at sim.Time)
	NoteRestart(host topology.NodeID, at sim.Time)
	NoteLeave(host topology.NodeID, at sim.Time)
	NoteJoin(host topology.NodeID, at sim.Time)
}

// Controller schedules a validated Spec's faults through the engine and
// tracks the windowed fault state the network hooks consult. All fault
// events are scheduled up front, in spec order, so two runs of the same
// spec dispatch identically.
type Controller struct {
	eng   *sim.Engine
	net   *netsim.Network
	rng   *sim.RNG
	host  func(topology.NodeID) Host
	probe Probe

	pending    int // fault events not yet fired
	baseJitter time.Duration

	dupProb    float64
	dupDelay   time.Duration
	starveAll  int
	starveHost map[topology.NodeID]int
}

// Install validates spec against the network's topology and schedules
// every fault. rng drives duplicate-injection decisions and must be
// dedicated to the controller (sharing it with protocol agents would
// entangle their random streams). host returns a node's endpoint, nil
// for a node that runs none; probe may be nil. The engine must still be
// at time zero.
func Install(eng *sim.Engine, net *netsim.Network, rng *sim.RNG, spec *Spec, host func(topology.NodeID) Host, probe Probe) (*Controller, error) {
	if err := spec.Validate(net.Tree()); err != nil {
		return nil, err
	}
	for _, f := range spec.Faults {
		switch f.Kind {
		case Crash, Restart, Leave, Join:
			h := host(f.Host)
			if h == nil {
				return nil, fmt.Errorf("chaos: no endpoint for host %d", f.Host)
			}
			if _, ok := h.(Member); !ok && (f.Kind == Leave || f.Kind == Join) {
				return nil, fmt.Errorf("chaos: endpoint for host %d does not support membership", f.Host)
			}
		}
	}
	c := &Controller{
		eng:        eng,
		net:        net,
		rng:        rng,
		host:       host,
		probe:      probe,
		baseJitter: net.MaxJitter(),
		starveHost: make(map[topology.NodeID]int),
	}
	if spec.HasDuplicates() {
		net.SetDupFunc(c.maybeDup)
	}
	for _, f := range spec.Faults {
		c.schedule(f)
	}
	return c, nil
}

// Quiesced reports whether every scheduled fault event has fired. The
// experiment's completion monitor must not declare a run finished while
// faults are outstanding — a restart scheduled after apparent quiescence
// reopens recovery work.
func (c *Controller) Quiesced() bool { return c.pending == 0 }

// at schedules one fault event, tracking it in the pending count.
func (c *Controller) at(t time.Duration, fn func(now sim.Time)) {
	c.pending++
	c.eng.ScheduleAt(sim.Time(t), func(now sim.Time) {
		c.pending--
		fn(now)
	})
}

// others calls fn on every live endpoint but skip's, in node order, so
// purge sweeps are deterministic.
func (c *Controller) others(skip topology.NodeID, fn func(Host)) {
	for id := topology.NodeID(0); int(id) < c.net.Tree().NumNodes(); id++ {
		if h := c.host(id); h != nil && id != skip && !h.Crashed() {
			fn(h)
		}
	}
}

// invalidate makes h drop cached pairs naming dead, if it caches any.
func invalidate(h Host, dead topology.NodeID) {
	if inv, ok := h.(Invalidator); ok {
		inv.InvalidateHost(dead)
	}
}

func (c *Controller) schedule(f Fault) {
	switch f.Kind {
	case Crash:
		host, purge := f.Host, f.Purge
		c.at(f.At, func(now sim.Time) {
			c.host(host).Crash()
			if c.probe != nil {
				c.probe.NoteCrash(host, now)
			}
			if purge {
				c.others(host, func(h Host) { invalidate(h, host) })
			}
		})
	case Restart:
		host := f.Host
		c.at(f.At, func(now sim.Time) {
			c.host(host).Restart()
			if c.probe != nil {
				c.probe.NoteRestart(host, now)
			}
		})
	case LinkDown:
		link := f.Link
		c.at(f.At, func(sim.Time) { c.net.SetLinkUp(link, false) })
		if f.Until != 0 {
			c.at(f.Until, func(sim.Time) { c.net.SetLinkUp(link, true) })
		}
	case LinkUp:
		link := f.Link
		c.at(f.At, func(sim.Time) { c.net.SetLinkUp(link, true) })
	case Jitter:
		max := f.Max
		c.at(f.At, func(sim.Time) { c.net.SetMaxJitter(max) })
		c.at(f.Until, func(sim.Time) { c.net.SetMaxJitter(c.baseJitter) })
	case Duplicate:
		prob, delay := f.Prob, f.Delay
		c.at(f.At, func(sim.Time) { c.dupProb, c.dupDelay = prob, delay })
		c.at(f.Until, func(sim.Time) { c.dupProb = 0 })
	case Leave:
		host := f.Host
		c.at(f.At, func(now sim.Time) {
			c.host(host).(Member).Leave()
			if c.probe != nil {
				c.probe.NoteLeave(host, now)
			}
			// A leave is an announced departure: unlike a crash, the
			// advert always reaches the group, so every live member
			// drops cached pairs naming the leaver (no Purge opt-in).
			c.others(host, func(h Host) {
				if m, ok := h.(Member); !ok || !m.Absent() {
					invalidate(h, host)
				}
			})
		})
	case Join:
		host := f.Host
		c.at(f.At, func(now sim.Time) {
			c.host(host).(Member).Join()
			if c.probe != nil {
				c.probe.NoteJoin(host, now)
			}
		})
	case QueueCap:
		cap := f.Cap
		c.at(f.At, func(sim.Time) { c.net.SetQueueCap(cap) })
		c.at(f.Until, func(sim.Time) { c.net.SetQueueCap(0) })
	case Starve:
		host := f.Host
		bump := func(d int) {
			if host == topology.None {
				c.starveAll += d
			} else {
				c.starveHost[host] += d
			}
		}
		c.at(f.At, func(sim.Time) { bump(1) })
		c.at(f.Until, func(sim.Time) { bump(-1) })
	}
}

// DropsSessions reports whether the spec has a fault Controller.Drop
// can answer true for. Drop draws no randomness and touches session
// packets only, so under a spec without one every other packet's loss,
// and a session packet's too, is decided outside chaos.
func (s *Spec) DropsSessions() bool { return s.hasKind(Starve) }

// Drop implements session-message starvation; the experiment harness
// consults it first in the network's drop hook. Only session packets
// are ever affected.
func (c *Controller) Drop(p *netsim.Packet, link topology.LinkID, down bool) bool {
	if !p.Session {
		return false
	}
	if c.starveAll > 0 {
		return true
	}
	return len(c.starveHost) > 0 && c.starveHost[p.From] > 0
}

// maybeDup decides duplicate injection for one delivery. Expedited
// requests are never duplicated: a copy arriving after the replier's
// reply-abstinence window would elicit a second expedited reply, which
// the validator's replies≤requests invariant rightly rejects — the
// duplicate would be manufacturing a protocol violation rather than
// revealing one.
func (c *Controller) maybeDup(p *netsim.Packet, at sim.Time) (time.Duration, bool) {
	if c.dupProb <= 0 {
		return 0, false
	}
	if m, ok := p.Msg.(*srm.RequestMsg); ok && m.Expedited {
		return 0, false
	}
	if c.rng.Float64() >= c.dupProb {
		return 0, false
	}
	return c.dupDelay, true
}
