package wire

import (
	"fmt"

	"cesrm/internal/core"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
)

// agent is the protocol surface a session drives; both *srm.Agent and
// *core.Agent satisfy it.
type agent interface {
	netsim.Host
	StartSessions()
	Stop()
	Transmit(seq int)
}

// session is one node's protocol instance plus the harness state that
// must be scheduled identically in the live run and in replay: the
// source transmit schedule, the completion monitor, and the hard stop.
// Every eng.Schedule call made here contributes to the engine's event
// sequence numbering, so live and replay construct sessions through
// this one function — any drift would break conformance.
type session struct {
	cfg   NodeConfig
	eng   *sim.Engine
	agent agent
	// inner is the SRM layer, used for completion inspection.
	inner *srm.Agent
	// sent counts executed source transmissions.
	sent int
	// completeSince is the instant the completion predicate first held
	// continuously, or -1 while it does not hold.
	completeSince sim.Time
	// stopped records an orderly self-stop (completion or MaxRunTime).
	stopped bool
}

// newSession builds the agent, attaches it to ep, and schedules the
// session start, the source's transmit schedule, the completion
// monitor, and the MaxRunTime hard stop. cfg must be validated and
// default-filled by the caller.
func newSession(eng *sim.Engine, ep netsim.Endpoint, cfg NodeConfig, obs srm.Observer) (*session, error) {
	s := &session{cfg: cfg, eng: eng, completeSince: -1}
	rng := sim.NewRNG(nodeSeed(cfg.Seed, cfg.ID))
	switch cfg.Protocol {
	case ProtocolSRM:
		a, err := srm.NewAgent(eng, ep, rng, cfg.ID, cfg.SRM, obs, nil)
		if err != nil {
			return nil, err
		}
		s.agent, s.inner = a, a
	case ProtocolCESRM:
		a, err := core.NewAgent(eng, ep, rng, cfg.ID, core.Config{
			SRM:           cfg.SRM,
			ReorderDelay:  cfg.ReorderDelay,
			CacheCapacity: cfg.CacheCapacity,
		}, obs)
		if err != nil {
			return nil, err
		}
		s.agent, s.inner = a, a.SRM()
	default:
		return nil, fmt.Errorf("wire: unknown protocol %q", cfg.Protocol)
	}
	ep.AttachHost(cfg.ID, s.agent)
	s.agent.StartSessions()
	if s.isSource() {
		// One wheel record however long the stream, numbered as the
		// NumPackets separate events it stands for would have been.
		eng.ScheduleTrain(sim.Time(0).Add(cfg.Warmup), cfg.Period, cfg.NumPackets,
			func(seq int, _ sim.Time) {
				s.agent.Transmit(seq)
				s.sent++
			})
	}
	eng.ScheduleHandler(cfg.SRM.SessionPeriod, s)
	eng.ScheduleAt(sim.Time(0).Add(cfg.MaxRunTime), func(sim.Time) { s.shutdown() })
	return s, nil
}

func (s *session) isSource() bool { return s.cfg.ID == s.cfg.Tree.Root() }

// complete reports the node-local completion predicate: the source has
// transmitted its whole stream; a receiver has classified the whole
// stream with no outstanding losses.
func (s *session) complete() bool {
	if s.isSource() {
		return s.sent >= s.cfg.NumPackets
	}
	source := s.cfg.Tree.Root()
	return s.inner.ClassifiedThrough(source) >= s.cfg.NumPackets &&
		s.inner.Outstanding() == 0
}

// Fire implements sim.EventHandler as the completion monitor, so
// re-arming it captures nothing: it re-checks completion every session
// period and stops the node after it has held for the configured linger
// (receivers) or source linger (the source, which cannot observe group
// completion and instead stays available for repairs a while longer).
func (s *session) Fire(now sim.Time) {
	if s.stopped {
		return
	}
	if s.complete() {
		if s.completeSince < 0 {
			s.completeSince = now
		}
		linger := s.cfg.Linger
		if s.isSource() {
			linger = s.cfg.SourceLinger
		}
		if now.Sub(s.completeSince) >= linger {
			s.shutdown()
			return
		}
	} else {
		s.completeSince = -1
	}
	s.eng.ScheduleHandler(s.cfg.SRM.SessionPeriod, s)
}

// shutdown stops the agent's session stream and halts the engine; the
// driving loop (live or replay) observes the stopped engine and exits.
func (s *session) shutdown() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.agent.Stop()
	s.eng.Stop()
}
