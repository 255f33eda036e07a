package experiment

import (
	"slices"

	"cesrm/internal/chaos"
	"cesrm/internal/lossinfer"
	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// lossModel is a run's loss injection (§4.2, §4.3), answering the
// network in both of its forms from one set of data: drop is the
// per-link netsim.DropFunc, verdict the once-per-flood netsim.LossFunc.
// In order of precedence: chaos session starvation; session messages
// lossless; original data dropped on the downstream crossing of exactly
// the links inference attributed that packet's losses to; recovery
// traffic lossless, or under LossyRecovery dropped per crossing at the
// link's estimated rate.
type lossModel struct {
	// sessionDrops is set when the chaos controller may drop session
	// packets (chaos.Spec.DropsSessions). No session verdict is then known
	// for the whole run: a queuing flood holds its verdict across
	// instants, and a drop window can open while one is in flight. Chaos
	// touches no other packet's drop.
	sessionDrops bool
	// chaos is nil until the controller is installed (Stage 4) and for
	// chaos-free runs.
	chaos *chaos.Controller
	// drops[seq] lists the links that lose data packet seq.
	drops         [][]topology.LinkID
	rates         lossinfer.LinkRates
	rng           *sim.RNG
	lossyRecovery bool
}

// newLossModel builds the run's loss model from its configuration, the
// per-packet link attribution and the estimated link rates; rng is the
// lossy-recovery drop stream. Run hands it the chaos controller once
// that is installed.
func newLossModel(cfg *RunConfig, drops [][]topology.LinkID, rates lossinfer.LinkRates, rng *sim.RNG) *lossModel {
	return &lossModel{
		sessionDrops:  cfg.Chaos != nil && cfg.Chaos.DropsSessions(),
		drops:         drops,
		rates:         rates,
		rng:           rng,
		lossyRecovery: cfg.LossyRecovery,
	}
}

// drop implements netsim.DropFunc.
func (m *lossModel) drop(p *netsim.Packet, link topology.LinkID, down bool) bool {
	if m.chaos != nil && m.chaos.Drop(p, link, down) {
		return true
	}
	if p.Session {
		// The paper's evaluation presumes lossless session exchange.
		return false
	}
	if d, ok := p.Msg.(*srm.DataMsg); ok {
		return down && slices.Contains(m.drops[d.Seq], link)
	}
	// Recovery traffic: lossless in the paper's main configuration.
	if !m.lossyRecovery {
		return false
	}
	return m.rng.Float64() < m.rates[link]
}

// verdict implements netsim.LossFunc: known exactly when drop's answers
// for p are the fixed downstream set it returns, at every instant of the
// run, and draw nothing.
func (m *lossModel) verdict(p *netsim.Packet) (lost []topology.LinkID, known bool) {
	if p.Session {
		return nil, !m.sessionDrops
	}
	if d, ok := p.Msg.(*srm.DataMsg); ok {
		return m.drops[d.Seq], true
	}
	return nil, !m.lossyRecovery
}
