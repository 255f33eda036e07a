package core

import (
	"fmt"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// Config parameterizes a CESRM endpoint.
type Config struct {
	// SRM holds the fallback scheme's scheduling parameters.
	SRM srm.Params
	// ReorderDelay postpones expedited requests so that packets
	// presumed missing due to reordering are not chased (§3.2). The
	// paper's evaluation uses 0 because its simulations never reorder.
	ReorderDelay time.Duration
	// CacheCapacity bounds the per-source requestor/replier cache; zero
	// selects DefaultCacheCapacity.
	CacheCapacity int
	// Policy selects the expeditious requestor/replier pair; nil
	// selects MostRecentLoss, the policy the paper's evaluation uses.
	Policy Policy
	// RouterAssist enables the light-weight router-assisted mode of
	// §3.3: replies learn their turning-point routers and expedited
	// replies are unicast to the turning point and subcast downstream.
	RouterAssist bool
}

// DefaultConfig returns the configuration used in the paper's
// evaluation (§4.3): default SRM parameters, zero reorder delay, the
// most-recent-loss policy, and no router assistance.
func DefaultConfig() Config {
	return Config{SRM: srm.DefaultParams()}
}

// Agent is one CESRM endpoint. It embeds a full SRM agent (the fallback
// scheme runs unchanged, and its methods are the endpoint's) and adds the
// caching-based expedited recovery scheme through the SRM agent's
// extension hooks: the expedited request a loss arms rides on SRM's loss
// record, so Crash, Leave and packet arrival cancel it there. It
// implements netsim.Host.
type Agent struct {
	*srm.Agent
	net netsim.Endpoint
	cfg Config

	// caches holds one requestor/replier cache per source (§3.1).
	caches   map[topology.NodeID]*Cache
	capacity int
	policy   Policy

	expAttempts int
}

var _ netsim.Host = (*Agent)(nil)
var _ srm.Extension = (*agentExtension)(nil)

// agentExtension adapts Agent to srm.Extension without exposing the
// hook methods on the public Agent API.
type agentExtension struct{ a *Agent }

func (e *agentExtension) LossDetected(now sim.Time, source topology.NodeID, seq int) (srm.Expedite, bool) {
	return e.a.onLossDetected(source)
}
func (e *agentExtension) ReplyObserved(now sim.Time, m *srm.ReplyMsg) {
	e.a.onReplyObserved(m)
}

// ExpeditedRequest makes this host act as the expeditious replier
// (§3.2): if it has the packet and no reply is scheduled or pending, it
// immediately multicasts an expedited reply (or, with router
// assistance, unicasts it to the turning point for subcast, §3.3).
func (e *agentExtension) ExpeditedRequest(now sim.Time, m *srm.RequestMsg) {
	e.a.SendExpeditedReply(now, m, e.a.cfg.RouterAssist)
}

// NewAgent constructs a CESRM endpoint at node id. The embedded SRM
// agent is what registers with the network: it dispatches every
// delivery and hands expedited requests back through its extension
// hook. obs may be nil.
func NewAgent(eng sim.Sched, net netsim.Endpoint, rng *sim.RNG, id topology.NodeID, cfg Config, obs srm.Observer) (*Agent, error) {
	capacity := cfg.CacheCapacity
	if capacity == 0 {
		capacity = DefaultCacheCapacity
	}
	if capacity < 1 {
		return nil, fmt.Errorf("core: cache capacity %d < 1", capacity)
	}
	if cfg.ReorderDelay < 0 {
		return nil, fmt.Errorf("core: negative reorder delay %v", cfg.ReorderDelay)
	}
	policy := cfg.Policy
	if policy == nil {
		policy = MostRecentLoss{}
	}
	a := &Agent{
		net:      net,
		cfg:      cfg,
		caches:   make(map[topology.NodeID]*Cache, 1),
		capacity: capacity,
		policy:   policy,
	}
	inner, err := srm.NewAgent(eng, net, rng, id, cfg.SRM, obs, &agentExtension{a})
	if err != nil {
		return nil, err
	}
	a.Agent = inner
	return a, nil
}

// SRM returns the embedded fallback agent, giving access to shared
// state inspection (losses, distances, completion).
func (a *Agent) SRM() *srm.Agent { return a.Agent }

// Cache returns the agent's requestor/replier cache for the given
// source's stream, creating an empty one on first use (§3.1: one cache
// per source).
func (a *Agent) Cache(source topology.NodeID) *Cache {
	c, ok := a.caches[source]
	if !ok {
		c = newCache(a.capacity) // validated by NewAgent
		a.caches[source] = c
	}
	return c
}

// PolicyName returns the active expedition policy's name.
func (a *Agent) PolicyName() string { return a.policy.Name() }

// ExpeditedAttempts counts losses for which this agent initiated (or
// scheduled) an expedited request.
func (a *Agent) ExpeditedAttempts() int { return a.expAttempts }

// onLossDetected runs CESRM's expedited path in parallel with the SRM
// request just scheduled (§3.2): consult the cache, and if this host is
// the expeditious requestor of the selected pair, have the loss record
// send an expedited request REORDER-DELAY in the future.
func (a *Agent) onLossDetected(source topology.NodeID) (srm.Expedite, bool) {
	tuple, ok := a.policy.Select(a.Cache(source))
	if !ok || tuple.Requestor != a.ID() {
		return srm.Expedite{}, false
	}
	a.expAttempts++
	x := srm.Expedite{Replier: tuple.Replier, TurningPoint: topology.None, After: a.cfg.ReorderDelay}
	if a.cfg.RouterAssist {
		x.TurningPoint = tuple.TurningPoint
	}
	return x, true
}

// onReplyObserved maintains the requestor/replier cache (§3.1): a reply
// for a packet this host lost contributes its annotated recovery tuple,
// keeping the optimal pair per packet. SRM never reports a reply for a
// packet the host did not lose.
func (a *Agent) onReplyObserved(m *srm.ReplyMsg) {
	if m.Requestor == topology.None {
		return
	}
	t := Tuple{
		Seq:                    m.Seq,
		Requestor:              m.Requestor,
		ReqDistToSource:        m.ReqDistToSource,
		Replier:                m.Replier,
		ReplierDistToRequestor: m.ReplierDistToRequestor,
		TurningPoint:           topology.None,
	}
	if a.cfg.RouterAssist {
		// In the router-assisted variant, routers annotate each reply
		// copy with the turning point at which it was forwarded
		// downstream toward this host: the highest router the copy
		// crossed between replier and this receiver.
		t.TurningPoint = a.net.Tree().TurningPoint(m.Replier, a.ID())
	}
	a.Cache(m.Source).Update(t)
}

// Restart rejoins a crashed endpoint (§3.3's dynamic-membership model):
// every per-source requestor/replier cache is dropped — the cached pairs
// may name hosts that died while this one was down, and the scheme's
// graceful degradation relies on the cache re-converging to live pairs
// from observed recoveries — and the SRM layer restarts with fresh
// state, re-synchronizing via session messages. A Leave, by contrast,
// keeps the caches: a graceful leave is not amnesia, and the member
// announced its departure, so on Join the cached pairs are exactly as
// stale as any other member's.
func (a *Agent) Restart() {
	a.caches = make(map[topology.NodeID]*Cache, 1+len(a.caches))
	a.Agent.Restart()
}

// InvalidateHost drops every cached tuple, in every per-source cache,
// that names dead as requestor or replier. The harness calls it on live
// endpoints when a membership service announces a crash, so stale pairs
// stop steering expedited requests at a dead host. Returns the number
// of tuples dropped.
func (a *Agent) InvalidateHost(dead topology.NodeID) int {
	removed := 0
	for _, c := range a.caches {
		removed += c.InvalidateHost(dead)
	}
	return removed
}
