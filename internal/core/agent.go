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
// scheme runs unchanged) and adds the caching-based expedited recovery
// scheme through the SRM agent's extension hooks. It implements
// netsim.Host.
type Agent struct {
	srm *srm.Agent
	net netsim.Endpoint
	eng sim.Sched
	cfg Config

	// caches holds one requestor/replier cache per source (§3.1).
	caches   map[topology.NodeID]*Cache
	capacity int
	policy   Policy

	// pendingExp tracks armed expedited requests by (source, sequence)
	// so arrival of the packet cancels them (REORDER-DELAY handling,
	// §3.2). freeExp pools the handlers that fired or were cancelled.
	pendingExp map[sourceSeq]*expeditedRequest
	freeExp    *expeditedRequest

	expAttempts int
}

// expeditedRequest is one loss's REORDER-DELAY timer: the closure-free
// form of "after ReorderDelay, unicast the expedited request unless the
// packet arrived". Handlers are pooled per agent, like
// srm.Detection.
type expeditedRequest struct {
	a            *Agent
	key          sourceSeq
	replier      topology.NodeID
	turningPoint topology.NodeID
	timer        sim.Timer
	next         *expeditedRequest
}

// Fire implements sim.EventHandler.
func (x *expeditedRequest) Fire(sim.Time) {
	a, key, replier, turningPoint := x.a, x.key, x.replier, x.turningPoint
	a.dropPendingExp(x)
	if a.srm.Crashed() || a.srm.Absent() {
		return // Crash/Leave cancel these timers, but stay silent regardless
	}
	if a.srm.Has(key.source, key.seq) {
		return // arrived meanwhile; nothing to expedite
	}
	a.srm.UnicastExpeditedRequest(key.source, key.seq, replier, turningPoint)
}

// dropPendingExp forgets x, fired or cancelled, and returns it to the
// pool.
func (a *Agent) dropPendingExp(x *expeditedRequest) {
	delete(a.pendingExp, x.key)
	x.next = a.freeExp
	a.freeExp = x
}

type sourceSeq struct {
	source topology.NodeID
	seq    int
}

var _ netsim.Host = (*Agent)(nil)
var _ srm.Extension = (*agentExtension)(nil)

// agentExtension adapts Agent to srm.Extension without exposing the
// hook methods on the public Agent API.
type agentExtension struct{ a *Agent }

func (e *agentExtension) LossDetected(now sim.Time, source topology.NodeID, seq int) {
	e.a.onLossDetected(now, source, seq)
}
func (e *agentExtension) PacketReceived(now sim.Time, source topology.NodeID, seq int) {
	e.a.onPacketReceived(source, seq)
}
func (e *agentExtension) ReplyObserved(now sim.Time, m *srm.ReplyMsg, everLost bool) {
	e.a.onReplyObserved(m, everLost)
}
func (e *agentExtension) ExpeditedRequest(now sim.Time, m *srm.RequestMsg) {
	e.a.onExpeditedRequest(now, m)
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
		net:        net,
		eng:        eng,
		cfg:        cfg,
		caches:     make(map[topology.NodeID]*Cache, 1),
		capacity:   capacity,
		policy:     policy,
		pendingExp: make(map[sourceSeq]*expeditedRequest, 8),
	}
	inner, err := srm.NewAgent(eng, net, rng, id, cfg.SRM, obs, &agentExtension{a})
	if err != nil {
		return nil, err
	}
	a.srm = inner
	return a, nil
}

// ID returns the agent's node.
func (a *Agent) ID() topology.NodeID { return a.srm.ID() }

// SRM returns the embedded fallback agent, giving access to shared
// state inspection (losses, distances, completion).
func (a *Agent) SRM() *srm.Agent { return a.srm }

// Cache returns the agent's requestor/replier cache for the given
// source's stream, creating an empty one on first use (§3.1: one cache
// per source).
func (a *Agent) Cache(source topology.NodeID) *Cache {
	c, ok := a.caches[source]
	if !ok {
		var err error
		c, err = NewCache(a.capacity)
		if err != nil {
			// Capacity was validated at construction, so this is an
			// internal invariant breach; the typed panic keeps the host
			// context so fuzzing harnesses can attribute it.
			panic(&InternalError{
				Host: a.ID(),
				Op:   fmt.Sprintf("creating recovery cache for source %d", source),
				Err:  err,
			})
		}
		a.caches[source] = c
	}
	return c
}

// PolicyName returns the active expedition policy's name.
func (a *Agent) PolicyName() string { return a.policy.Name() }

// ExpeditedAttempts counts losses for which this agent initiated (or
// scheduled) an expedited request.
func (a *Agent) ExpeditedAttempts() int { return a.expAttempts }

// StartSessions delegates to the SRM layer.
func (a *Agent) StartSessions() { a.srm.StartSessions() }

// Stop delegates to the SRM layer.
func (a *Agent) Stop() { a.srm.Stop() }

// Transmit delegates to the SRM layer, originating packet seq of this
// host's own stream.
func (a *Agent) Transmit(seq int) { a.srm.Transmit(seq) }

// Deliver implements netsim.Host for callers that attach this agent
// themselves: everything flows through SRM, whose extension hooks call
// back into this agent.
func (a *Agent) Deliver(now sim.Time, p *netsim.Packet) { a.srm.Deliver(now, p) }

// onLossDetected runs CESRM's expedited path in parallel with the SRM
// request just scheduled (§3.2): consult the cache, and if this host is
// the expeditious requestor of the selected pair, schedule an expedited
// request REORDER-DELAY in the future.
func (a *Agent) onLossDetected(now sim.Time, source topology.NodeID, seq int) {
	tuple, ok := a.policy.Select(a.Cache(source))
	if !ok || tuple.Requestor != a.ID() {
		return
	}
	a.expAttempts++
	x := a.freeExp
	if x == nil {
		x = &expeditedRequest{a: a}
	} else {
		a.freeExp = x.next
	}
	x.key = sourceSeq{source, seq}
	x.replier = tuple.Replier
	x.turningPoint = topology.None
	if a.cfg.RouterAssist {
		x.turningPoint = tuple.TurningPoint
	}
	a.pendingExp[x.key] = x
	x.timer = a.eng.ScheduleHandler(a.cfg.ReorderDelay, x)
}

// onPacketReceived cancels any pending expedited request for a packet
// that just arrived (reordering guard, §3.2).
func (a *Agent) onPacketReceived(source topology.NodeID, seq int) {
	if x, ok := a.pendingExp[sourceSeq{source, seq}]; ok {
		a.eng.Cancel(x.timer)
		a.dropPendingExp(x)
	}
}

// onExpeditedRequest makes this host act as the expeditious replier
// (§3.2): if it has the packet and no reply is scheduled or pending, it
// immediately multicasts an expedited reply (or, with router
// assistance, unicasts it to the turning point for subcast, §3.3).
func (a *Agent) onExpeditedRequest(now sim.Time, m *srm.RequestMsg) {
	a.srm.SendExpeditedReply(now, m, a.cfg.RouterAssist)
}

// onReplyObserved maintains the requestor/replier cache (§3.1): replies
// for packets this host never lost are discarded; others contribute
// their annotated recovery tuple, keeping the optimal pair per packet.
func (a *Agent) onReplyObserved(m *srm.ReplyMsg, everLost bool) {
	if !everLost {
		return
	}
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

// Crash makes the whole endpoint fail-stop: every pending REORDER-DELAY
// expedited-request timer is cancelled — a crashed host must never
// unicast an expedited request — and the SRM layer crashes (expedited
// requests arriving afterwards are also ignored).
func (a *Agent) Crash() {
	a.cancelPendingExp()
	a.srm.Crash()
}

// cancelPendingExp cancels and clears every pending REORDER-DELAY
// timer.
func (a *Agent) cancelPendingExp() {
	for _, x := range a.pendingExp {
		a.eng.Cancel(x.timer)
		a.dropPendingExp(x)
	}
}

// Crashed reports whether Crash has been called.
func (a *Agent) Crashed() bool { return a.srm.Crashed() }

// Restart rejoins a crashed endpoint (§3.3's dynamic-membership model):
// any leftover expedited-request timers are forgotten, every per-source
// requestor/replier cache is dropped — the cached pairs may name hosts
// that died while this one was down, and the scheme's graceful
// degradation relies on the cache re-converging to live pairs from
// observed recoveries — and the SRM layer restarts with fresh state,
// re-synchronizing via session messages.
func (a *Agent) Restart() {
	a.cancelPendingExp()
	a.caches = make(map[topology.NodeID]*Cache, 1+len(a.caches))
	a.srm.Restart()
}

// Leave makes the endpoint depart gracefully: pending REORDER-DELAY
// timers are cancelled — an absent host must never unicast an
// expedited request — and the SRM layer goes silent. Unlike Restart,
// the per-source caches survive: a graceful leave is not amnesia, and
// the member announced its departure, so on Join the cached pairs are
// exactly as stale as any other member's.
func (a *Agent) Leave() {
	a.cancelPendingExp()
	a.srm.Leave()
}

// Join rejoins a departed endpoint; the SRM layer restarts its session
// schedule and opens each stream's reliability window at the first
// post-join data it observes.
func (a *Agent) Join() { a.srm.Join() }

// Absent reports whether the endpoint has left and not rejoined.
func (a *Agent) Absent() bool { return a.srm.Absent() }

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
