package srm

import (
	"fmt"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// Params are SRM's scheduling parameters (§2.1, §2.2).
type Params struct {
	// C1 and C2 control deterministic and probabilistic request
	// suppression: request timers are drawn uniformly from
	// [C1*d, (C1+C2)*d] scaled by 2^k per back-off round.
	C1, C2 float64
	// C3 scales the back-off abstinence period 2^k*C3*d, the interval
	// during which further requests do not back the timer off again
	// (the paper's parameterized variant of SRM's "half the time to the
	// next request").
	C3 float64
	// D1 and D2 control reply suppression: reply timers are drawn
	// uniformly from [D1*d, (D1+D2)*d] with d the replier's distance to
	// the requestor.
	D1, D2 float64
	// D3 scales the reply abstinence period D3*d after a reply for a
	// packet is sent or received, during which further requests for it
	// are discarded.
	D3 float64
	// SessionPeriod is the interval between session messages (1 s in
	// the paper's evaluation).
	SessionPeriod time.Duration
	// DefaultDistance substitutes for missing distance estimates. With
	// lossless session exchange and a warm-up phase it is never used;
	// it keeps the protocol live under session loss.
	DefaultDistance time.Duration
	// DistanceMode selects the session-message distance estimator: the
	// simulator-exact one-way mode (default) or SRM's deployable
	// echo-RTT mode, which assumes no clock synchronization.
	DistanceMode DistanceMode
	// DetectionSlack delays session-message-triggered loss detection.
	// Session messages are tiny control packets that can outrun in-flight
	// data packets (which pay per-hop serialization delay), so acting on
	// an advertised sequence number immediately would misclassify
	// packets still in flight as lost. The slack must cover the maximum
	// serialization skew: payload transmission time times tree depth.
	DetectionSlack time.Duration
	// MaxBackoff caps the back-off exponent so interval arithmetic
	// cannot overflow under sustained recovery failure.
	MaxBackoff int
	// MaxRequestRounds bounds how many request rounds a receiver
	// attempts per loss before abandoning recovery with a
	// RequestAbandoned event (bounded-retry degradation under
	// membership churn: a requester whose repliers all departed must
	// not loop exponential timers forever). Zero — the default and the
	// paper's behavior — retries without bound.
	MaxRequestRounds int
}

// MaxSeq is the highest sequence number a stream may carry. A received
// message naming a negative number, or one above MaxSeq, is rejected
// whole (counted in Agent.SeqRejects) before it creates any stream
// state: otherwise one forged datagram arms a loss record and a request
// timer for every number below it. The drivers refuse a longer stream
// (experiment.Run, wire.NodeConfig.Validate) and Transmit panics past
// it, so the bound holds for every host, an amnesiac one that re-learns
// a stream from 0 included. 2^20 is above seven times the longest
// Table 1 stream (148,970 packets) and below the two million numbers
// one forged datagram used to make a host detect as lost.
const MaxSeq = 1 << 20

// DefaultParams returns the parameter settings used by Floyd et al. and
// by the paper's evaluation (§4.3): C1=C2=2, C3=1.5, D1=D2=1, D3=1.5,
// 1-second session period.
func DefaultParams() Params {
	return Params{
		C1: 2, C2: 2, C3: 1.5,
		D1: 1, D2: 1, D3: 1.5,
		SessionPeriod:   time.Second,
		DefaultDistance: 500 * time.Millisecond,
		DetectionSlack:  50 * time.Millisecond,
		MaxBackoff:      24,
	}
}

// Validate checks the parameters for protocol liveness.
func (p Params) Validate() error {
	if p.C1 < 0 || p.C2 < 0 || p.C3 < 0 || p.D1 < 0 || p.D2 < 0 || p.D3 < 0 {
		return fmt.Errorf("srm: negative scheduling parameter: %+v", p)
	}
	if p.C1+p.C2 == 0 {
		return fmt.Errorf("srm: C1+C2 must be positive")
	}
	if p.SessionPeriod <= 0 {
		return fmt.Errorf("srm: non-positive session period %v", p.SessionPeriod)
	}
	if p.DefaultDistance <= 0 {
		return fmt.Errorf("srm: non-positive default distance %v", p.DefaultDistance)
	}
	if p.DetectionSlack < 0 {
		return fmt.Errorf("srm: negative detection slack %v", p.DetectionSlack)
	}
	if p.MaxBackoff < 1 || p.MaxBackoff > 62 {
		return fmt.Errorf("srm: MaxBackoff %d out of [1, 62]", p.MaxBackoff)
	}
	if p.MaxRequestRounds < 0 {
		return fmt.Errorf("srm: negative MaxRequestRounds %d", p.MaxRequestRounds)
	}
	return nil
}

// RecoveryInfo describes how one loss was recovered.
type RecoveryInfo struct {
	// DetectedAt is the instant the host detected the loss, so the event
	// alone carries the recovery's latency.
	DetectedAt sim.Time
	// Expedited reports recovery by a CESRM expedited reply.
	Expedited bool
	// Requestor and Replier are the pair annotated on the recovering
	// reply. Requestor is None when the packet arrived as (reordered)
	// original data rather than a repair.
	Requestor, Replier topology.NodeID
	// OwnRequests counts repair requests this host itself multicast for
	// the packet before recovery.
	OwnRequests int
	// Reschedules counts suppression back-offs (request reschedules
	// caused by hearing another host's request).
	Reschedules int
}

// Observer receives protocol events for metrics collection. Methods are
// invoked synchronously from the simulation loop; implementations must
// not mutate protocol state. All events identify the stream by its
// source host.
type Observer interface {
	// LossDetected fires when a receiver first classifies a packet as
	// lost.
	LossDetected(host, source topology.NodeID, seq int, at sim.Time)
	// Recovered fires when a lost packet is finally received.
	Recovered(host, source topology.NodeID, seq int, at sim.Time, info RecoveryInfo)
	// RequestSent fires for every multicast repair request; round is the
	// back-off exponent in force when it was sent (0 for first round).
	RequestSent(host, source topology.NodeID, seq int, round int)
	// ExpRequestSent fires for every unicast expedited request.
	ExpRequestSent(host, source topology.NodeID, seq int)
	// ReplySent fires for every repair reply (retransmission).
	ReplySent(host, source topology.NodeID, seq int, expedited bool)
	// SessionSent fires for every session message.
	SessionSent(host topology.NodeID)
	// RequestAbandoned fires when a receiver gives up on recovering a
	// lost packet after Params.MaxRequestRounds request rounds. The
	// packet stays missing; the run's reliability accounting must
	// reconcile it explicitly.
	RequestAbandoned(host, source topology.NodeID, seq int, rounds int)
}

// FloorObserver is an Observer that also learns where each stream opens.
// An agent reports NoteFloor when its stream of source opens, at the
// reliability floor below which it never held a packet: 0 for a host
// present from the start or restarted, the first post-join evidence for
// a late joiner. The validator's invariant 11 needs it because a stream
// reads every packet below its floor as held.
type FloorObserver interface {
	NoteFloor(host, source topology.NodeID, floor int)
}

// NopObserver ignores all events.
type NopObserver struct{}

// LossDetected implements Observer.
func (NopObserver) LossDetected(_, _ topology.NodeID, _ int, _ sim.Time) {}

// Recovered implements Observer.
func (NopObserver) Recovered(_, _ topology.NodeID, _ int, _ sim.Time, _ RecoveryInfo) {}

// RequestSent implements Observer.
func (NopObserver) RequestSent(_, _ topology.NodeID, _ int, _ int) {}

// ExpRequestSent implements Observer.
func (NopObserver) ExpRequestSent(_, _ topology.NodeID, _ int) {}

// ReplySent implements Observer.
func (NopObserver) ReplySent(_, _ topology.NodeID, _ int, _ bool) {}

// SessionSent implements Observer.
func (NopObserver) SessionSent(topology.NodeID) {}

// RequestAbandoned implements Observer.
func (NopObserver) RequestAbandoned(_, _ topology.NodeID, _ int, _ int) {}

var _ Observer = NopObserver{}

// Expedite is the expedited request an extension arms for a new loss
// (§3.2): once REORDER-DELAY After has passed with the packet still
// missing, unicast a request to Replier annotated with TurningPoint
// (None without router assistance).
type Expedite struct {
	Replier, TurningPoint topology.NodeID
	After                 time.Duration
}

// Extension is the hook surface the CESRM layer implements. A nil
// extension yields plain SRM.
type Extension interface {
	// LossDetected is invoked immediately after SRM schedules its own
	// repair request for a newly detected loss. It returns the expedited
	// request to arm, if any: the loss record holds it on a second timer,
	// cancelled when the packet arrives or the host goes silent.
	LossDetected(now sim.Time, source topology.NodeID, seq int) (Expedite, bool)
	// ReplyObserved is invoked, after SRM's own processing, for every
	// repair reply this host receives for a packet it lost: the
	// condition under which CESRM caches the reply's requestor/replier
	// pair. A duplicate for a packet the host never lost is not an
	// extension's business, so the member group may serve it inline.
	ReplyObserved(now sim.Time, m *ReplyMsg)
	// ExpeditedRequest is invoked for every expedited request this host
	// receives; SRM itself does nothing with one.
	ExpeditedRequest(now sim.Time, m *RequestMsg)
}
