package lms

import (
	"fmt"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/seqwin"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// NAKMsg is an LMS negative acknowledgment, unicast from a requestor
// via its turning-point router to the designated replier.
type NAKMsg struct {
	// Seq is the missing packet.
	Seq int
	// Requestor is the host that detected the loss.
	Requestor topology.NodeID
	// TurningPoint is the router that turned the NAK toward the replier.
	TurningPoint topology.NodeID
	// OriginChild is the turning point's child on the requestor's side;
	// the repair is subcast into that subtree.
	OriginChild topology.NodeID
}

// RepairMsg is an LMS retransmission, unicast to the origin subtree's
// head and subcast below it.
type RepairMsg struct {
	// Seq is the retransmitted packet.
	Seq int
	// Replier is the retransmitting host.
	Replier topology.NodeID
	// Requestor is the host whose NAK instigated the repair.
	Requestor topology.NodeID
}

// Config parameterizes an LMS endpoint.
type Config struct {
	// HeartbeatPeriod is the source's state-advertisement interval
	// (LMS's analogue of session messages; excluded from recovery
	// overhead like SRM's session stream). Zero selects 1 s.
	HeartbeatPeriod time.Duration
	// RetrySlack pads the NAK retransmission timeout beyond the
	// requestor-replier round trip. Zero selects 50 ms.
	RetrySlack time.Duration
	// DetectionSlack delays heartbeat-triggered loss detection, covering
	// in-flight data serialization skew. Zero selects 50 ms.
	DetectionSlack time.Duration
	// MaxBackoff caps the NAK retry back-off exponent. Zero selects 16.
	MaxBackoff int
}

func (c *Config) applyDefaults() {
	if c.HeartbeatPeriod == 0 {
		c.HeartbeatPeriod = time.Second
	}
	if c.RetrySlack == 0 {
		c.RetrySlack = 50 * time.Millisecond
	}
	if c.DetectionSlack == 0 {
		c.DetectionSlack = 50 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 16
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.HeartbeatPeriod < 0 || c.RetrySlack < 0 || c.DetectionSlack < 0 || c.MaxBackoff < 0 {
		return fmt.Errorf("lms: negative config value: %+v", c)
	}
	return nil
}

// lossState tracks one outstanding loss on a requestor.
type lossState struct {
	detectedAt  sim.Time
	recovered   bool
	recoveredAt sim.Time
	retries     int
	timer       sim.Timer
}

// pendingNAK is a NAK a replier could not serve yet (it shares the
// loss); it is served as soon as the packet is recovered.
type pendingNAK struct {
	turningPoint topology.NodeID
	originChild  topology.NodeID
	requestor    topology.NodeID
}

// Agent is one LMS endpoint for a single-source transmission rooted at
// the tree root. It implements netsim.Host.
type Agent struct {
	id     topology.NodeID
	source topology.NodeID
	eng    sim.Sched
	net    netsim.Endpoint
	fabric *Fabric
	cfg    Config
	obs    srm.Observer

	// received, losses and pending are sliding seqwin windows released
	// together (see ReleaseThrough), so they share one base; base ≤ held
	// ≤ cursor. losses and pending hold nil for packets with no such
	// state.
	received      seqwin.Prefix
	losses        seqwin.Window[*lossState]
	pending       seqwin.Window[[]pendingNAK]
	cursor        int
	highestKnown  int
	advertPending int
	// outstanding counts detected-but-unrecovered losses, keeping the
	// monitor's per-period Outstanding polls O(1).
	outstanding int

	stopped bool
	crashed bool
	// absent marks a graceful departure (Leave without a later Join);
	// lateJoin arms the one-shot reliability floor a rejoining host
	// applies at its first post-join contact with the stream.
	absent   bool
	lateJoin bool
	// heartbeatTimer is the pending self-rescheduling heartbeat tick
	// (source only), retained so Crash can cancel it.
	heartbeatTimer sim.Timer
	// freeSlack pools fired advertDetection handlers.
	freeSlack *advertDetection
	// frames supplies the source's data and heartbeat packets.
	frames srm.Frames
}

var _ netsim.Host = (*Agent)(nil)

// NewAgent constructs an LMS endpoint at node id and registers it with
// the network. obs may be nil.
func NewAgent(eng sim.Sched, net netsim.Endpoint, fabric *Fabric, id topology.NodeID, cfg Config, obs srm.Observer) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	if obs == nil {
		obs = srm.NopObserver{}
	}
	a := &Agent{
		id:            id,
		source:        net.Tree().Root(),
		eng:           eng,
		net:           net,
		fabric:        fabric,
		cfg:           cfg,
		obs:           obs,
		highestKnown:  -1,
		advertPending: -1,
	}
	net.AttachHost(id, a)
	return a, nil
}

// ID returns the agent's node.
func (a *Agent) ID() topology.NodeID { return a.id }

// StartSessions begins the source's periodic heartbeat; receivers do
// nothing (the method exists for harness symmetry with SRM/CESRM).
func (a *Agent) StartSessions() {
	if a.id != a.source {
		return
	}
	a.heartbeatTimer = a.eng.Schedule(a.cfg.HeartbeatPeriod, a.heartbeatTick)
}

func (a *Agent) heartbeatTick(now sim.Time) {
	if a.stopped {
		return
	}
	pkt, m := a.frames.Session(a.id, now)
	if a.highestKnown >= 0 {
		m.Highest = append(m.Highest, srm.Advert{Source: a.source, Highest: a.highestKnown})
	}
	a.net.Multicast(a.id, pkt)
	a.obs.SessionSent(a.id)
	a.heartbeatTimer = a.eng.Schedule(a.cfg.HeartbeatPeriod, a.heartbeatTick)
}

// Stop halts heartbeat rescheduling. Like srm.Agent.Stop, the armed
// tick drains inertly rather than being cancelled, preserving the final
// virtual time crash-free run fingerprints digest.
func (a *Agent) Stop() { a.stopped = true }

// Crash makes the host fail-stop and reports the failure to the fabric,
// whose routers route around it only after the refresh delay.
func (a *Agent) Crash() {
	a.crashed = true
	a.stopped = true
	a.cancelTimers()
	a.fabric.ReportCrash(a.id)
}

// cancelTimers cancels the heartbeat tick and every armed NAK retry.
func (a *Agent) cancelTimers() {
	a.eng.Cancel(a.heartbeatTimer)
	for _, ls := range a.losses.Cells() {
		if ls != nil {
			a.eng.Cancel(ls.timer)
		}
	}
}

// Crashed reports whether Crash has been called.
func (a *Agent) Crashed() bool { return a.crashed }

// Restart rejoins a crashed host with amnesia: reception and loss state
// is discarded and rebuilt from the source's heartbeats (the host
// re-detects everything it is missing and NAKs it), and the fabric is
// told the host is back — routers re-designate repliers only after the
// refresh delay, the same staleness window crashes suffer. Restarting a
// live host panics.
func (a *Agent) Restart() {
	if !a.crashed {
		panic(fmt.Sprintf("lms: restarting host %d that never crashed", a.id))
	}
	a.crashed = false
	a.rejoin()
}

// rejoin is the tail Restart and Join share: reception and loss state
// restarts empty, the fabric is told the host is back, and the session
// exchange resumes.
func (a *Agent) rejoin() {
	a.stopped = false
	a.openAt(0)
	a.highestKnown = -1
	a.advertPending = -1
	a.outstanding = 0
	a.fabric.ReportRestart(a.id)
	a.StartSessions()
}

// openAt empties the per-packet windows and rebases them at floor:
// everything below it reads as held and loss detection begins there.
func (a *Agent) openAt(floor int) {
	a.received.OpenAt(floor)
	a.losses.OpenAt(floor)
	a.pending.OpenAt(floor)
	a.cursor = floor
}

// Leave makes the host depart gracefully: it goes silent (no NAKs, no
// repairs, no heartbeats) and its failure is announced to the fabric so
// routers re-designate repliers — the same staleness window a crash
// suffers, but without amnesia. Leaving a crashed or already-absent
// host panics.
func (a *Agent) Leave() {
	if a.crashed {
		panic(fmt.Sprintf("lms: crashed host %d leaving", a.id))
	}
	if a.absent {
		panic(fmt.Sprintf("lms: absent host %d leaving twice", a.id))
	}
	a.absent = true
	a.stopped = true
	a.cancelTimers()
	a.fabric.ReportCrash(a.id)
}

// Join rejoins a departed host. Per-packet reception state is rebuilt
// with a late-join reliability floor: the first post-join contact with
// the stream (data, heartbeat advert, NAK or repair) opens the window
// there, so the host never chases packets sent while it was out of the
// group. Joining a present host panics.
func (a *Agent) Join() {
	if !a.absent {
		panic(fmt.Sprintf("lms: present host %d joining", a.id))
	}
	a.absent = false
	a.lateJoin = true
	a.rejoin()
}

// Absent reports whether the host has left and not rejoined.
func (a *Agent) Absent() bool { return a.absent }

// AbandonedIn reports losses abandoned after bounded retries. LMS never
// abandons — its NAK retries are bounded-exponential but unbounded in
// count, and the single source never leaves — so it is always zero; the
// method exists for reconciliation symmetry with srm.Agent.
func (a *Agent) AbandonedIn(source topology.NodeID) int { return 0 }

// floorTo applies the one-shot late-join reliability floor: sequence
// numbers below floor are treated as held (see openAt), so detection
// starts at the first post-join packet rather than seq 0.
func (a *Agent) floorTo(floor int) {
	if !a.lateJoin || a.id == a.source {
		return
	}
	a.lateJoin = false
	if floor > 0 {
		a.openAt(floor)
	}
}

// Transmit multicasts original packet seq; only the source may call it.
func (a *Agent) Transmit(seq int) {
	if a.id != a.source {
		panic(fmt.Sprintf("lms: non-source host %d transmitting", a.id))
	}
	a.received.Mark(seq)
	a.noteExists(seq)
	a.cursor = seq + 1
	a.net.Multicast(a.id, a.frames.Data(a.id, seq))
}

// Has reports possession of packet seq. Released sequence numbers
// report true: release is gated on every live host holding them.
func (a *Agent) Has(seq int) bool { return a.received.Has(seq) }

// ReleasableThrough returns the watermark through which this host's
// per-packet state could be discarded right now: the contiguous
// received prefix. Unlike SRM there is no replier-side timer or
// abstinence state to wait out — a repair for a held packet is sent
// synchronously from the reception path, and pending NAKs for a packet
// are flushed the moment it arrives — so holding a packet is the whole
// safety condition. The source parameter exists for interface symmetry
// with srm.Agent and is ignored (LMS is single-stream).
func (a *Agent) ReleasableThrough(source topology.NodeID) int { return a.received.Held() }

// ReleasableBelow is ReleasableThrough capped at limit. Holding a packet
// is the whole condition, so no per-packet cell is read.
func (a *Agent) ReleasableBelow(source topology.NodeID, limit int) (n, visited int) {
	return min(a.received.Held(), limit), 0
}

// HeldWindow returns the bounds [base, held) of the retained window
// this host holds contiguously, and whether its stream is open: a
// rejoined host's is not until its first post-join contact applies the
// late-join floor (floorTo), and until then it holds nothing.
func (a *Agent) HeldWindow(source topology.NodeID) (base, held int, open bool) {
	return a.received.Base(), a.received.Held(), !a.lateJoin
}

// ReleaseThrough discards per-packet state below n, clamped to the held
// prefix. The experiment layer calls it only after every present host
// reported a releasable watermark ≥ n and a drain lag covered in-flight
// traffic. A NAK straggling in for a released sequence is still served
// correctly: Has reports true, so the repair path runs exactly as it
// would have before release. No engine operations happen here, so
// release is invisible to the run's event stream and fingerprint.
func (a *Agent) ReleaseThrough(source topology.NodeID, n int) {
	a.received.ReleaseThrough(n)
	a.losses.ReleaseThrough(a.received.Base())
	a.pending.ReleaseThrough(a.received.Base())
}

// PacketWindow returns the number of per-seq state cells currently
// retained; tests pin release effectiveness with it.
func (a *Agent) PacketWindow() int {
	return a.received.Len() + a.losses.Len() + a.pending.Len()
}

// MissingIn returns how many of [0, n) the agent lacks. The source
// parameter exists for interface symmetry with srm.Agent and must be
// the tree root.
func (a *Agent) MissingIn(source topology.NodeID, n int) int {
	missing := 0
	for i := 0; i < n; i++ {
		if !a.Has(i) {
			missing++
		}
	}
	return missing
}

// ClassifiedThrough returns the first unclassified sequence number.
func (a *Agent) ClassifiedThrough(source topology.NodeID) int { return a.cursor }

// RecoveryTime returns when packet seq was recovered, if this host
// detected its loss and has since recovered it.
func (a *Agent) RecoveryTime(seq int) (sim.Time, bool) {
	ls := a.losses.At(seq)
	if ls == nil || !ls.recovered {
		return 0, false
	}
	return ls.recoveredAt, true
}

// Outstanding returns the number of unrecovered detected losses.
func (a *Agent) Outstanding() int { return a.outstanding }

func (a *Agent) noteExists(seq int) {
	if seq > a.highestKnown {
		a.highestKnown = seq
	}
}

// Deliver implements netsim.Host.
func (a *Agent) Deliver(now sim.Time, p *netsim.Packet) {
	if a.crashed || a.absent {
		return
	}
	switch m := p.Msg.(type) {
	case *srm.DataMsg:
		a.receivePacket(now, m.Seq, topology.None, topology.None)
	case *srm.SessionMsg:
		a.onHeartbeat(now, m)
	case *NAKMsg:
		a.onNAK(now, m)
	case *RepairMsg:
		a.receivePacket(now, m.Seq, m.Requestor, m.Replier)
	default:
		panic(fmt.Sprintf("lms: host %d received unknown message %T", a.id, p.Msg))
	}
}

func (a *Agent) receivePacket(now sim.Time, seq int, requestor, replier topology.NodeID) {
	a.floorTo(seq)
	a.noteExists(seq)
	if a.Has(seq) {
		return
	}
	a.received.Mark(seq)
	if ls := a.losses.At(seq); ls != nil && !ls.recovered {
		ls.recovered = true
		ls.recoveredAt = now
		a.outstanding--
		a.eng.Cancel(ls.timer)
		a.obs.Recovered(a.id, a.source, seq, now, srm.RecoveryInfo{
			Requestor:   requestor,
			Replier:     replier,
			OwnRequests: ls.retries + 1,
		})
	}
	a.detectThrough(now, seq-1)
	if a.cursor == seq {
		a.cursor = seq + 1
	}
	// Serve NAKs that were waiting on this packet.
	if c := a.pending.Get(seq); c != nil {
		waiting := *c
		*c = nil
		for _, w := range waiting {
			a.sendRepair(seq, w)
		}
	}
}

func (a *Agent) detectThrough(now sim.Time, x int) {
	if a.id == a.source {
		return
	}
	for ; a.cursor <= x; a.cursor++ {
		if !a.Has(a.cursor) {
			a.detectLoss(now, a.cursor)
		}
	}
}

// detectLoss begins LMS recovery: the NAK goes out immediately — no
// suppression delay, the point of router-assisted recovery — and
// retries with exponential back-off until the repair arrives.
func (a *Agent) detectLoss(now sim.Time, seq int) {
	if a.losses.At(seq) != nil {
		return
	}
	ls := &lossState{detectedAt: now}
	// seq is never below base: losses are detected at the cursor, which
	// never trails the release watermark.
	*a.losses.Ensure(seq) = ls
	a.outstanding++
	a.obs.LossDetected(a.id, a.source, seq, now)
	a.sendNAK(now, seq, ls)
}

func (a *Agent) sendNAK(now sim.Time, seq int, ls *lossState) {
	if ls.recovered {
		return
	}
	tp, origin, replier, err := a.fabric.Route(a.id)
	retryIn := a.cfg.RetrySlack * time.Duration(uint64(1)<<uint(min(ls.retries, a.cfg.MaxBackoff)))
	if err == nil {
		m := &NAKMsg{Seq: seq, Requestor: a.id, TurningPoint: tp, OriginChild: origin}
		a.net.Unicast(a.id, replier, &netsim.Packet{Class: netsim.Control, Msg: m})
		a.obs.RequestSent(a.id, a.source, seq, ls.retries)
		retryIn += 2 * a.net.RTT(a.id, replier)
	}
	ls.retries++
	ls.timer = a.eng.Schedule(retryIn, func(now sim.Time) {
		a.sendNAK(now, seq, ls)
	})
}

// onNAK serves a repair if this host has the packet, or queues the NAK
// until it does (the designated replier may share the loss).
func (a *Agent) onNAK(now sim.Time, m *NAKMsg) {
	a.floorTo(m.Seq + 1)
	w := pendingNAK{turningPoint: m.TurningPoint, originChild: m.OriginChild, requestor: m.Requestor}
	if a.Has(m.Seq) {
		a.sendRepair(m.Seq, w)
		return
	}
	// Deduplicate by origin subtree: one repair per subtree suffices.
	// m.Seq is never below base here: Has(seq < base) is true, so a
	// straggling NAK for a released packet took the sendRepair path above.
	waiting := a.pending.Ensure(m.Seq)
	for _, p := range *waiting {
		if p.originChild == w.originChild {
			return
		}
	}
	*waiting = append(*waiting, w)
	a.noteExists(m.Seq)
	// The replier shares the loss: make sure its own recovery is under
	// way (it may not have detected the gap yet).
	a.detectThrough(now, m.Seq)
}

// sendRepair unicasts the retransmission to the origin subtree's head
// and subcasts it below — LMS's localized recovery.
func (a *Agent) sendRepair(seq int, w pendingNAK) {
	m := &RepairMsg{Seq: seq, Replier: a.id, Requestor: w.requestor}
	pkt := &netsim.Packet{Class: netsim.Payload, Msg: m}
	a.net.UnicastThenSubcast(a.id, w.originChild, pkt)
	a.obs.ReplySent(a.id, a.source, seq, false)
}

// onHeartbeat performs heartbeat-advertised tail-loss detection with
// serialization slack, mirroring the SRM session mechanism.
func (a *Agent) onHeartbeat(now sim.Time, m *srm.SessionMsg) {
	highest, ok := m.HighestFor(a.source)
	if !ok || highest < 0 {
		return
	}
	a.floorTo(highest + 1)
	a.noteExists(highest)
	if a.id == a.source || highest < a.cursor || highest <= a.advertPending {
		return
	}
	a.advertPending = highest
	a.eng.ScheduleHandler(a.cfg.DetectionSlack, a.newAdvertDetection(highest))
}

// advertDetection is the deferred, heartbeat-triggered detection pass:
// the closure-free form of "after DetectionSlack, detect through
// highest". Handlers are pooled on the agent; one returns to the pool as
// it fires.
type advertDetection struct {
	a       *Agent
	highest int
	next    *advertDetection
}

func (a *Agent) newAdvertDetection(highest int) *advertDetection {
	d := a.freeSlack
	if d == nil {
		d = &advertDetection{a: a}
	} else {
		a.freeSlack = d.next
	}
	d.highest = highest
	return d
}

// Fire implements sim.EventHandler.
func (d *advertDetection) Fire(now sim.Time) {
	a, h := d.a, d.highest
	d.next = a.freeSlack
	a.freeSlack = d
	// Fire-and-forget, so Crash cannot cancel it: a crashed host must not
	// detect losses (the NAK timers it would arm are not covered by
	// Crash's cancel sweep and would retry forever). A post-restart
	// firing is harmless — state lives on the agent and re-detection is
	// exactly what a restarted host does anyway.
	if a.crashed || a.absent {
		return
	}
	a.detectThrough(now, h)
}
