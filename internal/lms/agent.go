package lms

import (
	"fmt"
	"time"

	"cesrm/internal/netsim"
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

const (
	// heartbeatPeriod is the source's state-advertisement interval (LMS's
	// analogue of session messages; excluded from recovery overhead like
	// SRM's session stream).
	heartbeatPeriod = time.Second
	// retrySlack pads the NAK retransmission timeout beyond the
	// requestor-replier round trip.
	retrySlack = 50 * time.Millisecond
	// detectionSlack delays heartbeat-triggered loss detection, covering
	// in-flight data serialization skew.
	detectionSlack = 50 * time.Millisecond
	// maxBackoff caps the NAK retry back-off exponent.
	maxBackoff = 16
)

// lossState tracks one outstanding loss on a requestor.
type lossState struct {
	detectedAt sim.Time
	recovered  bool
	retries    int
	timer      sim.Timer
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
	obs    srm.Observer

	// rx is the reception state of the one stream; its reply-side window
	// parks the NAKs this host could not serve yet.
	rx srm.Stream[*lossState, []pendingNAK]
	// outstanding counts detected-but-unrecovered losses, keeping the
	// monitor's per-period Outstanding polls O(1), and peakOutstanding
	// is its high-water over the agent's life.
	outstanding, peakOutstanding int

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
	// slack pools the deferred heartbeat-triggered detection passes.
	slack srm.DetectionPool[*lossState, []pendingNAK]
	// frames supplies the source's data and heartbeat packets.
	frames srm.Frames
}

var _ netsim.Host = (*Agent)(nil)

// NewAgent constructs an LMS endpoint at node id and registers it with
// the network. obs may be nil.
func NewAgent(eng sim.Sched, net netsim.Endpoint, fabric *Fabric, id topology.NodeID, obs srm.Observer) *Agent {
	if obs == nil {
		obs = srm.NopObserver{}
	}
	a := &Agent{
		id:     id,
		source: net.Tree().Root(),
		eng:    eng,
		net:    net,
		fabric: fabric,
		obs:    obs,
	}
	a.rx.OpenAt(0)
	net.AttachHost(id, a)
	return a
}

// ID returns the agent's node.
func (a *Agent) ID() topology.NodeID { return a.id }

// StartSessions begins the source's periodic heartbeat; receivers do
// nothing (the method exists for harness symmetry with SRM/CESRM).
func (a *Agent) StartSessions() {
	if a.id != a.source {
		return
	}
	a.heartbeatTimer = a.eng.Schedule(heartbeatPeriod, a.heartbeatTick)
}

func (a *Agent) heartbeatTick(now sim.Time) {
	if a.stopped {
		return
	}
	pkt, m := a.frames.Session(a.id, now)
	if h := a.rx.Highest(); h >= 0 {
		m.Highest = append(m.Highest, srm.Advert{Source: a.source, Highest: h})
	}
	a.net.Multicast(a.id, pkt)
	a.obs.SessionSent(a.id)
	a.heartbeatTimer = a.eng.Schedule(heartbeatPeriod, a.heartbeatTick)
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
	for _, ls := range a.rx.Losses().Cells() {
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
	a.rx.OpenAt(0)
	a.outstanding = 0
	a.fabric.ReportRestart(a.id)
	a.StartSessions()
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
// numbers below floor are treated as held (see srm.Stream.OpenAt), so
// detection starts at the first post-join packet rather than seq 0.
func (a *Agent) floorTo(floor int) {
	if !a.lateJoin || a.id == a.source {
		return
	}
	a.lateJoin = false
	if floor > 0 {
		a.rx.OpenAt(floor)
	}
	a.noteFloor()
}

// noteFloor reports where the stream opened to an observer that asks
// (srm.FloorObserver).
func (a *Agent) noteFloor() {
	if f, ok := a.obs.(srm.FloorObserver); ok {
		f.NoteFloor(a.id, a.source, a.rx.Floor())
	}
}

// Transmit multicasts original packet seq; only the source may call it.
func (a *Agent) Transmit(seq int) {
	if a.id != a.source {
		panic(fmt.Sprintf("lms: non-source host %d transmitting", a.id))
	}
	a.rx.Transmit(seq)
	a.net.Multicast(a.id, a.frames.Data(a.id, seq))
}

// Has reports possession of packet seq. Released sequence numbers
// report true: release is gated on every live host holding them.
func (a *Agent) Has(seq int) bool { return a.rx.Received().Has(seq) }

// ReleasableThrough returns the watermark through which this host's
// per-packet state could be discarded right now: the contiguous
// received prefix. Unlike SRM there is no replier-side timer or
// abstinence state to wait out — a repair for a held packet is sent
// synchronously from the reception path, and pending NAKs for a packet
// are flushed the moment it arrives — so holding a packet is the whole
// safety condition. The source parameter exists for interface symmetry
// with srm.Agent and is ignored (LMS is single-stream).
func (a *Agent) ReleasableThrough(source topology.NodeID) int { return a.rx.Received().Held() }

// ReleasableBelow is ReleasableThrough capped at limit. Holding a packet
// is the whole condition, so no per-packet cell is read.
func (a *Agent) ReleasableBelow(source topology.NodeID, limit int) (n, visited int) {
	return min(a.rx.Received().Held(), limit), 0
}

// HeldWindow returns the bounds [base, held) of the retained window
// this host holds contiguously, and whether its stream is open: a
// rejoined host's is not until its first post-join contact applies the
// late-join floor (floorTo), and until then it holds nothing.
func (a *Agent) HeldWindow(source topology.NodeID) (base, held int, open bool) {
	return a.rx.Received().Base(), a.rx.Received().Held(), !a.lateJoin
}

// ReleaseThrough discards per-packet state below n, clamped to the held
// prefix. The experiment layer calls it only after every present host
// reported a releasable watermark ≥ n and a drain lag covered in-flight
// traffic. A NAK straggling in for a released sequence is still served
// correctly: Has reports true, so the repair path runs exactly as it
// would have before release. No engine operations happen here, so
// release is invisible to the run's event stream and fingerprint.
func (a *Agent) ReleaseThrough(source topology.NodeID, n int) { a.rx.ReleaseThrough(n) }

// PacketWindow returns the number of per-seq state cells currently
// retained; tests pin release effectiveness with it.
func (a *Agent) PacketWindow() int { return a.rx.Len() }

// MissingIn returns how many of [0, n) the agent lacks. The source
// parameter exists for interface symmetry with srm.Agent and must be
// the tree root.
func (a *Agent) MissingIn(source topology.NodeID, n int) int { return a.rx.Missing(n) }

// ClassifiedThrough returns the first unclassified sequence number.
func (a *Agent) ClassifiedThrough(source topology.NodeID) int { return a.rx.Cursor() }

// Outstanding returns the number of unrecovered detected losses.
func (a *Agent) Outstanding() int { return a.outstanding }

// PeakOutstanding returns the most detected losses this host held
// unrecovered at once over the whole run.
func (a *Agent) PeakOutstanding() int { return a.peakOutstanding }

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
	a.rx.NoteExists(seq)
	if a.Has(seq) {
		return
	}
	a.rx.Received().Mark(seq)
	if ls := a.rx.Losses().At(seq); ls != nil && !ls.recovered {
		ls.recovered = true
		a.outstanding--
		a.eng.Cancel(ls.timer)
		a.obs.Recovered(a.id, a.source, seq, now, srm.RecoveryInfo{
			DetectedAt:  ls.detectedAt,
			Requestor:   requestor,
			Replier:     replier,
			OwnRequests: ls.retries + 1,
		})
	}
	// Classify any earlier packets this arrival reveals as missing, and
	// seq itself, now held.
	a.detectThrough(now, seq)
	// Serve NAKs that were waiting on this packet.
	if c := a.rx.Replies().Get(seq); c != nil {
		waiting := *c
		*c = nil
		for _, w := range waiting {
			a.sendRepair(seq, w)
		}
	}
}

// detectThrough classifies the stream through x; the source never
// detects losses.
func (a *Agent) detectThrough(now sim.Time, x int) {
	if a.id != a.source {
		a.rx.ClassifyThrough(now, x, (*detector)(a))
	}
}

// detector is the Agent as its stream's srm.Detector: a conversion, so
// handing it over captures nothing and keeps the hooks off Agent's API.
type detector Agent

// DetectLoss implements srm.Detector.
func (d *detector) DetectLoss(now sim.Time, seq int) { (*Agent)(d).detectLoss(now, seq) }

// Probe implements srm.Detector: a pass is stale on a silent host, and
// on a rejoined one still awaiting its late-join floor, since the
// advert predates its join. A post-restart firing is harmless — the
// stream lives on the agent and re-detection is exactly what a
// restarted host does anyway.
func (d *detector) Probe() bool { return !d.crashed && !d.absent && !d.lateJoin }

// detectLoss begins LMS recovery: the NAK goes out immediately — no
// suppression delay, the point of router-assisted recovery — and
// retries with exponential back-off until the repair arrives.
func (a *Agent) detectLoss(now sim.Time, seq int) {
	losses := a.rx.Losses()
	if losses.At(seq) != nil {
		return
	}
	ls := &lossState{detectedAt: now}
	// seq is never below base: losses are detected at the cursor, which
	// never trails the release watermark.
	*losses.Ensure(seq) = ls
	a.outstanding++
	a.peakOutstanding = max(a.peakOutstanding, a.outstanding)
	a.obs.LossDetected(a.id, a.source, seq, now)
	a.sendNAK(now, seq, ls)
}

func (a *Agent) sendNAK(now sim.Time, seq int, ls *lossState) {
	if ls.recovered {
		return
	}
	tp, origin, replier, err := a.fabric.Route(a.id)
	retryIn := retrySlack * time.Duration(uint64(1)<<uint(min(ls.retries, maxBackoff)))
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

// onNAK serves a repair if this host holds the packet, or queues the NAK
// until it does (the designated replier may share the loss). A packet
// below the host's late-join floor it never held and never will: the
// NAK goes on to the source, as one that climbs past the root does.
func (a *Agent) onNAK(now sim.Time, m *NAKMsg) {
	a.floorTo(m.Seq + 1)
	w := pendingNAK{turningPoint: m.TurningPoint, originChild: m.OriginChild, requestor: m.Requestor}
	if a.rx.Holds(m.Seq) {
		a.sendRepair(m.Seq, w)
		return
	}
	if m.Seq < a.rx.Floor() {
		a.net.Unicast(a.id, a.source, &netsim.Packet{Class: netsim.Control, Msg: m})
		return
	}
	// Deduplicate by origin subtree: one repair per subtree suffices.
	// m.Seq is never below base here: a released packet at or above the
	// floor is held, so a straggling NAK for one took the sendRepair path
	// above.
	waiting := a.rx.Replies().Ensure(m.Seq)
	for _, p := range *waiting {
		if p.originChild == w.originChild {
			return
		}
	}
	*waiting = append(*waiting, w)
	a.rx.NoteExists(m.Seq)
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
	if a.rx.Advert(highest, a.id == a.source) {
		a.eng.ScheduleHandler(detectionSlack, a.slack.Get(&a.rx, (*detector)(a), highest))
	}
}
