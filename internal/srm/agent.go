package srm

import (
	"fmt"
	"math"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/seqwin"
	"cesrm/internal/sim"
	"cesrm/internal/topology"
)

// lossRecord tracks one lost packet's recovery lifecycle on one host. It
// is also its own request timer's sim.EventHandler, and as an
// expeditedTimer its REORDER-DELAY timer's: arming either schedules the
// record, so no closure is captured per round.
type lossRecord struct {
	st  *streamState
	seq int

	detectedAt sim.Time
	recovered  bool
	// abandoned marks a loss given up on after Params.MaxRequestRounds
	// back-off rounds: no further request timers are armed and the loss
	// no longer counts as outstanding. A straggling repair can still
	// recover it.
	abandoned bool
	// ownRequests and reschedules are RecoveryInfo's counters, kept
	// until the recovery reports them.
	ownRequests, reschedules int

	// k is the back-off exponent for the next (re)schedule: the initial
	// request is drawn from the base interval (factor 2^0), and every
	// transmission or suppression back-off doubles it.
	k            int
	timer        sim.Timer
	abstainUntil sim.Time

	// foreignRequests counts other hosts' requests observed for this
	// loss and firstRequestAt the instant of the first request event
	// (own or foreign) — inputs to adaptive timer adjustment.
	foreignRequests int
	firstRequestAt  sim.Time

	// expTimer is the REORDER-DELAY timer (§3.2) of the expedited
	// request the extension armed for the loss, to replier annotated
	// with turningPoint; it is cancelled wherever timer is.
	expTimer              sim.Timer
	replier, turningPoint topology.NodeID

	// next links the record into its stream's free list once released.
	next *lossRecord
}

// Fire implements sim.EventHandler: the request timer expired.
func (ls *lossRecord) Fire(now sim.Time) {
	ls.st.agent.requestTimerFired(now, ls.st, ls.seq)
}

// expeditedTimer is the lossRecord as the sim.EventHandler of its
// REORDER-DELAY timer: a conversion, like sessionTicker.
type expeditedTimer lossRecord

// Fire implements sim.EventHandler: REORDER-DELAY passed and the packet
// is still missing, since its arrival, like the host going silent,
// cancels the timer.
func (x *expeditedTimer) Fire(sim.Time) {
	ls := (*lossRecord)(x)
	ls.st.agent.unicastExpeditedRequest(ls.st.source, ls.seq, ls.replier, ls.turningPoint)
}

// replyCell is what a host keeps per packet for the reply side of
// recovery besides its reply word: the scheduled reply.
type replyCell struct {
	// rec is the scheduled reply, nil unless a request made this host
	// schedule one: only considerReply creates it. With fixed timers the
	// cell lets go of it the moment its timer is spent (noteReplyEvent).
	rec *replyState
}

// blocked reports whether a reply for the packet, whose reply word is w,
// is scheduled or pending: the host must neither schedule another nor
// release the cell.
func (c replyCell) blocked(now sim.Time, w replyWord) bool {
	return now.Before(w.horizon()) || (c.rec != nil && c.rec.timer.Active())
}

// replyWord is one host's reply state for one packet in a reply plane
// (see streamState.plane), laid out as the reply flood reads it: every
// member hears every repair (§2.2), and all a duplicate does at a host
// that holds the packet is push the abstinence horizon. The low 62 bits
// are the horizon, the instant the reply abstinence period ends, and
// the word is its only home. The top two bits are flags that mirror the
// host's windows: lost while it has a loss record for the packet,
// scheduled while its reply cell holds a record. A word with neither,
// of a packet the host has classified and holds at or above its floor
// (streamHead), is one a duplicate changes nothing else about, so a
// Group serves it from the word and the head slot alone; and a word not
// scheduled keeps no reply timer armed, so the release scan reads its
// horizon alone. Data deliveries write no word.
type replyWord uint64

// The flags of a replyWord, and the largest horizon it holds.
const (
	lost       replyWord = 1 << 63
	scheduled  replyWord = 1 << 62
	maxHorizon           = sim.Time(scheduled - 1)
)

// horizon returns the instant the reply abstinence ends.
func (w replyWord) horizon() sim.Time { return sim.Time(w &^ (lost | scheduled)) }

// setHorizon makes t the horizon, keeping the flags. An instant outside
// [0, maxHorizon] (146 years), which only an overflow or a hostile
// distance can produce, is stored clamped: no comparison with the clock
// of a run tells them apart.
func (w *replyWord) setHorizon(t sim.Time) {
	*w = *w&(lost|scheduled) | replyWord(min(max(t, 0), maxHorizon))
}

// extend pushes the horizon out to t, if t is later.
func (w *replyWord) extend(t sim.Time) {
	if t.After(w.horizon()) {
		w.setHorizon(t)
	}
}

// replyPlane is one source's reply words, a row a packet and a column a
// member: a group's for its members, one column wide for the stream of
// an agent in no group.
type replyPlane struct {
	seqwin.Rows[replyWord]
	// rescan is the lowest row the group's release scan must read again
	// (Group.ReleasableBelow): every row below it was releasable when the
	// last scan passed it, and only a horizon pushed out or a reply timer
	// armed since (block) can make one blocked again.
	rescan int
}

// newReplyPlane returns an empty plane width members wide.
func newReplyPlane(width int) replyPlane { return replyPlane{Rows: seqwin.MakeRows[replyWord](width)} }

// block notes a write that may keep seq from release: a horizon set or
// pushed out, or a reply timer armed.
func (p *replyPlane) block(seq int) { p.rescan = min(p.rescan, seq) }

// replyState is one scheduled reply. Like lossRecord it is its own
// timer's sim.EventHandler.
type replyState struct {
	st  *streamState
	seq int

	timer      sim.Timer
	reqDistSrc time.Duration
	requestor  topology.NodeID

	// repliesSeen and requestAt feed adaptive timer adjustment.
	repliesSeen int32
	requestAt   sim.Time

	// next links the record into its stream's free list once dropped.
	next *replyState
}

// Fire implements sim.EventHandler: the reply timer expired. The spent
// handle is dropped, as onReply drops a cancelled one, so a later
// duplicate reply compares against the zero Timer instead of loading the
// generation of a wheel record that has long since been recycled.
func (rs *replyState) Fire(now sim.Time) {
	rs.timer = sim.Timer{}
	rs.st.agent.replyTimerFired(now, rs)
}

// streamState is a host's per-source reception and recovery state. SRM
// supports any number of concurrent single-source transmissions over
// the shared multicast group (§2); every stream recovers independently.
type streamState struct {
	agent  *Agent
	source topology.NodeID
	Stream[*lossRecord, replyCell]

	// plane holds the stream's reply words, one a packet, in column col:
	// its group's plane of the source for a member, ownPlane, one column
	// wide and released with the stream, for an agent in no group. Both
	// are read and written through word and wordAt. scratch absorbs
	// writes below the stream's base, which a shared plane may still
	// hold rows for.
	plane    *replyPlane
	col      int
	ownPlane replyPlane
	scratch  replyWord

	// abandonedOpen counts losses abandoned after bounded retry and not
	// (yet) recovered by a straggling repair: the run's reliability
	// reconciliation balances MissingIn against it.
	abandonedOpen int

	// freeReplies and freeLosses are the records the windows let go of,
	// linked through the records themselves: a reply record when its cell
	// drops it (noteReplyEvent) or is released, a loss record when its
	// cell is released. replyArena and lossArena supply fresh records
	// while the lists are empty.
	freeReplies *replyState
	freeLosses  *lossRecord
	replyArena  arena[replyState]
	lossArena   arena[lossRecord]
}

// arenaChunk is the record arenas' largest chunk: large enough to cut the
// per-record allocation count by that factor, small enough that a
// chunk pinned by one straggling record costs a few KB.
const arenaChunk = 64

// newLoss returns a zeroed loss record, a released one if there is any.
func (st *streamState) newLoss() *lossRecord {
	ls := st.freeLosses
	if ls == nil {
		return st.lossArena.next(arenaChunk)
	}
	st.freeLosses = ls.next
	*ls = lossRecord{}
	return ls
}

// newReply returns a zeroed reply record, a dropped one if there is any.
func (st *streamState) newReply() *replyState {
	rs := st.freeReplies
	if rs == nil {
		return st.replyArena.next(arenaChunk)
	}
	st.freeReplies = rs.next
	*rs = replyState{}
	return rs
}

// freeReply takes back a reply record no cell points at any more. Its
// timer is spent: it fired or was cancelled, and nothing re-arms a
// record a cell does not hold.
func (st *streamState) freeReply(rs *replyState) {
	rs.next, st.freeReplies = st.freeReplies, rs
}

func newStreamState(a *Agent, source topology.NodeID) *streamState {
	st := &streamState{agent: a, source: source}
	if a.group != nil {
		a.group.place(a, st)
	} else {
		st.ownPlane = newReplyPlane(1)
		st.plane = &st.ownPlane
	}
	st.openAt(0)
	return st
}

// openAt is Stream.OpenAt with a private plane rebased alike. A group
// member's column is already clear: it was never written, or the
// stream it belonged to detached.
func (st *streamState) openAt(floor int) {
	st.OpenAt(floor)
	if st.plane == &st.ownPlane {
		st.ownPlane.OpenAt(floor)
	}
}

// word returns the stream's reply word for seq, growing the plane as
// needed; below the stream's base, a scratch word zeroed per call.
func (st *streamState) word(seq int) *replyWord {
	if seq < st.received.Base() {
		st.scratch = 0
		return &st.scratch
	}
	if w := st.plane.Get(seq, st.col); w != nil {
		return w
	}
	return st.plane.Ensure(seq, st.col)
}

// wordAt returns the stream's reply word for seq, zero below its base
// and past every row stored so far.
func (st *streamState) wordAt(seq int) replyWord {
	if seq < st.received.Base() {
		return 0
	}
	return st.plane.At(seq, st.col)
}

// setHorizon makes t the horizon of seq's word (replyWord.setHorizon).
func (st *streamState) setHorizon(seq int, t sim.Time) {
	st.word(seq).setHorizon(t)
	st.plane.block(seq)
}

// replyBlocked reports whether a reply for seq is scheduled or pending
// (replyCell.blocked).
func (st *streamState) replyBlocked(now sim.Time, seq int) bool {
	return st.replies.At(seq).blocked(now, st.wordAt(seq))
}

// DetectLoss implements Detector.
func (st *streamState) DetectLoss(now sim.Time, seq int) { st.agent.detectLoss(now, st, seq) }

// Probe implements Detector: a pass is stale once the host went silent,
// and after a restart or rejoin the stream it was armed for is an
// orphan — losses recorded on it could never be recovered (replies
// resolve against the new stream), leaving the request back-off loop
// running forever.
func (st *streamState) Probe() bool {
	a := st.agent
	return !a.crashed && !a.absent && a.peek(st.source) == st
}

// releasableBelow returns the highest watermark n ≤ min(held, limit)
// such that every sequence number below n is safe to discard on this
// host: the packet is held and no reply machinery for it is live. A
// sequence with an armed reply timer must stay — releasing it would
// silently swallow the pending reply, an observable protocol change —
// and one inside a reply-abstinence period must stay so a late request
// keeps being suppressed rather than answered by fresh zero state.
// visited counts the cells the scan read: the group's watermark is a
// minimum, so the caller passes the smallest held prefix as limit and a
// host far ahead of a stalled peer reads nothing beyond it.
func (st *streamState) releasableBelow(now sim.Time, limit int) (n, visited int) {
	base := st.received.Base()
	if held := st.received.Held(); held < limit {
		limit = held
	}
	for n = base; n < limit; n++ {
		if st.replyBlocked(now, n) {
			return n, n - base + 1
		}
	}
	return n, n - base
}

// releaseThrough is Stream.ReleaseThrough with the discarded records
// returned to the free lists, and a private plane released alike; a
// group releases its planes itself (Group.ReleaseThrough). The caller
// guarantees n is releasable on every live host, so nothing live is
// dropped. A held packet's loss record was recovered, which cancelled
// its timers, and a releasable cell's reply timer is not armed; a record
// whose timer is armed all the same is left to the collector, where its
// firing finds no cell.
func (st *streamState) releaseThrough(n int) {
	cut := min(n, st.received.Held())
	for _, ls := range st.losses.Below(cut) {
		if ls != nil && !ls.timer.Active() && !ls.expTimer.Active() {
			ls.next, st.freeLosses = st.freeLosses, ls
		}
	}
	for _, c := range st.replies.Below(cut) {
		if rs := c.rec; rs != nil && !rs.timer.Active() {
			st.freeReply(rs)
		}
	}
	st.ReleaseThrough(n)
	if st.plane == &st.ownPlane {
		st.ownPlane.ReleaseThrough(st.received.Base())
	}
}

// Agent is one SRM endpoint. Every group member both receives all
// streams and may originate its own stream with Transmit. It implements
// netsim.Host. All methods run on the simulation goroutine.
type Agent struct {
	id topology.NodeID

	// eng and net are interfaces: the simulator passes the engine and
	// network, the wire node the engine and its socket endpoint, the
	// benchmark its tracing wrappers.
	eng sim.Sched
	net netsim.Endpoint
	rng *sim.RNG
	p   Params
	obs Observer
	ext Extension

	// dist is this member's column of its group's distance plane,
	// starting at its own cell of row 0: the one-way distance estimate to
	// node n is dist[n*stride], -1 marking "no estimate yet". An agent in
	// no group (UseGroup) owns a one-column plane, stride 1, allocated by
	// its first estimate: nil reads as all unknown, so a group's members
	// never build a column only to drop it. nodes is the tree's node
	// count, the bound on every NodeID index.
	dist  []time.Duration
	nodes int
	echo  *echoState
	// streams is NodeID-indexed (nil = no state for that source) and grown
	// by stream() up to the highest source seen, never past the tree. last
	// is the stream the latest delivery resolved, kept in front of the table
	// because a flood's deliveries nearly always name the same source and
	// the table is one more cold line per host; only streamFloored reads
	// or sets it, and whatever replaces the table drops it.
	streams []*streamState
	last    *streamState
	// group is the member group the agent belongs to, nil for none.
	group *Group

	stopped bool
	crashed bool
	// absent marks a graceful departure (Leave): the host is silent like
	// a crashed one but keeps all state — it announced its exit rather
	// than failing. lateJoin marks that the host (re)joined mid-session,
	// arming the per-stream reliability floor: the first post-join
	// evidence of each stream fixes where this host's loss detection
	// begins, instead of seq 0.
	absent   bool
	lateJoin bool
	// stride is the distance plane's member count (see dist).
	stride int32
	// sessionTimer is the handle of the pending self-rescheduling
	// session tick, retained so Crash can cancel it (a crashed host must
	// contribute zero pending events, not an inert one per period).
	sessionTimer sim.Timer
	// sessionRejects counts messages of any kind dropped for naming a
	// node outside the tree, plus session adverts skipped for an
	// out-of-tree source: only input from outside the program (the wire
	// tier) can produce either.
	sessionRejects int
	// seqRejects counts messages dropped for a sequence number outside
	// [0, MaxSeq]; like sessionRejects, only the wire tier can produce one.
	seqRejects int
	// slack pools the deferred session-triggered detection passes.
	slack DetectionPool[*lossRecord, replyCell]
	// missingDists counts Distance's fallbacks to the default and
	// repliesArmed the reply timers considerReply armed: two int32s, so
	// the agent keeps its size class.
	missingDists, repliesArmed int32
	// outstanding counts detected-but-unrecovered losses across all
	// streams, so the monitor's per-period Outstanding polls are O(1)
	// instead of walking every loss record ever created, and
	// peakOutstanding is its high-water over the agent's life. Two
	// int32s, so the agent keeps its size class: MaxSeq bounds a stream's
	// losses at 2^20.
	outstanding, peakOutstanding int32

	adaptiveCfg AdaptiveConfig
	adaptive    adaptiveState

	// frames supplies every packet this host sends. Last, so the fields
	// every delivery reads keep the cache lines they had without it.
	frames Frames
	// initial is the constructor's Params: p is what adaptive timers
	// adjust, and what an amnesiac Restart resets to this.
	initial Params
}

var _ netsim.Host = (*Agent)(nil)

// NewAgent constructs an SRM endpoint at node id. obs may be nil; ext
// may be nil for plain SRM. The agent registers itself with the network.
func NewAgent(eng sim.Sched, net netsim.Endpoint, rng *sim.RNG, id topology.NodeID, p Params, obs Observer, ext Extension) (*Agent, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if obs == nil {
		obs = NopObserver{}
	}
	nodes := net.Tree().NumNodes()
	a := &Agent{
		id:      id,
		eng:     eng,
		net:     net,
		rng:     rng,
		p:       p,
		initial: p,
		obs:     obs,
		ext:     ext,
		stride:  1,
		nodes:   nodes,
		echo:    newEchoState(nodes),
	}
	net.AttachHost(id, a)
	return a, nil
}

// ID returns the agent's node.
func (a *Agent) ID() topology.NodeID { return a.id }

// Params returns the agent's initial scheduling parameters.
func (a *Agent) Params() Params { return a.initial }

// stream returns (creating on first use) the state for the given
// source's stream. Only Transmit and streamFloored may create; every
// other reader goes through peek, and none but streamFloored through
// last.
func (a *Agent) stream(source topology.NodeID) *streamState {
	for int(source) >= len(a.streams) {
		a.streams = append(a.streams, nil)
	}
	st := a.streams[source]
	if st == nil {
		st = newStreamState(a, source)
		a.streams[source] = st
	}
	return st
}

// Sources lists the sources this agent has state for, in ascending
// NodeID order.
func (a *Agent) Sources() []topology.NodeID {
	var out []topology.NodeID
	for id, st := range a.streams {
		if st != nil {
			out = append(out, topology.NodeID(id))
		}
	}
	return out
}

// Stop halts session-message rescheduling. In-flight timers drain
// naturally: the already-armed session tick still fires (and does
// nothing), so a run's final virtual time — section 3 of the v2 run
// fingerprint — is unchanged by stopping. Cancelling the timer here
// would shorten the post-quiesce drain of every crash-free run and move
// all recorded catalog fingerprints; only Crash and Leave reclaim it.
func (a *Agent) Stop() { a.stopped = true }

// Crash makes the host fail-stop: it ceases processing deliveries,
// sending session messages, and firing protocol timers. The paper's
// §3.3 argues CESRM tolerates exactly this — cached repliers that leave
// or crash stop answering expedited requests, losses fall back to SRM,
// and the cache evolves to a live replier.
func (a *Agent) Crash() {
	a.crashed = true
	a.stopped = true
	a.cancelProtocolTimers()
	if a.group != nil {
		a.group.setPresent(a, false)
	}
}

// cancelProtocolTimers cancels the session tick and every armed loss
// (request and REORDER-DELAY) and reply timer: the silence transition
// shared by Crash and Leave. A silent host must contribute zero pending
// events, not inert ones, and must never send an expedited request.
func (a *Agent) cancelProtocolTimers() {
	a.eng.Cancel(a.sessionTimer)
	for _, st := range a.streams {
		if st == nil {
			continue
		}
		for _, ls := range st.losses.Cells() {
			if ls != nil {
				a.eng.Cancel(ls.timer)
				a.eng.Cancel(ls.expTimer)
			}
		}
		for _, c := range st.replies.Cells() {
			if c.rec != nil {
				a.eng.Cancel(c.rec.timer)
			}
		}
	}
}

// Crashed reports whether Crash has been called.
func (a *Agent) Crashed() bool { return a.crashed }

// Leave gracefully departs the group (§3.3 membership dynamics): the
// host goes silent — no session ticks, no protocol timers, no
// deliveries processed — but, unlike Crash, keeps every bit of state:
// it announced its exit rather than failing. The chaos controller pairs
// the departure with a group-wide cache invalidation (the departure
// advert). Leaving a crashed host is a harness bug and panics.
func (a *Agent) Leave() {
	if a.crashed {
		panic(fmt.Sprintf("srm: crashed host %d leaving", a.id))
	}
	if a.absent {
		panic(fmt.Sprintf("srm: absent host %d leaving twice", a.id))
	}
	a.absent = true
	a.stopped = true
	a.cancelProtocolTimers()
	if a.group != nil {
		a.group.setPresent(a, false)
	}
}

// Join (re)admits an absent host mid-session. Reception and recovery
// state restarts empty with the late-join reliability floor armed: each
// stream's floor is fixed by the first post-join evidence of it (data,
// session advert, request or reply), so the joiner is responsible for
// data from its join onward, never for the history it was not a member
// for. Distance estimates survive — a graceful leave is not amnesia.
// Joining a present host is a harness bug and panics.
func (a *Agent) Join() {
	if !a.absent {
		panic(fmt.Sprintf("srm: joining host %d that is present", a.id))
	}
	a.absent = false
	a.stopped = false
	a.lateJoin = true
	a.dropStreams()
	a.outstanding = 0
	a.StartSessions()
}

// Absent reports whether the host has gracefully left and not rejoined.
func (a *Agent) Absent() bool { return a.absent }

// Restart rejoins a crashed host to the group with amnesia, the
// fail-stop restart model of §3.3's dynamic environments: all
// reception, loss, reply, distance-estimate, echo and adaptive state is
// discarded — exactly what a process restarting from scratch holds —
// and the periodic session exchange resumes, so the host re-learns
// inter-host distances and re-synchronizes stream state from its peers'
// session advertisements, re-detecting and re-recovering every packet
// it is missing through the ordinary SRM machinery. Restarting a live
// host is a harness bug and panics.
func (a *Agent) Restart() {
	if !a.crashed {
		panic(fmt.Sprintf("srm: restarting host %d that never crashed", a.id))
	}
	a.crashed = false
	a.stopped = false
	a.forgetDistances()
	a.echo = newEchoState(a.nodes)
	a.dropStreams()
	a.outstanding = 0
	a.p, a.adaptive = a.initial, adaptiveState{}
	a.StartSessions()
}

// dropStreams discards every stream for a host coming back (Join,
// Restart). In a group the host is present again, and the slots of the
// discarded streams close: each stays closed until a new stream of its
// source opens it.
func (a *Agent) dropStreams() {
	if a.group != nil {
		for _, st := range a.streams {
			if st != nil {
				st.detach()
			}
		}
		a.group.setPresent(a, true)
	}
	a.streams, a.last = nil, nil
}

// Outstanding returns the number of detected losses not yet recovered,
// across all streams.
func (a *Agent) Outstanding() int { return int(a.outstanding) }

// PeakOutstanding returns the most detected losses this host held
// unrecovered at once, across all streams and the whole run.
func (a *Agent) PeakOutstanding() int { return int(a.peakOutstanding) }

// ClassifiedThrough returns the lowest sequence number of the source's
// stream not yet classified as received-or-lost; 0 for a stream this
// host has no state for. Like every inspector it must not create the
// state: a stream that exists when a late joiner's first post-join
// packet arrives never receives its reliability floor (streamFloored).
func (a *Agent) ClassifiedThrough(source topology.NodeID) int {
	if st := a.peek(source); st != nil {
		return st.Cursor()
	}
	return 0
}

// ReleasableThrough returns the watermark through which this host's
// per-packet state for the source's stream could be discarded right now
// (see streamState.releasableBelow). A host with no state for the
// stream reports 0.
func (a *Agent) ReleasableThrough(source topology.NodeID) int {
	n, _ := a.ReleasableBelow(source, math.MaxInt)
	return n
}

// ReleasableBelow is ReleasableThrough with the scan stopped at limit,
// plus the number of per-packet cells it read.
func (a *Agent) ReleasableBelow(source topology.NodeID, limit int) (n, visited int) {
	st := a.peek(source)
	if st == nil {
		return 0, 0
	}
	return st.releasableBelow(a.eng.Now(), limit)
}

// HeldWindow returns the bounds [base, held) of the retained window
// this host holds contiguously for the source's stream — base is the
// release watermark or the late-join floor the stream opened at — and
// whether the host has state for the stream at all: a late joiner has
// none until its first post-join evidence fixes its floor.
func (a *Agent) HeldWindow(source topology.NodeID) (base, held int, open bool) {
	st := a.peek(source)
	if st == nil {
		return 0, 0, false
	}
	return st.received.Base(), st.received.Held(), true
}

// ReleaseThrough discards this host's per-packet state for the source's
// stream below n. The experiment layer calls it only after every
// present host reported a releasable watermark ≥ n and a drain lag
// covered in-flight traffic, so no future event can reference the
// dropped window.
func (a *Agent) ReleaseThrough(source topology.NodeID, n int) {
	if st := a.peek(source); st != nil {
		st.releaseThrough(n)
	}
}

// peek returns the stream state for source without creating it.
func (a *Agent) peek(source topology.NodeID) *streamState {
	if int(source) >= len(a.streams) {
		return nil
	}
	return a.streams[source]
}

// Has reports whether the agent holds packet seq of the source's stream
// (received it, recovered it, or originally sent it).
func (a *Agent) Has(source topology.NodeID, seq int) bool {
	st := a.peek(source)
	return st != nil && st.received.Has(seq)
}

// MissingIn returns how many of the packets [0, n) of the source's
// stream the agent does not hold. Zero after a run means full
// reliability was achieved.
func (a *Agent) MissingIn(source topology.NodeID, n int) int {
	if st := a.peek(source); st != nil {
		return st.Missing(n)
	}
	return max(n, 0)
}

// EverLost reports whether the agent ever classified seq of the
// source's stream as lost, regardless of later recovery.
func (a *Agent) EverLost(source topology.NodeID, seq int) bool {
	st := a.peek(source)
	return st != nil && st.losses.At(seq) != nil
}

// Distance returns the agent's one-way distance estimate to node n,
// falling back to Params.DefaultDistance when no session message from n
// has been seen.
func (a *Agent) Distance(n topology.NodeID) time.Duration {
	if n == a.id {
		return 0
	}
	if uint(n) < uint(a.nodes) && a.dist != nil {
		if d := a.dist[int(n)*int(a.stride)]; d >= 0 {
			return d
		}
	}
	a.missingDists++
	return a.p.DefaultDistance
}

// forgetDistances marks every estimate unknown again — in this member's
// column only: the rest of the plane is its peers' estimates.
func (a *Agent) forgetDistances() {
	if a.dist == nil {
		return
	}
	for n := 0; n < a.nodes; n++ {
		a.dist[n*int(a.stride)] = -1
	}
}

// RepliesArmed counts the reply timers armed for requests (§2.2), however
// each one ended: fired, cancelled by a foreign reply or by silence.
func (a *Agent) RepliesArmed() int { return int(a.repliesArmed) }

// MissingDistanceLookups counts Distance calls that fell back to the
// default; nonzero values indicate an inadequate warm-up.
func (a *Agent) MissingDistanceLookups() int { return int(a.missingDists) }

// SetDistance primes the distance estimate to node n, as a completed
// session exchange would. Tests and bootstrap paths use it to start
// from a converged state.
func (a *Agent) SetDistance(n topology.NodeID, d time.Duration) { a.setDistance(n, d) }

// setDistance records the estimate to node n, allocating the private
// one-column plane on first use.
func (a *Agent) setDistance(n topology.NodeID, d time.Duration) {
	if a.dist == nil {
		a.dist = unknownDistances(a.nodes)
	}
	a.dist[int(n)*int(a.stride)] = d
}

// StartSessions begins periodic session-message multicast, with the
// first message sent after a random fraction of the session period so
// that hosts do not fire in lockstep.
func (a *Agent) StartSessions() {
	a.sessionTimer = a.eng.ScheduleHandler(a.rng.UniformDuration(0, a.p.SessionPeriod), (*sessionTicker)(a))
}

// sessionTicker is the Agent as the sim.EventHandler of its periodic
// session tick: a conversion, so arming the tick captures nothing.
type sessionTicker Agent

// Fire implements sim.EventHandler.
func (t *sessionTicker) Fire(now sim.Time) { (*Agent)(t).sessionTick(now) }

func (a *Agent) sessionTick(now sim.Time) {
	if a.stopped {
		return
	}
	pkt, m := a.frames.Session(a.id, now)
	// a.streams is NodeID-indexed, so walking it emits adverts in the
	// ascending order SessionMsg promises; counting first sizes a list
	// too long for the frame's inline storage exactly.
	n := 0
	for _, st := range a.streams {
		if st != nil && st.Highest() >= 0 {
			n++
		}
	}
	if n > cap(m.Highest) {
		m.Highest = make([]Advert, 0, n)
	}
	for src, st := range a.streams {
		if st != nil && st.Highest() >= 0 {
			m.Highest = append(m.Highest, Advert{Source: topology.NodeID(src), Highest: st.Highest()})
		}
	}
	if a.p.DistanceMode == DistEchoRTT && a.echo.peers > 0 {
		m.Echoes = a.echo.appendEchoes(a.frames.echoList(m, a.echo.peers), now)
	}
	a.net.Multicast(a.id, pkt)
	a.obs.SessionSent(a.id)
	a.sessionTimer = a.eng.ScheduleHandler(a.p.SessionPeriod, (*sessionTicker)(a))
}

// Transmit multicasts original packet seq of this host's own stream;
// seq must lie in [0, MaxSeq].
func (a *Agent) Transmit(seq int) {
	if a.crashed {
		panic(fmt.Sprintf("srm: crashed host %d transmitting", a.id))
	}
	if uint(seq) > MaxSeq {
		panic(fmt.Sprintf("srm: host %d transmitting packet %d outside [0, %d]", a.id, seq, MaxSeq))
	}
	a.stream(a.id).Transmit(seq)
	a.net.Multicast(a.id, a.frames.Data(a.id, seq))
}

// Deliver implements netsim.Host.
func (a *Agent) Deliver(now sim.Time, p *netsim.Packet) {
	if a.crashed || a.absent {
		return
	}
	switch m := p.Msg.(type) {
	case *DataMsg:
		a.onData(now, m)
	case *SessionMsg:
		a.onSession(now, m)
	case *RequestMsg:
		// Expedited requests are a CESRM concern; a plain SRM agent
		// ignores any that arrive.
		switch {
		case !m.Expedited:
			a.onRequest(now, m)
		case a.ext != nil:
			a.ext.ExpeditedRequest(now, m)
		}
	case *ReplyMsg:
		a.onReply(now, m)
	default:
		panic(fmt.Sprintf("srm: host %d received unknown message %T", a.id, p.Msg))
	}
}

// outside reports whether id, taken from a received message, names a
// node the tree does not have, and counts the message as rejected if
// so. Stream and distance state is NodeID-indexed and a well-formed
// datagram can carry any ID from None to MaxInt32 (netsim.Decoder.Node
// bounds nothing tighter), so every handler checks the IDs it indexes
// with first.
func (a *Agent) outside(id topology.NodeID) bool {
	if uint(id) < uint(a.nodes) {
		return false
	}
	a.sessionRejects++
	return true
}

func (a *Agent) onData(now sim.Time, m *DataMsg) {
	if a.outside(m.Source) {
		return
	}
	if st := a.streamFloored(m.Source, m.Seq, m.Seq); st != nil {
		a.receivePacket(now, st, m.Seq, nil)
	}
}

// streamFloored returns the stream state for a received message naming
// seq of source's stream, creating it on first use. On a host that
// joined mid-session, a stream first seen after the join opens at the
// given reliability floor (see Stream.OpenAt), so loss detection begins at
// floor — the first post-join evidence of the stream — rather than seq
// 0. The floor depends on what that evidence is: a data or reply packet
// is itself owed (floor = its seq), while a session advert or foreign
// request only proves older data existed (floor = one past it).
//
// It returns nil, creating nothing, when seq is outside [0, MaxSeq]; the
// caller drops the message.
func (a *Agent) streamFloored(source topology.NodeID, seq, floor int) *streamState {
	// A negative seq converts to a huge uint.
	if uint(seq) > MaxSeq {
		a.seqRejects++
		return nil
	}
	if st := a.last; st != nil && st.source == source {
		return st
	}
	st := a.peek(source)
	if st == nil {
		st = a.stream(source)
		if a.lateJoin && source != a.id && floor > 0 {
			st.openAt(floor)
		}
		if f, ok := a.obs.(FloorObserver); ok {
			f.NoteFloor(a.id, source, st.Floor())
		}
	}
	a.last = st
	return st
}

// receivePacket handles arrival of packet seq, via original data
// (reply == nil) or a repair reply.
func (a *Agent) receivePacket(now sim.Time, st *streamState, seq int, reply *ReplyMsg) {
	st.NoteExists(seq)
	if st.received.Has(seq) {
		return // duplicate
	}
	st.received.Mark(seq)
	if ls := st.losses.At(seq); ls != nil && !ls.recovered {
		ls.recovered = true
		if ls.abandoned {
			// An abandoned loss already left the outstanding count; a
			// straggling repair closes its reconciliation debt instead.
			st.abandonedOpen--
		} else {
			a.outstanding--
		}
		a.eng.Cancel(ls.timer)
		if ls.expTimer.Active() {
			a.eng.Cancel(ls.expTimer) // the REORDER-DELAY guard (§3.2)
		}
		info := RecoveryInfo{
			DetectedAt:  ls.detectedAt,
			Requestor:   topology.None,
			Replier:     topology.None,
			OwnRequests: ls.ownRequests,
			Reschedules: ls.reschedules,
		}
		if reply != nil {
			info.Expedited = reply.Expedited
			info.Requestor = reply.Requestor
			info.Replier = reply.Replier
		}
		a.obs.Recovered(a.id, st.source, seq, now, info)
		a.observeRequestRecovery(st, ls)
	}
	// Classify any earlier packets this arrival reveals as missing, and
	// seq itself, now held.
	a.detectThrough(now, st, seq)
}

// detectThrough classifies every unclassified sequence number up to and
// including x, detecting losses for those not received. A host never
// detects losses on its own stream.
func (a *Agent) detectThrough(now sim.Time, st *streamState, x int) {
	if st.source != a.id {
		st.ClassifyThrough(now, x, st)
	}
}

// detectLoss begins recovery of packet seq (§2.1): schedule a request
// timer uniformly within [C1*d, (C1+C2)*d] of the distance to the
// source, and give the CESRM extension its chance to expedite: the loss
// record arms the expedited request it returns.
func (a *Agent) detectLoss(now sim.Time, st *streamState, seq int) {
	if st.losses.At(seq) != nil {
		return
	}
	ls := st.newLoss()
	ls.st, ls.seq = st, seq
	ls.detectedAt = now
	// seq is never below base: losses are detected at the cursor, which
	// never trails the release watermark.
	*st.losses.Ensure(seq) = ls
	*st.word(seq) |= lost
	a.outstanding++
	a.peakOutstanding = max(a.peakOutstanding, a.outstanding)
	a.scheduleRequest(st, ls, seq)
	ls.k = 1
	a.obs.LossDetected(a.id, st.source, seq, now)
	if a.ext == nil {
		return
	}
	if x, ok := a.ext.LossDetected(now, st.source, seq); ok {
		ls.replier, ls.turningPoint = x.Replier, x.TurningPoint
		ls.expTimer = a.eng.ScheduleHandler(x.After, (*expeditedTimer)(ls))
	}
}

// scheduleRequest arms the request timer for the loss using the current
// back-off exponent.
func (a *Agent) scheduleRequest(st *streamState, ls *lossRecord, seq int) {
	d := a.Distance(st.source)
	factor := a.backoffFactor(ls.k)
	lo := sim.Scale(d, a.p.C1*factor)
	hi := sim.Scale(d, (a.p.C1+a.p.C2)*factor)
	ls.timer = a.eng.ScheduleHandler(a.rng.UniformDuration(lo, hi), ls)
}

func (a *Agent) backoffFactor(k int) float64 {
	if k > a.p.MaxBackoff {
		k = a.p.MaxBackoff
	}
	return float64(uint64(1) << uint(k))
}

// requestTimerFired multicasts a repair request for seq and schedules
// the next round (§2.1).
func (a *Agent) requestTimerFired(now sim.Time, st *streamState, seq int) {
	ls := st.losses.At(seq)
	if ls == nil || ls.recovered {
		return
	}
	a.net.Multicast(a.id, a.frames.Request(RequestMsg{
		Source:          st.source,
		Seq:             seq,
		Requestor:       a.id,
		ReqDistToSource: a.Distance(st.source),
		TurningPoint:    topology.None,
	}))
	a.obs.RequestSent(a.id, st.source, seq, ls.k-1)
	ls.ownRequests++
	if ls.firstRequestAt == 0 {
		ls.firstRequestAt = now
	}
	// Schedule the next recovery round with a doubled interval and set
	// the back-off abstinence period 2^k*C3*d.
	a.rescheduleRequest(now, st, ls, seq)
}

// rescheduleRequest moves the loss to its next recovery round, arming a
// new timer with the doubled interval and starting the back-off
// abstinence period — unless the loss has exhausted its bounded retry
// budget, in which case recovery is abandoned instead of arming yet
// another exponential timer (the structural fix for the clock-runaway
// bug class: no request timer ever outlives its round budget).
func (a *Agent) rescheduleRequest(now sim.Time, st *streamState, ls *lossRecord, seq int) {
	if a.p.MaxRequestRounds > 0 && ls.k >= a.p.MaxRequestRounds {
		a.abandonRequest(st, ls, seq)
		return
	}
	a.eng.Cancel(ls.timer)
	a.scheduleRequest(st, ls, seq)
	d := a.Distance(st.source)
	ls.abstainUntil = now.Add(sim.Scale(d, a.p.C3*a.backoffFactor(ls.k)))
	ls.k++
}

// abandonRequest gives up on recovering seq after bounded retry: the
// request timer is cancelled for good, the loss stops counting as
// outstanding (so the run can quiesce), and the abandonment is emitted
// as a typed protocol event. The packet stays missing unless a
// straggling repair delivers it; the experiment layer reconciles the
// final missing count against AbandonedIn.
func (a *Agent) abandonRequest(st *streamState, ls *lossRecord, seq int) {
	if ls.abandoned || ls.recovered {
		return
	}
	ls.abandoned = true
	a.eng.Cancel(ls.timer)
	a.outstanding--
	st.abandonedOpen++
	a.obs.RequestAbandoned(a.id, st.source, seq, ls.k)
}

// AbandonedIn returns how many losses of the source's stream this host
// abandoned after bounded retry and never subsequently received.
func (a *Agent) AbandonedIn(source topology.NodeID) int {
	st := a.peek(source)
	if st == nil {
		return 0
	}
	return st.abandonedOpen
}

// onRequest processes a multicast repair request (§2.1, §2.2).
func (a *Agent) onRequest(now sim.Time, m *RequestMsg) {
	if a.outside(m.Source) || a.outside(m.Requestor) {
		return
	}
	st := a.streamFloored(m.Source, m.Seq, m.Seq+1)
	if st == nil {
		return
	}
	st.NoteExists(m.Seq)
	if ls := st.losses.At(m.Seq); ls != nil && !ls.recovered {
		// We share the loss. If our own request is scheduled and we are
		// outside the back-off abstinence period, this request
		// suppresses ours: back off to the next round.
		ls.foreignRequests++
		if ls.firstRequestAt == 0 {
			ls.firstRequestAt = now
		}
		if now.Before(ls.abstainUntil) {
			return // same round; discard
		}
		a.rescheduleRequest(now, st, ls, m.Seq)
		ls.reschedules++
		return
	}
	if !st.Holds(m.Seq) {
		// We neither have the packet nor have classified it lost yet
		// (SRM detects losses from data gaps and session messages only),
		// or it lies below the floor of a stream opened after it was
		// sent: only a holder repairs, so no timer and no draw.
		return
	}
	a.considerReply(now, st, m)
}

// considerReply schedules a repair reply for a request if none is
// scheduled or pending (§2.2).
func (a *Agent) considerReply(now sim.Time, st *streamState, m *RequestMsg) {
	// A released coordinate yields the window's zeroed scratch cell, so
	// a straggling control message mutates nothing live — release lag
	// makes that unreachable in a correct run, and memory-safe in a
	// buggy one.
	c := st.replies.Ensure(m.Seq)
	if c.blocked(now, st.wordAt(m.Seq)) {
		return // reply abstinence, or a reply is already scheduled
	}
	rs := c.rec
	if rs == nil {
		rs = st.newReply()
		rs.st, rs.seq = st, m.Seq
		c.rec = rs
		*st.word(m.Seq) |= scheduled
	}
	d := a.Distance(m.Requestor)
	lo := sim.Scale(d, a.p.D1)
	hi := sim.Scale(d, a.p.D1+a.p.D2)
	rs.requestor = m.Requestor
	rs.reqDistSrc = m.ReqDistToSource
	rs.requestAt = now
	rs.timer = a.eng.ScheduleHandler(a.rng.UniformDuration(lo, hi), rs)
	st.plane.block(m.Seq)
	a.repliesArmed++
}

// replyTimerFired multicasts the scheduled repair reply and starts the
// reply abstinence period.
func (a *Agent) replyTimerFired(now sim.Time, rs *replyState) {
	st, seq := rs.st, rs.seq
	c := st.replies.Get(seq)
	if c == nil || !st.Holds(seq) {
		return
	}
	a.net.Multicast(a.id, a.frames.Reply(ReplyMsg{
		Source:                 st.source,
		Seq:                    seq,
		Replier:                a.id,
		Requestor:              rs.requestor,
		ReqDistToSource:        rs.reqDistSrc,
		ReplierDistToRequestor: a.Distance(rs.requestor),
	}))
	a.obs.ReplySent(a.id, st.source, seq, false)
	st.setHorizon(seq, now.Add(sim.Scale(a.Distance(rs.requestor), a.p.D3)))
	a.noteReplyEvent(now, c)
}

// onReply processes a repair reply: recover the packet if we were
// missing it, cancel any scheduled reply for it, and observe the reply
// abstinence period (§2.2).
func (a *Agent) onReply(now sim.Time, m *ReplyMsg) {
	if a.outside(m.Source) || a.outside(m.Requestor) || a.outside(m.Replier) {
		return
	}
	st := a.streamFloored(m.Source, m.Seq, m.Seq)
	if st == nil {
		return
	}
	c := st.replies.Get(m.Seq)
	var rs *replyState
	if c != nil {
		rs = c.rec
	}
	if rs != nil && rs.timer != (sim.Timer{}) {
		a.eng.Cancel(rs.timer)
		rs.timer = sim.Timer{}
	}
	// The scratch word below Base, as in considerReply.
	st.word(m.Seq).extend(now.Add(sim.Scale(a.Distance(m.Requestor), a.p.D3)))
	st.plane.block(m.Seq)
	if rs != nil {
		a.noteReplyEvent(now, c)
	}
	a.receivePacket(now, st, m.Seq, m)
	if a.ext != nil && st.losses.At(m.Seq) != nil {
		a.ext.ReplyObserved(now, m)
	}
}

// noteReplyEvent records a reply observation (own send or foreign
// receipt) for a packet this host scheduled a reply to, whose timer is
// therefore spent. Only adaptive timers read the record from here on,
// so with fixed timers the cell drops it to the stream's free list and
// the round's remaining duplicates touch the word alone. With adaptive
// timers it feeds the reply-timer averages: the first reply of a round
// samples the reply delay with no duplicate; later replies are
// duplicate events.
func (a *Agent) noteReplyEvent(now sim.Time, c *replyCell) {
	if !a.adaptiveCfg.Enabled {
		rs := c.rec
		rs.st.freeReply(rs)
		c.rec = nil
		*rs.st.word(rs.seq) &^= scheduled
		return
	}
	rs := c.rec
	rs.repliesSeen++
	d := a.Distance(rs.requestor)
	if rs.repliesSeen == 1 {
		a.observeReplyOutcome(rs, 0, now.Sub(rs.requestAt), d)
	} else {
		a.observeReplyOutcome(rs, 1, 0, 0)
	}
}

// onSession records the sender's distance and detects losses implied by
// the sender's highest known sequence numbers. Detection is deferred by
// DetectionSlack: session messages are 0-byte control packets that can
// outrun in-flight data packets, which pay per-hop serialization delay.
//
// Every member runs this for every other member's message each period,
// so the steady state neither allocates nor sorts.
func (a *Agent) onSession(now sim.Time, m *SessionMsg) {
	if a.outside(m.From) {
		return
	}
	switch a.p.DistanceMode {
	case DistOneWay:
		a.setDistance(m.From, time.Duration(now.Sub(m.SentAt)))
	case DistEchoRTT:
		a.echo.record(m.From, m.SentAt, now)
		if e, ok := m.EchoFor(a.id); ok {
			if rtt, ok := rttFromEcho(now, e); ok {
				a.setDistance(m.From, rtt/2)
			}
		}
	}
	// m.Highest is ascending by source, which makes the order of the
	// engine events scheduled below — and therefore event sequence
	// numbers and the run fingerprint — deterministic when a message
	// advertises two or more sources.
	for _, ad := range m.Highest {
		if a.outside(ad.Source) {
			continue
		}
		st := a.streamFloored(ad.Source, ad.Highest, ad.Highest+1)
		if st == nil {
			continue
		}
		if st.Advert(ad.Highest, ad.Source == a.id) {
			a.eng.ScheduleHandler(a.p.DetectionSlack, a.slack.Get(&st.Stream, st, ad.Highest))
		}
	}
}

// SessionRejects counts the hostile input this agent refused: messages
// of every kind naming a node outside the tree (dropped whole) and
// session adverts naming a source outside it (skipped).
func (a *Agent) SessionRejects() int { return a.sessionRejects }

// SeqRejects counts the messages this agent refused for a sequence
// number outside [0, MaxSeq]: data, requests and replies dropped whole,
// session adverts skipped.
func (a *Agent) SeqRejects() int { return a.seqRejects }

// ---- CESRM extension surface (§3.2, §3.3) ----

// ReplyBlocked reports whether a reply for seq of the source's stream is
// currently scheduled or pending on this host; an expedited replier
// must stay silent in that case (§3.2).
func (a *Agent) ReplyBlocked(now sim.Time, source topology.NodeID, seq int) bool {
	st := a.peek(source)
	if st == nil {
		return false
	}
	return st.replyBlocked(now, seq)
}

// unicastExpeditedRequest sends an expedited request for seq of the
// source's stream to the chosen replier, annotated with the cached
// turning point (None without router assistance).
func (a *Agent) unicastExpeditedRequest(source topology.NodeID, seq int, replier, turningPoint topology.NodeID) {
	if a.crashed || a.absent {
		panic(fmt.Sprintf("srm: silent host %d sending expedited request", a.id))
	}
	a.net.Unicast(a.id, replier, a.frames.Request(RequestMsg{
		Source:          source,
		Seq:             seq,
		Requestor:       a.id,
		ReqDistToSource: a.Distance(source),
		Expedited:       true,
		TurningPoint:    turningPoint,
	}))
	a.obs.ExpRequestSent(a.id, source, seq)
}

// SendExpeditedReply immediately transmits an expedited reply for the
// expedited request m, provided this host has the packet and no reply
// for it is scheduled or pending. When subcast is true (router-assisted
// mode, §3.3) and the request carries a turning point, the reply is
// unicast to the turning-point router and subcast downstream from it;
// otherwise it is multicast to the whole group. Returns whether a reply
// was sent.
func (a *Agent) SendExpeditedReply(now sim.Time, m *RequestMsg, subcast bool) bool {
	if a.crashed {
		panic(fmt.Sprintf("srm: crashed host %d sending expedited reply", a.id))
	}
	if a.outside(m.Source) || a.outside(m.Requestor) {
		return false
	}
	// A host with no state for the stream holds nothing; answering must
	// not create the state ahead of the late-join floor.
	st := a.peek(m.Source)
	if st == nil || !st.Holds(m.Seq) || a.ReplyBlocked(now, m.Source, m.Seq) {
		return false
	}
	pkt := a.frames.Reply(ReplyMsg{
		Source:                 m.Source,
		Seq:                    m.Seq,
		Replier:                a.id,
		Requestor:              m.Requestor,
		ReqDistToSource:        m.ReqDistToSource,
		ReplierDistToRequestor: a.Distance(m.Requestor),
		Expedited:              true,
	})
	if subcast && m.TurningPoint != topology.None {
		a.net.UnicastThenSubcast(a.id, m.TurningPoint, pkt)
	} else {
		a.net.Multicast(a.id, pkt)
	}
	a.obs.ReplySent(a.id, m.Source, m.Seq, true)
	st.setHorizon(m.Seq, now.Add(sim.Scale(a.Distance(m.Requestor), a.p.D3)))
	return true
}
