package stats

import (
	"fmt"
	"math"

	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// Validator is an Observer that checks protocol invariants online, in
// the spirit of the formal I/O-automaton treatment of SRM/CESRM in
// Livadas's thesis (reference [10] of the paper). It is cheap enough to
// run alongside the metrics collector in every experiment. Violations
// accumulate rather than panic so a run's full violation set is
// reported at once.
//
// Checked invariants (event-observable):
//
//  1. A loss is detected at most once per (host, source, seq).
//  2. A recovery is preceded by exactly one detection of the same loss
//     and happens at most once, never before its detection, and its
//     report carries that detection's instant (RecoveryInfo.DetectedAt):
//     the event is the recovery's one report.
//  3. Request back-off rounds per loss are strictly increasing from 0
//     (exponential back-off never repeats or skips backwards).
//  4. Events never run backwards in time per host.
//  5. Expedited replies never outnumber expedited requests (an
//     expedited reply is always instigated by an expedited request).
//
// Two further invariants arm under fault injection:
//
//  6. Crashed hosts are silent: once NoteCrash is recorded for a host,
//     any later event from it is a fail-stop violation, until a
//     NoteRestart (which also resets the host's audit rows — a
//     restarted host rejoins with amnesia and legitimately re-detects
//     its losses).
//
//  7. Expedited recovery falls back to SRM within a bounded number of
//     request rounds (BoundExpFallback): a loss that was chased with an
//     expedited request but recovered unexpedited — the cached replier
//     was dead or shared the loss — must still complete within the
//     bound, the paper's §3.3 graceful-degradation claim.
//
//  8. Departed hosts are silent: once NoteLeave is recorded for a host,
//     any later event from it is a violation until NoteJoin. A join
//     resets the host's audit rows like a restart does: the protocol
//     caches survive a graceful leave, but loss bookkeeping restarts
//     from the late-join reliability floor, which the first post-join
//     contact can place below pre-leave classifications.
//
//  9. A loss is abandoned at most once, only after detection, never
//     after recovery, and no further requests follow the abandonment
//     (bounded-retry degradation terminates recovery for good).
//
// One invariant audits the harness rather than the protocol:
//
//  10. No present host's stream is based below the released watermark
//     (NoteFloorBelowRelease). Mid-run release discards per-packet
//     state group-wide on the argument that a host joining later opens
//     its stream at or above what was discarded; a late-join floor
//     below it means the joiner is owed packets whose recovery state
//     its peers no longer have, so a run with release on has stopped
//     being the run with release off.
//
// The last is the protocol's first safety property, after the Livadas
// treatment:
//
//  11. Only a holder repairs: a reply for (source, seq) comes from the
//     source or from a host that held seq — at or above the reliability
//     floor its stream of source opened at (NoteFloor), and not
//     detected lost and still unrecovered. Has alone cannot tell held
//     from never held: a stream reads every packet below its floor as
//     held. A host present since the start opened every stream at 0;
//     one that joined or restarted holds nothing of a source until its
//     floor is reported.
type Validator struct {
	violations []Violation

	// packets is the per-(host, source, seq) audit state, a dense
	// NodeID- and seq-indexed table: the run's one per-packet table
	// outside the protocol agents.
	packets seqTable[packetAudit]
	// peakCells is packets' live-cell high-water (PeakCells).
	peakCells int
	// lastEvent is each host's most recent event instant, NodeID-indexed;
	// -1 marks "no event seen yet".
	lastEvent []sim.Time
	// crashedAt is each host's crash instant, NodeID-indexed; -1 marks a
	// live host.
	crashedAt []sim.Time
	// leftAt is each host's graceful-departure instant, NodeID-indexed;
	// -1 marks a present host.
	leftAt []sim.Time
	// now supplies the virtual clock for events whose callback carries
	// no instant; nil leaves those unchecked by the silence invariant.
	now func() sim.Time
	// fallbackBound is invariant 7's maximum request-round count; zero
	// disables the check.
	fallbackBound int

	expReqs    int
	expReplies int

	// floors is invariant 11's reliability floor per host, then per
	// source. A nil row reads 0 for every source, as for a member since
	// the start or a restarted one. Join empties the row, and a source
	// missing from a non-nil row has no open stream.
	floors [][]int
}

// noFloor marks a source whose stream a host has not opened: it holds no
// packet of it.
const noFloor = math.MaxInt

// packetAudit is the Validator's per-packet cell.
type packetAudit struct {
	detAt        sim.Time
	det          bool
	recovered    bool
	abandoned    bool
	lastRound    int
	hasRound     bool
	expRequested bool
}

// NewValidator returns an empty validator.
func NewValidator() *Validator { return &Validator{} }

// Reserve pre-sizes the per-host tables for node IDs 0..n-1.
func (v *Validator) Reserve(n int) {
	v.packets.reserve(n)
	for len(v.lastEvent) < n {
		v.lastEvent = append(v.lastEvent, -1)
	}
	for len(v.crashedAt) < n {
		v.crashedAt = append(v.crashedAt, -1)
	}
	for len(v.leftAt) < n {
		v.leftAt = append(v.leftAt, -1)
	}
}

// SetClock supplies the virtual clock used to place events whose
// observer callback carries no instant (requests, replies, sessions)
// relative to crash instants.
func (v *Validator) SetClock(now func() sim.Time) { v.now = now }

// BoundExpFallback arms invariant 7: a loss chased by an expedited
// request that recovers unexpedited must do so within rounds request
// rounds. Zero disables the check.
func (v *Validator) BoundExpFallback(rounds int) { v.fallbackBound = rounds }

// NoteCrash records that host fail-stopped at the given instant; any
// later event from it violates invariant 6. Implements the chaos
// harness's Probe surface.
func (v *Validator) NoteCrash(host topology.NodeID, at sim.Time) {
	for int(host) >= len(v.crashedAt) {
		v.crashedAt = append(v.crashedAt, -1)
	}
	v.crashedAt[host] = at
}

// ReleaseThrough discards the per-packet audit cells of the given
// source's stream below sequence number n on every host. The experiment
// layer calls it behind the fully-recovered watermark: no further event
// may reference those packets, so their audit rows can only ever be
// read again by a protocol bug — which still violates (a released
// coordinate reads as a blank row, so e.g. a late recovery raises
// recover-undetected instead of double-recover).
func (v *Validator) ReleaseThrough(source topology.NodeID, n int) {
	v.PeakCells()
	v.packets.releaseThrough(source, n)
}

// PeakCells returns the most per-packet audit cells the validator held,
// sampled before each release and at the call: the release tests'
// memory high-water and the cost ledger's audit-cells column.
func (v *Validator) PeakCells() int {
	v.peakCells = max(v.peakCells, v.packets.liveCells())
	return v.peakCells
}

// NoteFloorBelowRelease records a breach of invariant 10: host's stream
// of source is based at floor although the group already released
// per-packet state through released. The experiment layer's release
// monitor reports it; the floor itself is the protocol's and is never
// adjusted.
func (v *Validator) NoteFloorBelowRelease(host, source topology.NodeID, floor, released int) {
	v.violate("floor-below-release", "host %d: stream %d opened at %d, below the released watermark %d",
		host, source, floor, released)
}

// NoteFloor implements srm.FloorObserver: host's stream of source opened
// at floor, so the host holds no packet below it (invariant 11).
func (v *Validator) NoteFloor(host, source topology.NodeID, floor int) {
	for int(host) >= len(v.floors) {
		v.floors = append(v.floors, nil)
	}
	row := v.floors[host]
	for int(source) >= len(row) {
		row = append(row, noFloor)
	}
	row[source] = floor
	v.floors[host] = row
}

// floor returns host's reliability floor for source (see floors).
func (v *Validator) floor(host, source topology.NodeID) int {
	if int(host) >= len(v.floors) || v.floors[host] == nil {
		return 0
	}
	if row := v.floors[host]; int(source) < len(row) {
		return row[source]
	}
	return noFloor
}

// setFloors replaces host's floor row: nil for floor 0 everywhere, empty
// for no stream open.
func (v *Validator) setFloors(host topology.NodeID, row []int) {
	for int(host) >= len(v.floors) {
		v.floors = append(v.floors, nil)
	}
	v.floors[host] = row
}

// NoteRestart records that host rejoined. Its audit rows reset: the new
// incarnation starts blank and re-detects its losses. Its streams reopen
// at 0 as at the start, unless a late-join floor still applies, which
// the agent reports when the stream opens.
func (v *Validator) NoteRestart(host topology.NodeID, at sim.Time) {
	for int(host) >= len(v.crashedAt) {
		v.crashedAt = append(v.crashedAt, -1)
	}
	v.crashedAt[host] = -1
	v.packets.resetHost(host)
	v.setFloors(host, nil)
}

// NoteLeave records that host departed gracefully at the given instant;
// any later event from it violates invariant 8. Implements the chaos
// harness's Probe surface.
func (v *Validator) NoteLeave(host topology.NodeID, at sim.Time) {
	for int(host) >= len(v.leftAt) {
		v.leftAt = append(v.leftAt, -1)
	}
	v.leftAt[host] = at
}

// NoteJoin records that host rejoined the group. Its audit rows reset,
// as for NoteRestart: a graceful leave is not amnesia for the *caches*
// (the core layer keeps them), but the SRM agent restarts its per-packet
// loss bookkeeping from the late-join reliability floor — and that floor
// comes from the first post-join contact, which a lagging peer can place
// below sequences the host classified before leaving, legitimately
// re-detecting them.
func (v *Validator) NoteJoin(host topology.NodeID, at sim.Time) {
	for int(host) >= len(v.leftAt) {
		v.leftAt = append(v.leftAt, -1)
	}
	v.leftAt[host] = -1
	v.packets.resetHost(host)
	v.setFloors(host, []int{})
}

// clock returns the current virtual instant, or -1 when no clock is
// installed.
func (v *Validator) clockNow() sim.Time {
	if v.now == nil {
		return -1
	}
	return v.now()
}

// silence checks invariants 6 and 8 for an event of host at the given
// instant; a negative instant (no clock) skips the check.
func (v *Validator) silence(host topology.NodeID, at sim.Time, what string) {
	if at < 0 {
		return
	}
	if int(host) < len(v.crashedAt) {
		if c := v.crashedAt[host]; c >= 0 && at > c {
			v.violate("crash-silence", "host %d: %s at %v after crash at %v", host, what, at, c)
		}
	}
	if int(host) < len(v.leftAt) {
		if l := v.leftAt[host]; l >= 0 && at > l {
			v.violate("leave-silence", "host %d: %s at %v after leave at %v", host, what, at, l)
		}
	}
}

var (
	_ srm.Observer      = (*Validator)(nil)
	_ srm.FloorObserver = (*Validator)(nil)
)

// Violation is one recorded invariant breach.
type Violation struct {
	// Class is a stable, machine-usable label naming the invariant that
	// broke ("crash-silence", "double-detect", ...). The soak harness
	// buckets failures by class when minimizing chaos schedules, so two
	// runs that break the same invariant compare equal even when the
	// detail text (hosts, instants) differs.
	Class string
	// Detail is the human-readable description.
	Detail string
}

// String returns the detail text.
func (x Violation) String() string { return x.Detail }

// InvariantError is the typed error a run with invariant violations
// surfaces. Callers that need structure (the soak harness attributing
// and minimizing failures) unwrap it with errors.As; its message keeps
// the historical one-line summary.
type InvariantError struct {
	// Violations holds every recorded breach, in observation order.
	Violations []Violation
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("protocol invariant violations (%d): %s", len(e.Violations), e.Violations[0].Detail)
}

func (v *Validator) violate(class, format string, args ...any) {
	v.violations = append(v.violations, Violation{Class: class, Detail: fmt.Sprintf(format, args...)})
}

// Violations returns the detail text of all recorded invariant
// violations.
func (v *Validator) Violations() []string {
	out := make([]string, len(v.violations))
	for i, x := range v.violations {
		out[i] = x.Detail
	}
	return out
}

// ViolationRecords returns all recorded violations with their class
// labels.
func (v *Validator) ViolationRecords() []Violation {
	return append([]Violation(nil), v.violations...)
}

// Err returns an *InvariantError summarizing violations, or nil.
func (v *Validator) Err() error {
	if len(v.violations) == 0 {
		return nil
	}
	return &InvariantError{Violations: v.ViolationRecords()}
}

func (v *Validator) clock(host topology.NodeID, at sim.Time) {
	for int(host) >= len(v.lastEvent) {
		v.lastEvent = append(v.lastEvent, -1)
	}
	if last := v.lastEvent[host]; last >= 0 && at.Before(last) {
		v.violate("clock-regression", "host %d: event at %v before previous event at %v", host, at, last)
	}
	v.lastEvent[host] = at
}

// LossDetected implements srm.Observer.
func (v *Validator) LossDetected(host, source topology.NodeID, seq int, at sim.Time) {
	v.clock(host, at)
	v.silence(host, at, "loss detection")
	p := v.packets.ensure(host, source, seq)
	if p.det {
		v.violate("double-detect", "host %d: loss (%d,%d) detected twice", host, source, seq)
	}
	p.detAt = at
	p.det = true
}

// Recovered implements srm.Observer.
func (v *Validator) Recovered(host, source topology.NodeID, seq int, at sim.Time, info srm.RecoveryInfo) {
	v.clock(host, at)
	v.silence(host, at, "recovery")
	p := v.packets.ensure(host, source, seq)
	if v.fallbackBound > 0 && p.expRequested && !info.Expedited && info.OwnRequests > v.fallbackBound {
		v.violate("expedited-fallback-bound", "host %d: SRM fallback for expedited (%d,%d) took %d request rounds (bound %d)",
			host, source, seq, info.OwnRequests, v.fallbackBound)
	}
	if !p.det {
		v.violate("recover-undetected", "host %d: recovery of (%d,%d) without detection", host, source, seq)
	} else {
		if at.Before(p.detAt) {
			v.violate("recover-before-detect", "host %d: recovery of (%d,%d) at %v before detection at %v", host, source, seq, at, p.detAt)
		}
		if info.DetectedAt != p.detAt {
			v.violate("recovery-detected-at", "host %d: recovery of (%d,%d) reports detection at %v, detected at %v", host, source, seq, info.DetectedAt, p.detAt)
		}
	}
	if p.recovered {
		v.violate("double-recover", "host %d: (%d,%d) recovered twice", host, source, seq)
	}
	p.recovered = true
	if info.OwnRequests < 0 || info.Reschedules < 0 {
		v.violate("negative-counters", "host %d: negative recovery counters %+v", host, info)
	}
}

// RequestSent implements srm.Observer.
func (v *Validator) RequestSent(host, source topology.NodeID, seq int, round int) {
	v.silence(host, v.clockNow(), "request")
	p := v.packets.ensure(host, source, seq)
	if p.recovered {
		v.violate("request-after-recover", "host %d: request for already-recovered (%d,%d)", host, source, seq)
	}
	if !p.det {
		v.violate("request-undetected", "host %d: request for undetected (%d,%d)", host, source, seq)
	}
	if p.abandoned {
		v.violate("request-after-abandon", "host %d: request for abandoned (%d,%d)", host, source, seq)
	}
	if p.hasRound {
		if round <= p.lastRound {
			v.violate("request-round-order", "host %d: request round %d after round %d for (%d,%d)", host, round, p.lastRound, source, seq)
		}
	} else if round < 0 {
		v.violate("request-round-negative", "host %d: negative request round %d", host, round)
	}
	p.lastRound = round
	p.hasRound = true
}

// RequestAbandoned implements srm.Observer, checking invariant 9. A
// recovery arriving after abandonment (a straggling repair) is
// legitimate and raises no violation.
func (v *Validator) RequestAbandoned(host, source topology.NodeID, seq int, rounds int) {
	v.silence(host, v.clockNow(), "request abandonment")
	p := v.packets.ensure(host, source, seq)
	if !p.det {
		v.violate("abandon-undetected", "host %d: abandoned undetected (%d,%d)", host, source, seq)
	}
	if p.recovered {
		v.violate("abandon-after-recover", "host %d: abandoned already-recovered (%d,%d)", host, source, seq)
	}
	if p.abandoned {
		v.violate("double-abandon", "host %d: (%d,%d) abandoned twice", host, source, seq)
	}
	if rounds < 1 {
		v.violate("abandon-rounds", "host %d: abandoned (%d,%d) after %d rounds", host, source, seq, rounds)
	}
	p.abandoned = true
}

// ExpRequestSent implements srm.Observer.
func (v *Validator) ExpRequestSent(host, source topology.NodeID, seq int) {
	v.silence(host, v.clockNow(), "expedited request")
	v.expReqs++
	p := v.packets.ensure(host, source, seq)
	if p.recovered {
		v.violate("exp-request-after-recover", "host %d: expedited request for already-recovered (%d,%d)", host, source, seq)
	}
	p.expRequested = true
}

// ReplySent implements srm.Observer, checking invariant 11.
func (v *Validator) ReplySent(host, source topology.NodeID, seq int, expedited bool) {
	v.silence(host, v.clockNow(), "reply")
	if host != source {
		if f := v.floor(host, source); seq < f {
			v.violate("never-held-reply", "host %d: reply for (%d,%d) below its floor %s", host, source, seq, floorText(f))
		} else if p := v.packets.get(host, source, seq); p != nil && p.det && !p.recovered {
			v.violate("never-held-reply", "host %d: reply for (%d,%d), detected lost and not recovered", host, source, seq)
		}
	}
	if expedited {
		v.expReplies++
		if v.expReplies > v.expReqs {
			v.violate("exp-reply-excess", "expedited replies (%d) exceed expedited requests (%d)", v.expReplies, v.expReqs)
		}
	}
}

// floorText renders a floor, "none" for a stream not opened.
func floorText(f int) string {
	if f == noFloor {
		return "none"
	}
	return fmt.Sprint(f)
}

// SessionSent implements srm.Observer.
func (v *Validator) SessionSent(host topology.NodeID) {
	v.silence(host, v.clockNow(), "session message")
}

// Tee fans protocol events out to several observers, letting a metrics
// collector and a validator watch the same run.
type Tee []srm.Observer

var _ srm.Observer = Tee{}

// NoteFloor implements srm.FloorObserver for the observers that are one.
func (t Tee) NoteFloor(host, source topology.NodeID, floor int) {
	for _, o := range t {
		if f, ok := o.(srm.FloorObserver); ok {
			f.NoteFloor(host, source, floor)
		}
	}
}

// LossDetected implements srm.Observer.
func (t Tee) LossDetected(host, source topology.NodeID, seq int, at sim.Time) {
	for _, o := range t {
		o.LossDetected(host, source, seq, at)
	}
}

// Recovered implements srm.Observer.
func (t Tee) Recovered(host, source topology.NodeID, seq int, at sim.Time, info srm.RecoveryInfo) {
	for _, o := range t {
		o.Recovered(host, source, seq, at, info)
	}
}

// RequestSent implements srm.Observer.
func (t Tee) RequestSent(host, source topology.NodeID, seq int, round int) {
	for _, o := range t {
		o.RequestSent(host, source, seq, round)
	}
}

// ExpRequestSent implements srm.Observer.
func (t Tee) ExpRequestSent(host, source topology.NodeID, seq int) {
	for _, o := range t {
		o.ExpRequestSent(host, source, seq)
	}
}

// ReplySent implements srm.Observer.
func (t Tee) ReplySent(host, source topology.NodeID, seq int, expedited bool) {
	for _, o := range t {
		o.ReplySent(host, source, seq, expedited)
	}
}

// SessionSent implements srm.Observer.
func (t Tee) SessionSent(host topology.NodeID) {
	for _, o := range t {
		o.SessionSent(host)
	}
}

// RequestAbandoned implements srm.Observer.
func (t Tee) RequestAbandoned(host, source topology.NodeID, seq int, rounds int) {
	for _, o := range t {
		o.RequestAbandoned(host, source, seq, rounds)
	}
}
