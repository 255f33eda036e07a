package srm

import (
	"cesrm/internal/seqwin"
	"cesrm/internal/sim"
)

// Stream is one host's per-packet reception state for one source's
// stream, the part SRM and LMS share. L is the per-packet loss record
// and R the reply-side cell: SRM's reply abstinence and scheduled reply,
// LMS's parked NAKs.
//
// received, losses and replies are sliding windows released together
// (see ReleaseThrough), so they share one base. Invariant: base ≤ held ≤
// cursor, so classification and detection never touch the released
// prefix. Three windows, not one fat cell: received.Has is on the
// per-delivery path and must stay a one-byte probe. losses and replies
// hold the zero value for packets with no such state.
type Stream[L, R any] struct {
	received seqwin.Prefix
	losses   seqwin.Window[L]
	replies  seqwin.Window[R]
	// head is the only home of the stream's scalar state: own, or the
	// member's slot in a Group (placed before the first OpenAt), where a
	// session flood reads it without touching the stream.
	head *streamHead
	own  streamHead
}

// streamHead is the scalar state of one member's stream of one source.
// Its sequence numbers are int32, which MaxSeq bounds (LMS streams are
// trace-bounded), so a group's row of heads packs tighter.
type streamHead struct {
	// cursor: every sequence number below it has been classified as
	// received or detected lost.
	cursor int32
	// highestKnown is the highest sequence number known to exist in
	// this stream, -1 initially.
	highestKnown int32
	// advertPending is the highest sequence number for which a deferred
	// advert-triggered detection pass has been armed.
	advertPending int32
	// floor is where the stream last opened (OpenAt): the host never held
	// a packet below it, though received reads every one of them as held.
	floor int32
	// live is the member's live stream of the source while the head is
	// a group slot, nil once the slot closes; unused in a stream's own
	// head.
	live *streamState
}

// quiet reports whether an advert of highest changes nothing in the
// head: Advert would neither raise highestKnown nor arm a pass. It is the
// one rule both Advert and a group serving a session inline apply.
func (h *streamHead) quiet(highest int, own bool) bool {
	return highest <= int(h.highestKnown) && (own || highest < int(h.cursor) || highest <= int(h.advertPending))
}

// Detector is a Stream's owner as classification calls it back.
type Detector interface {
	// DetectLoss begins recovery of seq, just classified as lost.
	DetectLoss(now sim.Time, seq int)
	// Probe reports whether a deferred detection pass armed on the
	// stream still applies when it fires. The pass is fire-and-forget,
	// so silence cannot cancel it: a silent host must not detect, nor
	// may a host whose stream was replaced or awaits its post-join
	// floor, since the advert predates that stream.
	Probe() bool
}

// Received returns the held-packet prefix.
func (s *Stream[L, R]) Received() *seqwin.Prefix { return &s.received }

// Losses returns the loss-record window.
func (s *Stream[L, R]) Losses() *seqwin.Window[L] { return &s.losses }

// Replies returns the reply-side window.
func (s *Stream[L, R]) Replies() *seqwin.Window[R] { return &s.replies }

// Floor returns the reliability floor the stream opened at.
func (s *Stream[L, R]) Floor() int { return int(s.head.floor) }

// Holds reports whether the host holds packet seq: received it, at or
// above the floor. Below the floor received reads every packet as held,
// so released and never held look alike there; Holds is the one rule
// every repair path asks, because only a holder repairs.
func (s *Stream[L, R]) Holds(seq int) bool { return seq >= int(s.head.floor) && s.received.Has(seq) }

// Cursor returns the first unclassified sequence number.
func (s *Stream[L, R]) Cursor() int { return int(s.head.cursor) }

// Highest returns the highest sequence number known to exist, -1 if none.
func (s *Stream[L, R]) Highest() int { return int(s.head.highestKnown) }

// OpenAt empties the stream and rebases it at floor: everything below it
// reads as received, though never held (Holds), and loss detection
// begins there. OpenAt(0) is a fresh stream; a late joiner opens at its
// first post-join evidence. A stream not placed in a group keeps its
// head in own.
func (s *Stream[L, R]) OpenAt(floor int) {
	if s.head == nil {
		s.head = &s.own
	}
	s.received.OpenAt(floor)
	s.losses.OpenAt(floor)
	s.replies.OpenAt(floor)
	h := s.head
	h.floor = int32(floor)
	h.cursor = int32(floor)
	h.highestKnown = -1
	h.advertPending = -1
}

// Transmit records the stream's own source sending seq.
func (s *Stream[L, R]) Transmit(seq int) {
	s.received.Mark(seq)
	s.NoteExists(seq)
	s.head.cursor = int32(seq + 1)
}

// NoteExists records that seq is known to exist.
func (s *Stream[L, R]) NoteExists(seq int) {
	if h := s.head; seq > int(h.highestKnown) {
		h.highestKnown = int32(seq)
	}
}

// ClassifyThrough classifies every unclassified sequence number up to
// and including x, handing each one not held to d as a loss.
func (s *Stream[L, R]) ClassifyThrough(now sim.Time, x int, d Detector) {
	h := s.head
	for ; int(h.cursor) <= x; h.cursor++ {
		if !s.received.Has(int(h.cursor)) {
			d.DetectLoss(now, int(h.cursor))
		}
	}
}

// Advert notes that the source advertised highest and reports whether
// a deferred detection pass through it should be armed: not on the
// host's own stream (own), and not when highest is already classified
// or a pass reaching it is armed.
func (s *Stream[L, R]) Advert(highest int, own bool) bool {
	s.NoteExists(highest)
	if h := s.head; !h.quiet(highest, own) {
		h.advertPending = int32(highest)
		return true
	}
	return false
}

// Missing returns how many of [0, n) the stream does not hold.
func (s *Stream[L, R]) Missing(n int) int {
	missing := 0
	for i := 0; i < n; i++ {
		if !s.received.Has(i) {
			missing++
		}
	}
	return missing
}

// ReleaseThrough discards per-packet state below n, clamped to the held
// prefix. No engine operations happen here, so release is invisible to
// the run's event stream, finish time and fingerprint.
func (s *Stream[L, R]) ReleaseThrough(n int) {
	s.received.ReleaseThrough(n)
	s.losses.ReleaseThrough(s.received.Base())
	s.replies.ReleaseThrough(s.received.Base())
}

// Len returns the number of per-packet cells retained across the three
// windows; tests pin release effectiveness with it.
func (s *Stream[L, R]) Len() int {
	return s.received.Len() + s.losses.Len() + s.replies.Len()
}

// Detection is a deferred, advert-triggered detection pass: the
// closure-free form of "after the detection slack, classify the stream
// through highest unless its owner's Probe says the pass went stale".
// Session messages and heartbeats are 0-byte control packets that can
// outrun in-flight data, which pays per-hop serialization delay, hence
// the slack.
type Detection[L, R any] struct {
	pool    *DetectionPool[L, R]
	stream  *Stream[L, R]
	owner   Detector
	highest int
	next    *Detection[L, R]
}

// DetectionPool pools an agent's fired Detection handlers, so the steady
// state allocates none.
type DetectionPool[L, R any] struct {
	free *Detection[L, R]
}

// Get returns a pass that classifies s through highest for owner.
func (p *DetectionPool[L, R]) Get(s *Stream[L, R], owner Detector, highest int) *Detection[L, R] {
	d := p.free
	if d == nil {
		d = &Detection[L, R]{pool: p}
	} else {
		p.free = d.next
	}
	d.stream, d.owner, d.highest = s, owner, highest
	return d
}

// Fire implements sim.EventHandler; the handler returns to its pool.
func (d *Detection[L, R]) Fire(now sim.Time) {
	s, owner, h := d.stream, d.owner, d.highest
	d.stream, d.owner, d.next = nil, nil, d.pool.free
	d.pool.free = d
	if owner.Probe() {
		s.ClassifyThrough(now, h, owner)
	}
}
