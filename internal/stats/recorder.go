package stats

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// EventKind discriminates the protocol events a Recorder captures.
type EventKind uint8

const (
	// EventLossDetected records a receiver first classifying a packet as
	// lost.
	EventLossDetected EventKind = iota + 1
	// EventRecovered records a lost packet finally arriving.
	EventRecovered
	// EventRequestSent records a multicast repair request.
	EventRequestSent
	// EventExpRequestSent records a unicast expedited request.
	EventExpRequestSent
	// EventReplySent records a repair reply (retransmission).
	EventReplySent
	// EventSessionSent records a session message.
	EventSessionSent
	// EventRequestAbandoned records a receiver giving up on a loss after
	// the bounded-retry limit.
	EventRequestAbandoned
)

// String returns the kind's stable NDJSON label.
func (k EventKind) String() string {
	switch k {
	case EventLossDetected:
		return "loss-detected"
	case EventRecovered:
		return "recovered"
	case EventRequestSent:
		return "request"
	case EventExpRequestSent:
		return "exp-request"
	case EventReplySent:
		return "reply"
	case EventSessionSent:
		return "session"
	case EventRequestAbandoned:
		return "request-abandoned"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one entry of the ordered protocol-event stream. The stream
// order is the simulation engine's dispatch order, which a correct run
// reproduces exactly; fingerprinting hashes the stream to detect
// scheduling nondeterminism (see experiment.RunResult.Fingerprint).
type Event struct {
	// Kind discriminates which fields below are meaningful.
	Kind EventKind
	// At is the virtual instant of the event.
	At sim.Time
	// Host is the acting host; Source and Seq identify the packet
	// (unused for EventSessionSent).
	Host   topology.NodeID
	Source topology.NodeID
	Seq    int
	// Round is the back-off exponent (EventRequestSent only).
	Round int
	// Expedited marks expedited replies and recoveries.
	Expedited bool
	// OwnRequests, Reschedules, Requestor and Replier carry the
	// srm.RecoveryInfo of an EventRecovered.
	OwnRequests int
	Reschedules int
	Requestor   topology.NodeID
	Replier     topology.NodeID
}

// eventJSON is Event's NDJSON shape: a stable kind label, the instant
// in nanoseconds, and every payload field. Fields the kind does not
// populate are emitted as zero values rather than omitted — 0 is a
// valid NodeID (the root) and a valid back-off round, so omission would
// be ambiguous. Consumers filter by kind.
type eventJSON struct {
	Kind        string          `json:"kind"`
	AtNS        int64           `json:"at_ns"`
	Host        topology.NodeID `json:"host"`
	Source      topology.NodeID `json:"source"`
	Seq         int             `json:"seq"`
	Round       int             `json:"round"`
	Expedited   bool            `json:"expedited"`
	OwnRequests int             `json:"own_requests"`
	Reschedules int             `json:"reschedules"`
	Requestor   topology.NodeID `json:"requestor"`
	Replier     topology.NodeID `json:"replier"`
}

// WriteEventsNDJSON writes one JSON object per event, newline-delimited —
// a run's debugging timeline, consumable by jq and friends.
func WriteEventsNDJSON(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		j := eventJSON{
			Kind:        ev.Kind.String(),
			AtNS:        int64(ev.At),
			Host:        ev.Host,
			Source:      ev.Source,
			Seq:         ev.Seq,
			Round:       ev.Round,
			Expedited:   ev.Expedited,
			OwnRequests: ev.OwnRequests,
			Reschedules: ev.Reschedules,
			Requestor:   ev.Requestor,
			Replier:     ev.Replier,
		}
		if err := enc.Encode(j); err != nil {
			return err
		}
	}
	return nil
}

// ReadEventsNDJSON is WriteEventsNDJSON's inverse: it reads the events
// one per line, rejecting an unknown kind label or a malformed line.
func ReadEventsNDJSON(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		var j eventJSON
		if err := json.Unmarshal(sc.Bytes(), &j); err != nil {
			return nil, fmt.Errorf("event line %d: %w", line, err)
		}
		kind, ok := eventKinds[j.Kind]
		if !ok {
			return nil, fmt.Errorf("event line %d: unknown kind %q", line, j.Kind)
		}
		out = append(out, Event{
			Kind:        kind,
			At:          sim.Time(j.AtNS),
			Host:        j.Host,
			Source:      j.Source,
			Seq:         j.Seq,
			Round:       j.Round,
			Expedited:   j.Expedited,
			OwnRequests: j.OwnRequests,
			Reschedules: j.Reschedules,
			Requestor:   j.Requestor,
			Replier:     j.Replier,
		})
	}
	return out, sc.Err()
}

// eventKinds maps each kind's NDJSON label back to the kind.
var eventKinds = func() map[string]EventKind {
	m := map[string]EventKind{}
	for k := EventLossDetected; k <= EventRequestAbandoned; k++ {
		m[k.String()] = k
	}
	return m
}()

// Recorder is an Observer that observes the ordered protocol-event
// stream of a run. By default every event is retained for NDJSON
// timeline dumps; the experiment layer instead streams events into the
// run fingerprint as they happen (SetSink) and drops retention
// (SetKeep(false)) unless the caller asked for the timeline, so a run's
// memory no longer grows with its event count. The zero value is not
// usable; construct with NewRecorder.
type Recorder struct {
	now    func() sim.Time
	sink   func(Event)
	keep   bool
	count  uint64
	events []Event
}

// NewRecorder returns an empty recorder that retains events. now
// supplies the virtual clock used to timestamp events whose observer
// callback carries no instant (requests, replies, sessions); nil leaves
// those timestamps zero.
func NewRecorder(now func() sim.Time) *Recorder {
	return &Recorder{now: now, keep: true}
}

// SetSink installs a streaming consumer invoked for every event as it
// is observed, in dispatch order, independent of retention. The
// experiment layer folds events into the fingerprint digest this way.
func (r *Recorder) SetSink(sink func(Event)) { r.sink = sink }

// SetKeep controls whether events are retained for Events and
// WriteNDJSON. With keep false the recorder holds no per-event memory;
// the sink still sees everything and Len still counts.
func (r *Recorder) SetKeep(keep bool) { r.keep = keep }

var _ srm.Observer = (*Recorder)(nil)

// Events returns the captured stream in dispatch order, nil when
// retention is off. The slice is the recorder's backing store; callers
// must not mutate it.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of events observed, whether or not retained.
func (r *Recorder) Len() int { return int(r.count) }

// emit dispatches one observed event to the sink and retention store.
func (r *Recorder) emit(ev Event) {
	r.count++
	if r.sink != nil {
		r.sink(ev)
	}
	if r.keep {
		r.events = append(r.events, ev)
	}
}

// WriteNDJSON writes the captured stream as NDJSON.
func (r *Recorder) WriteNDJSON(w io.Writer) error {
	return WriteEventsNDJSON(w, r.events)
}

func (r *Recorder) clock() sim.Time {
	if r.now == nil {
		return 0
	}
	return r.now()
}

// LossDetected implements srm.Observer.
func (r *Recorder) LossDetected(host, source topology.NodeID, seq int, at sim.Time) {
	r.emit(Event{Kind: EventLossDetected, At: at, Host: host, Source: source, Seq: seq})
}

// Recovered implements srm.Observer.
func (r *Recorder) Recovered(host, source topology.NodeID, seq int, at sim.Time, info srm.RecoveryInfo) {
	r.emit(Event{
		Kind: EventRecovered, At: at, Host: host, Source: source, Seq: seq,
		Expedited: info.Expedited, OwnRequests: info.OwnRequests, Reschedules: info.Reschedules,
		Requestor: info.Requestor, Replier: info.Replier,
	})
}

// RequestSent implements srm.Observer.
func (r *Recorder) RequestSent(host, source topology.NodeID, seq int, round int) {
	r.emit(Event{Kind: EventRequestSent, At: r.clock(), Host: host, Source: source, Seq: seq, Round: round})
}

// ExpRequestSent implements srm.Observer.
func (r *Recorder) ExpRequestSent(host, source topology.NodeID, seq int) {
	r.emit(Event{Kind: EventExpRequestSent, At: r.clock(), Host: host, Source: source, Seq: seq})
}

// ReplySent implements srm.Observer.
func (r *Recorder) ReplySent(host, source topology.NodeID, seq int, expedited bool) {
	r.emit(Event{Kind: EventReplySent, At: r.clock(), Host: host, Source: source, Seq: seq, Expedited: expedited})
}

// SessionSent implements srm.Observer.
func (r *Recorder) SessionSent(host topology.NodeID) {
	r.emit(Event{Kind: EventSessionSent, At: r.clock(), Host: host})
}

// RequestAbandoned implements srm.Observer; Round carries the request
// rounds spent before giving up.
func (r *Recorder) RequestAbandoned(host, source topology.NodeID, seq int, rounds int) {
	r.emit(Event{Kind: EventRequestAbandoned, At: r.clock(), Host: host, Source: source, Seq: seq, Round: rounds})
}
