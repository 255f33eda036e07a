package main

import (
	"encoding/json"
	"io"
	"time"

	"cesrm/internal/netsim"
	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

// The tracer times layer boundaries from outside the program: the
// wrappers below sit on the interfaces the layers already exchange
// (sim.Sched, netsim.Endpoint, netsim.Host, srm.Observer) and record a
// span around every call that crosses one. A layer's self time is its
// span minus the part its child spans cover.

// spanName indexes tracer.names.
type spanName int32

// span is one timed interval. Spans of one top-level event (a delivery,
// a timer firing, a transmission) share Event; Parent is the index of
// the enclosing span in the same run's buffer, -1 for the top-level one.
type span struct {
	Name   spanName
	Parent int32
	Event  uint64
	// Weight is how many top-level events this span's event stands for:
	// the sampling period for a sampled event, 1 for an always-timed one.
	Weight     int64
	Start, End int64 // nanoseconds on the tracer's clock
}

// nameTotals accumulates one span name over every folded run.
type nameTotals struct {
	// Calls counts every call, timed or not.
	Calls uint64
	// Timed counts the calls that were timed; SelfNS and TotalNS are the
	// weighted exclusive and inclusive nanoseconds of those calls, so
	// they estimate the totals over all calls.
	Timed   uint64
	SelfNS  int64
	TotalNS int64
	// WeightSum is the weighted number of timed calls, the denominator
	// of the mean inclusive time per call.
	WeightSum int64
}

// burst is how many consecutive top-level events are timed at a stretch.
// Timing in stretches keeps the tracer's own code and buffers in cache
// while it works, so a timed span costs what the empty span timed at the
// end of the stretch says it costs.
const burst = 32

// spanBufferLen is the span count at which the buffer is folded.
const spanBufferLen = 1 << 14

// calSamples is how many of the latest in-place calibration samples the
// overhead medians are taken over.
const calSamples = 512

// calibrationSpan is the reserved name of the empty spans the tracer
// times to learn its own cost.
const calibrationSpan spanName = 0

// tracer records spans into memory. To bound overhead it times one
// top-level event in every, with all of its children, and only counts
// the rest. The timed events come in bursts whose spacing is drawn from
// a fixed-seed generator: deterministic, so two traced runs time the
// same events, but not periodic, because a flood delivers to every host
// in a row and a fixed stride would always land on the same hosts. It is
// single-goroutine, like the engine.
type tracer struct {
	now   func() int64
	every uint64
	names []string

	// gap counts down the top-level events to skip before the next burst,
	// left the events of the burst still to time.
	gap, left uint64
	rng       uint64
	depth     int  // open begin calls, timed or not
	timing    bool // the current top-level event is being timed
	weight    int64
	eventID   uint64
	open      []int32 // indices of open timed spans, innermost last
	spans     []span  // timed spans of the run in progress
	totals    []nameTotals
	topLevel  int64 // weighted inclusive ns of top-level spans, all runs

	// clockNS is what one timed span adds to its own measured duration
	// (about one clock read) and spanNS what it adds to the wall clock in
	// all (both reads plus the bookkeeping); fold subtracts them so a
	// layer is not charged for being observed. Both are medians of empty
	// spans timed in place, one after every burst, where the caches are
	// in the state the real spans found them in: a loop run up front
	// measures a tracer that is hotter than it ever is between events.
	clockNS, spanNS int64
	calClock        [calSamples]int64 // measured durations of the empty spans
	calSpan         [calSamples]int64 // wall-clock cost around them
	calN            int
	calibrating     bool
	overheadNS      int64   // what timing cost in all: spans, calibration, folds
	childNS         []int64 // fold's scratch, reused

	// out, when non-nil, receives every folded span as one JSON line;
	// foldErr keeps the first write error of a mid-run fold.
	out     *json.Encoder
	foldErr error
}

// newTracer returns a tracer that times every every-th top-level event
// on the wall clock.
func newTracer(every uint64, spansOut io.Writer) *tracer {
	epoch := time.Now()
	t := &tracer{
		now:   func() int64 { return int64(time.Since(epoch)) },
		every: every,
	}
	t.name("tracing.calibration")
	if spansOut != nil {
		t.out = json.NewEncoder(spansOut)
	}
	return t
}

// name registers a span name and returns its index.
func (t *tracer) name(s string) spanName {
	t.names = append(t.names, s)
	t.totals = append(t.totals, nameTotals{})
	return spanName(len(t.names) - 1)
}

// begin opens a span and returns a token for end. A call made while no
// span is open starts a top-level event; always forces that event to be
// timed (for rare spans, which sampling would mostly miss).
func (t *tracer) begin(n spanName, always bool) int32 {
	t.totals[n].Calls++
	t.depth++
	if t.depth == 1 {
		t.eventID++
		switch {
		case always:
			t.timing, t.weight = true, 1
		default:
			t.timing, t.weight = t.sampled(), int64(t.every)
		}
	}
	if !t.timing {
		return -1
	}
	parent := int32(-1)
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: n, Parent: parent, Event: t.eventID, Weight: t.weight})
	t.open = append(t.open, idx)
	// The clock is read last here and first in end, so the bookkeeping
	// falls outside the span's own window.
	t.spans[idx].Start = t.now()
	return idx
}

// sampled decides whether the next top-level event is timed: a gap of
// untimed events drawn uniformly from 0 to twice the mean, then a burst
// of timed ones, so that on average one event in every is timed.
func (t *tracer) sampled() bool {
	if t.every <= 1 {
		return true
	}
	if t.gap == 0 && t.left == 0 {
		// xorshift64; any fixed non-zero seed will do.
		if t.rng == 0 {
			t.rng = 0x9E3779B97F4A7C15
		}
		t.rng ^= t.rng << 13
		t.rng ^= t.rng >> 7
		t.rng ^= t.rng << 17
		t.gap = t.rng % (2*(t.every-1)*burst + 1)
		t.left = burst
	}
	if t.gap > 0 {
		t.gap--
		return false
	}
	t.left--
	return true
}

// end closes the span begin returned tok for.
func (t *tracer) end(tok int32) {
	if tok >= 0 {
		t.spans[tok].End = t.now()
		t.open = t.open[:len(t.open)-1]
	}
	t.depth--
	if t.depth > 0 {
		return
	}
	if t.calibrating {
		return
	}
	if tok >= 0 && t.left == 0 {
		// A burst just ended: time one empty span where the real ones ran,
		// note what it measured of itself and what it cost in all, and take
		// it back out of the buffer.
		t.calibrating = true
		before := t.now()
		c := t.begin(calibrationSpan, true)
		t.end(c)
		cost := t.now() - before
		t.calClock[t.calN%calSamples] = t.spans[c].End - t.spans[c].Start
		t.calSpan[t.calN%calSamples] = cost
		t.calN++
		t.spans = t.spans[:c]
		t.overheadNS += cost
		t.calibrating = false
	}
	// Folding whenever the buffer fills, between events, keeps it small
	// enough to stay in cache and never grow mid-run.
	if len(t.spans) >= spanBufferLen {
		started := t.now()
		t.foldErr = t.fold()
		t.overheadNS += t.now() - started
	}
}

// fold accounts the finished run's spans into the per-name totals,
// writes them out when a span writer is installed, and empties the
// buffer for the next run.
func (t *tracer) fold() error {
	if t.foldErr != nil {
		return t.foldErr
	}
	if n := min(t.calN, calSamples); n > 0 {
		t.clockNS = medianInt(t.calClock[:n])
		t.spanNS = max(medianInt(t.calSpan[:n])-t.clockNS, t.clockNS)
	}
	// A span's measured duration holds its own clock read, the measured
	// durations of its direct children, and what each child cost outside
	// its own window; its inclusive time holds every descendant's whole
	// cost. Children follow their parents in the buffer, so one reverse
	// pass collects both.
	k := len(t.spans)
	if cap(t.childNS) < 3*k {
		t.childNS = make([]int64, 3*cap(t.spans))
	}
	scratch := t.childNS[:3*k]
	for i := range scratch {
		scratch[i] = 0
	}
	childNS, children, descendants := scratch[:k], scratch[k:2*k], scratch[2*k:]
	for i := len(t.spans) - 1; i >= 0; i-- {
		if p := t.spans[i].Parent; p >= 0 {
			childNS[p] += t.spans[i].End - t.spans[i].Start
			children[p]++
			descendants[p] += descendants[i] + 1
		}
	}
	clamp := func(ns int64) int64 {
		if ns < 0 {
			return 0
		}
		return ns
	}
	for i, s := range t.spans {
		d := s.End - s.Start
		total := clamp(d - t.clockNS - descendants[i]*t.spanNS)
		self := clamp(d - t.clockNS - childNS[i] - children[i]*(t.spanNS-t.clockNS))
		tot := &t.totals[s.Name]
		tot.Timed++
		tot.WeightSum += s.Weight
		tot.TotalNS += s.Weight * total
		tot.SelfNS += s.Weight * self
		if s.Parent < 0 {
			t.topLevel += s.Weight * total
		}
		if t.out != nil {
			rec := struct {
				Name   string `json:"name"`
				Event  uint64 `json:"event"`
				Index  int    `json:"index"`
				Parent int32  `json:"parent"`
				Weight int64  `json:"weight"`
				Start  int64  `json:"start_ns"`
				End    int64  `json:"end_ns"`
			}{t.names[s.Name], s.Event, i, s.Parent, s.Weight, s.Start, s.End}
			if err := t.out.Encode(rec); err != nil {
				return err
			}
		}
	}
	t.overheadNS += int64(len(t.spans)) * t.spanNS
	t.spans = t.spans[:0]
	return nil
}

func medianInt(v []int64) int64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return int64(median(f))
}

// calls, selfSeconds and nsPerCall read one name's folded totals.
func (t *tracer) calls(n spanName) float64 { return float64(t.totals[n].Calls) }

func (t *tracer) selfSeconds(n spanName) float64 { return float64(t.totals[n].SelfNS) / 1e9 }

func (t *tracer) nsPerCall(n spanName) float64 {
	tot := t.totals[n]
	if tot.WeightSum == 0 {
		return 0
	}
	return float64(tot.TotalNS) / float64(tot.WeightSum)
}

// selfTotal is the estimated seconds spent inside any span.
func (t *tracer) selfTotal() float64 {
	var ns int64
	for _, tot := range t.totals {
		ns += tot.SelfNS
	}
	return float64(ns) / 1e9
}

// deliverKinds indexes the per-message-type delivery span names.
const (
	kindData = iota
	kindSession
	kindRequest
	kindExpRequest
	kindReply
	numDeliverKinds
)

// layerNames holds the span names the wrappers use for one protocol's
// runs.
type layerNames struct {
	deliver   [numDeliverKinds]spanName
	timerFire spanName
	schedule  spanName
	cancel    spanName
	multicast spanName
	unicast   spanName
	observer  spanName
	transmit  spanName
	monitor   spanName
}

// tracedSched wraps the scheduling surface an agent holds. Scheduling
// and cancelling are spans of the sim layer; the event or handler handed
// in is wrapped so its firing is a top-level span of the agent layer.
type tracedSched struct {
	t     *tracer
	n     *layerNames
	inner sim.Sched
}

func (s *tracedSched) Now() sim.Time { return s.inner.Now() }

func (s *tracedSched) Schedule(delay sim.Duration, fn sim.Event) sim.Timer {
	tok := s.t.begin(s.n.schedule, false)
	timer := s.inner.Schedule(delay, func(now sim.Time) {
		tok := s.t.begin(s.n.timerFire, false)
		fn(now)
		s.t.end(tok)
	})
	s.t.end(tok)
	return timer
}

func (s *tracedSched) ScheduleHandler(delay sim.Duration, h sim.EventHandler) sim.Timer {
	tok := s.t.begin(s.n.schedule, false)
	timer := s.inner.ScheduleHandler(delay, &tracedHandler{s, h})
	s.t.end(tok)
	return timer
}

func (s *tracedSched) Cancel(timer sim.Timer) {
	tok := s.t.begin(s.n.cancel, false)
	s.inner.Cancel(timer)
	s.t.end(tok)
}

// tracedHandler is the closure-free counterpart of the event wrapper in
// tracedSched.Schedule.
type tracedHandler struct {
	s *tracedSched
	h sim.EventHandler
}

func (h *tracedHandler) Fire(now sim.Time) {
	tok := h.s.t.begin(h.s.n.timerFire, false)
	h.h.Fire(now)
	h.s.t.end(tok)
}

// tracedEndpoint wraps the network surface an agent holds: sends are
// spans of the netsim layer (the fast flood schedules its whole fan-out
// inside the call), and AttachHost registers a traced host so deliveries
// are spans of the agent layer.
type tracedEndpoint struct {
	t     *tracer
	n     *layerNames
	inner netsim.Endpoint
}

func (e *tracedEndpoint) Tree() *topology.Tree { return e.inner.Tree() }

func (e *tracedEndpoint) RTT(a, b topology.NodeID) time.Duration { return e.inner.RTT(a, b) }

func (e *tracedEndpoint) AttachHost(id topology.NodeID, h netsim.Host) {
	e.inner.AttachHost(id, &tracedHost{e.t, e.n, h})
}

func (e *tracedEndpoint) Multicast(from topology.NodeID, p *netsim.Packet) {
	tok := e.t.begin(e.n.multicast, false)
	e.inner.Multicast(from, p)
	e.t.end(tok)
}

func (e *tracedEndpoint) Unicast(from, to topology.NodeID, p *netsim.Packet) {
	tok := e.t.begin(e.n.unicast, false)
	e.inner.Unicast(from, to, p)
	e.t.end(tok)
}

func (e *tracedEndpoint) UnicastThenSubcast(from, via topology.NodeID, p *netsim.Packet) {
	tok := e.t.begin(e.n.unicast, false)
	e.inner.UnicastThenSubcast(from, via, p)
	e.t.end(tok)
}

// tracedHost times one agent's deliveries, keyed on the message type.
type tracedHost struct {
	t     *tracer
	n     *layerNames
	inner netsim.Host
}

func (h *tracedHost) Deliver(now sim.Time, p *netsim.Packet) {
	kind := kindData
	switch m := p.Msg.(type) {
	case *srm.SessionMsg:
		kind = kindSession
	case *srm.RequestMsg:
		kind = kindRequest
		if m.Expedited {
			kind = kindExpRequest
		}
	case *srm.ReplyMsg:
		kind = kindReply
	}
	tok := h.t.begin(h.n.deliver[kind], false)
	h.inner.Deliver(now, p)
	h.t.end(tok)
}

// tracedObserver times the stats layer: every protocol event an agent
// reports passes through here on its way to the collector, validator and
// recorder.
type tracedObserver struct {
	t     *tracer
	n     *layerNames
	inner srm.Observer
}

func (o *tracedObserver) LossDetected(host, source topology.NodeID, seq int, at sim.Time) {
	tok := o.t.begin(o.n.observer, false)
	o.inner.LossDetected(host, source, seq, at)
	o.t.end(tok)
}

func (o *tracedObserver) Recovered(host, source topology.NodeID, seq int, at sim.Time, info srm.RecoveryInfo) {
	tok := o.t.begin(o.n.observer, false)
	o.inner.Recovered(host, source, seq, at, info)
	o.t.end(tok)
}

func (o *tracedObserver) RequestSent(host, source topology.NodeID, seq int, round int) {
	tok := o.t.begin(o.n.observer, false)
	o.inner.RequestSent(host, source, seq, round)
	o.t.end(tok)
}

func (o *tracedObserver) ExpRequestSent(host, source topology.NodeID, seq int) {
	tok := o.t.begin(o.n.observer, false)
	o.inner.ExpRequestSent(host, source, seq)
	o.t.end(tok)
}

func (o *tracedObserver) ReplySent(host, source topology.NodeID, seq int, expedited bool) {
	tok := o.t.begin(o.n.observer, false)
	o.inner.ReplySent(host, source, seq, expedited)
	o.t.end(tok)
}

func (o *tracedObserver) SessionSent(host topology.NodeID) {
	tok := o.t.begin(o.n.observer, false)
	o.inner.SessionSent(host)
	o.t.end(tok)
}

func (o *tracedObserver) RequestAbandoned(host, source topology.NodeID, seq int, rounds int) {
	tok := o.t.begin(o.n.observer, false)
	o.inner.RequestAbandoned(host, source, seq, rounds)
	o.t.end(tok)
}
