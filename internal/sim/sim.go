// Package sim provides a deterministic discrete-event simulation engine
// with a virtual clock.
//
// The engine is intentionally single-threaded: all events execute on the
// caller's goroutine in strict virtual-time order, with FIFO ordering for
// events scheduled at the same instant. Determinism is a hard requirement
// for the trace-driven protocol experiments built on top of this package,
// so no wall-clock time or global randomness is consulted anywhere.
//
// The event queue is a hierarchical timer wheel (see DESIGN.md for the
// geometry and the ordering argument): scheduling and cancellation are
// O(1), and the per-event dispatch cost is a small constant plus an
// amortized share of one sort of the event's final same-tick bucket.
// This replaces the earlier binary heap, whose O(log n) churn dominated
// full-scale runs — SRM's suppression machinery schedules and cancels
// timers for every loss on every host, and the transmission schedule
// keeps hundreds of thousands of far-future events resident.
//
// The engine is also allocation-lean: scheduled-event records are
// recycled through a free list (guarded by a generation counter so a
// stale Timer can never cancel a recycled event), hot callers can
// schedule a reusable EventHandler instead of a closure to avoid the
// per-event capture allocation, and a series (a data train, a flood's
// hop cohorts) keeps n back-to-back events in one self-re-arming record.
package sim

import (
	"math/bits"
	"sort"
	"time"
)

// Time is an instant of virtual time, measured as an offset from the
// start of the simulation. The zero Time is the simulation start.
type Time time.Duration

// Duration is re-exported so that callers of this package can express
// virtual-time arithmetic without importing package time everywhere.
type Duration = time.Duration

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the time as a floating-point number of seconds since
// the simulation start.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// String formats the instant using time.Duration notation.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback. Handlers run in virtual-time order.
type Event func(now Time)

// Fire implements EventHandler, so the engine keeps one record kind for
// every one-shot event. A func value fits in an interface's data word:
// the conversion allocates nothing.
func (f Event) Fire(now Time) { f(now) }

// EventHandler is the closure-free scheduling surface: an object whose
// Fire method runs when its instant arrives. Hot paths that would
// otherwise capture state into a fresh closure per event (packet
// deliveries, per-hop forwarding) implement EventHandler on a pooled
// struct and schedule it with ScheduleHandlerAt, eliminating the
// per-event allocation entirely.
type EventHandler interface {
	// Fire runs the event at virtual time now.
	Fire(now Time)
}

// Sched is the scheduling surface protocol agents hold: the engine, or
// a wrapper around it (the benchmark's span tracer is one).
type Sched interface {
	// Now returns the current virtual time.
	Now() Time
	// Schedule registers fn to run after delay (negative delays clamp to
	// zero).
	Schedule(delay Duration, fn Event) Timer
	// ScheduleHandler registers h.Fire to run after delay, the
	// closure-free variant of Schedule.
	ScheduleHandler(delay Duration, h EventHandler) Timer
	// Cancel deactivates a timer; inert on fired, cancelled or stale
	// handles.
	Cancel(t Timer)
}

// Timer wheel geometry. A tick is 2^tickBits nanoseconds of virtual
// time (~1.05ms); each level has 2^levelBits buckets, and level L
// buckets span 64^L ticks. Four levels cover deltas up to 64^4 ticks
// (~4.9 hours of virtual time) before the overflow list is needed —
// comfortably past the longest full-scale trace horizon, so overflow is
// effectively never exercised by the experiments.
const (
	tickBits   = 20
	levelBits  = 6
	numLevels  = 4
	numBuckets = 1 << levelBits
	levelMask  = numBuckets - 1
)

// evList list identities beyond the wheel buckets (evList.level).
const (
	dueLevel      = -1
	overflowLevel = -2
)

// scheduledEvent is an entry in the event queue. Records are pooled:
// after firing or being cancelled the record returns to the engine's
// free list and its generation is bumped, so Timers referring to the
// previous occupancy become permanently inert. While scheduled, the
// record is linked into exactly one intrusive list — a wheel bucket,
// the overflow list, or the sorted due list — which is what makes
// cancellation an O(1) unlink.
type scheduledEvent struct {
	at  Time
	seq uint64       // tie-breaker: FIFO among events at the same instant
	h   EventHandler // non-nil exactly when series is nil
	// series is non-nil for a series' single record (ScheduleSeries),
	// which Step re-arms until the last of its firings.
	series          SeriesHandler
	firing, firings int
	// gen counts how many times this record has been recycled. A Timer
	// captures the generation at scheduling time; any mismatch means the
	// record now belongs to a different event.
	gen uint64

	prev, next *scheduledEvent
	in         *evList // the list currently holding the record, nil when free
}

// evList is an intrusive doubly-linked event list: a wheel bucket, the
// overflow list, or the due list. Buckets carry their (level, idx) so
// unlinking the last event can clear the occupancy bitmap bit.
type evList struct {
	head, tail *scheduledEvent
	level      int8 // 0..numLevels-1 for buckets, dueLevel, or overflowLevel
	idx        int8 // bucket index within the level (buckets only)
}

// Engine drives a single simulation run. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now     Time
	nextSeq uint64
	stopped bool
	// executed counts events that have been dispatched, for diagnostics
	// and run-away detection in tests, cascaded records cascades re-filed.
	executed, cascaded uint64

	// budget holds the optional guardrails (see Budget); budgetOn caches
	// whether any bound is armed so the disabled case costs one branch
	// per Step. status records how an armed budget ended the run.
	budget   Budget
	budgetOn bool
	status   TerminationStatus
	// stallRun counts consecutive dispatched events that did not advance
	// the clock — the progress watchdog's counter. Maintained only while
	// a budget is armed.
	stallRun uint64

	// cur is the wheel cursor tick. Invariant between operations: every
	// event in the wheel levels has tick > cur (events at tick <= cur
	// live in the due list), and every event in overflow has
	// tick-cur >= 64^numLevels as of its last placement.
	cur      uint64
	levels   [numLevels][numBuckets]evList
	occupied [numLevels]uint64 // per-level bucket-occupancy bitmaps

	// overflow holds events beyond the wheel horizon; it is rescanned
	// whenever cur crosses a 64^numLevels boundary.
	overflow evList

	// due is the dispatch staging list: all live events with
	// tick <= cur, kept sorted by (at, seq). Step pops its head.
	due evList

	// live is the number of scheduled, uncancelled events anywhere in
	// the structure — Pending() in O(1).
	live int

	// free holds recycled event records. Its length is bounded by the
	// peak live event count, so steady-state scheduling allocates
	// nothing.
	free []*scheduledEvent

	// scratch and sorter are reused by bucket drains so that sorting a
	// tick's events allocates nothing in steady state.
	scratch []*scheduledEvent
	sorter  evSorter
}

// evSorter sorts a drained bucket by (at, seq). It lives in the Engine
// so the sort.Interface conversion never allocates.
type evSorter struct{ s []*scheduledEvent }

func (v *evSorter) Len() int      { return len(v.s) }
func (v *evSorter) Swap(i, j int) { v.s[i], v.s[j] = v.s[j], v.s[i] }
func (v *evSorter) Less(i, j int) bool {
	if v.s[i].at != v.s[j].at {
		return v.s[i].at < v.s[j].at
	}
	return v.s[i].seq < v.s[j].seq
}

// NewEngine returns an engine positioned at virtual time zero with an
// empty event queue.
func NewEngine() *Engine {
	e := &Engine{}
	for l := 0; l < numLevels; l++ {
		for i := 0; i < numBuckets; i++ {
			b := &e.levels[l][i]
			b.level = int8(l)
			b.idx = int8(i)
		}
	}
	e.due.level = dueLevel
	e.overflow.level = overflowLevel
	return e
}

// Now returns the current virtual time. During event execution this is
// the instant the executing event was scheduled for.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events dispatched so far.
func (e *Engine) Executed() uint64 { return e.executed }

// NextSeq returns the FIFO sequence number the next scheduling call will
// take. Two equal readings mean nothing was scheduled in between, so
// events scheduled on either side of them for one instant fire back to
// back (a train reserves its numbers when scheduled; Cancel takes none).
func (e *Engine) NextSeq() uint64 { return e.nextSeq }

// Pending returns the number of live (non-cancelled) scheduled events.
// A series counts once, however many of its firings remain.
func (e *Engine) Pending() int { return e.live }

// Timer identifies a scheduled event and allows cancelling it before it
// fires. The zero Timer is invalid. A Timer pins the (record, generation)
// pair it was issued for: once the event fires or is cancelled the
// record's generation is bumped, so the Timer is inert — it can neither
// cancel nor observe the record's next occupant.
type Timer struct {
	ev  *scheduledEvent
	gen uint64
	// at is the scheduled instant, carried in the handle so that At never
	// reads the record's mutable field, which a recycled record's next
	// occupant rewrites.
	at Time
}

// Active reports whether the timer is scheduled and has neither fired
// nor been cancelled.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen
}

// At returns the instant the timer is scheduled to fire. The second
// result is false — and the instant zero — when the timer is not Active:
// never scheduled, already fired, or cancelled. (It used to return the
// stale scheduled instant of a fired or cancelled timer, which let
// callers reason about timers that no longer existed.)
func (t Timer) At() (Time, bool) {
	if !t.Active() {
		return 0, false
	}
	return t.at, true
}

// alloc takes a recycled record from the free list (or allocates a fresh
// one), stamps it with the next FIFO sequence number, counts it live, and
// validates the instant. Scheduling in the past panics: it would silently
// reorder causality, which is always a bug in the protocol layers above.
func (e *Engine) alloc(at Time) *scheduledEvent {
	if at < e.now {
		panic(&PastScheduleError{At: at, Now: e.now})
	}
	var ev *scheduledEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &scheduledEvent{}
	}
	ev.at = at
	ev.seq = e.nextSeq
	e.nextSeq++
	e.live++
	return ev
}

// release recycles a record that has been unlinked (fired or cancelled).
// Bumping the generation first makes every outstanding Timer for the old
// occupancy inert before the record can be handed out again.
func (e *Engine) release(ev *scheduledEvent) {
	ev.gen++
	ev.h = nil
	ev.series, ev.firing, ev.firings = nil, 0, 0
	e.free = append(e.free, ev)
}

// pushBack appends ev to l, setting the occupancy bit for buckets.
func (e *Engine) pushBack(l *evList, ev *scheduledEvent) {
	ev.prev = l.tail
	ev.next = nil
	ev.in = l
	if l.tail != nil {
		l.tail.next = ev
	} else {
		l.head = ev
	}
	l.tail = ev
	if l.level >= 0 {
		e.occupied[l.level] |= 1 << uint(l.idx)
	}
}

// unlink removes ev from its current list, clearing the occupancy bit
// when a bucket empties.
func (e *Engine) unlink(ev *scheduledEvent) {
	l := ev.in
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		l.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		l.tail = ev.prev
	}
	ev.prev, ev.next, ev.in = nil, nil, nil
	if l.head == nil && l.level >= 0 {
		e.occupied[l.level] &^= 1 << uint(l.idx)
	}
}

// place files a newly scheduled event. Events at or before the cursor
// tick merge into the sorted due list (this happens when handlers
// schedule within the tick being dispatched, or when RunUntil/peek
// advanced the cursor past Now); later events go to the wheel level
// whose span covers their delta, or to overflow beyond the horizon.
func (e *Engine) place(ev *scheduledEvent) {
	tick := uint64(ev.at) >> tickBits
	if tick <= e.cur {
		e.dueInsert(ev)
		return
	}
	e.placeWheel(ev, tick)
}

// placeWheel files an event with tick >= cur into the wheel proper.
// Cascades use it directly (never the due list) so that a bucket drain
// remains the only operation that fills due — see the ordering argument
// in DESIGN.md.
func (e *Engine) placeWheel(ev *scheduledEvent, tick uint64) {
	switch delta := tick - e.cur; {
	case delta < 1<<levelBits:
		e.pushBack(&e.levels[0][tick&levelMask], ev)
	case delta < 1<<(2*levelBits):
		e.pushBack(&e.levels[1][(tick>>levelBits)&levelMask], ev)
	case delta < 1<<(3*levelBits):
		e.pushBack(&e.levels[2][(tick>>(2*levelBits))&levelMask], ev)
	case delta < 1<<(4*levelBits):
		e.pushBack(&e.levels[3][(tick>>(3*levelBits))&levelMask], ev)
	default:
		e.pushBack(&e.overflow, ev)
	}
}

// dueInsert merges ev into the sorted due list by (at, seq), scanning
// from the tail: fresh schedules carry the highest seq so they land at
// or near the tail.
func (e *Engine) dueInsert(ev *scheduledEvent) {
	pos := e.due.tail
	for pos != nil && (pos.at > ev.at || (pos.at == ev.at && pos.seq > ev.seq)) {
		pos = pos.prev
	}
	ev.in = &e.due
	ev.prev = pos
	if pos != nil {
		ev.next = pos.next
		pos.next = ev
	} else {
		ev.next = e.due.head
		e.due.head = ev
	}
	if ev.next != nil {
		ev.next.prev = ev
	} else {
		e.due.tail = ev
	}
}

// ensureDue makes the due list non-empty if any live event exists,
// advancing the wheel cursor to the next occupied tick (cascading
// higher levels at their window boundaries) and draining that tick's
// bucket, sorted by (at, seq), into due. Returns false when no live
// events remain.
func (e *Engine) ensureDue() bool {
	if e.due.head != nil {
		return true
	}
	if e.live == 0 {
		return false
	}
	for {
		// Search level 0 from the cursor to its rotation boundary. Bits
		// below idx0 belong to the next rotation and must not be taken
		// before the boundary cascade refills this level.
		idx0 := e.cur & levelMask
		if w := e.occupied[0] >> uint(idx0); w != 0 {
			d := uint64(bits.TrailingZeros64(w))
			e.cur += d
			e.drainBucket(int(idx0 + d))
			return true
		}
		// Nothing before the boundary: advance to it and cascade the
		// higher-level windows that open there.
		e.cur = (e.cur | levelMask) + 1
		e.cascade()
	}
}

// drainBucket empties level-0 bucket idx into the due list in (at, seq)
// order. A level-0 bucket holds events of exactly one tick (see
// DESIGN.md), so the sorted bucket is a contiguous run of the global
// dispatch order.
func (e *Engine) drainBucket(idx int) {
	l := &e.levels[0][idx]
	e.scratch = e.scratch[:0]
	for ev := l.head; ev != nil; {
		next := ev.next
		ev.prev, ev.next, ev.in = nil, nil, nil
		e.scratch = append(e.scratch, ev)
		ev = next
	}
	l.head, l.tail = nil, nil
	e.occupied[0] &^= 1 << uint(idx)
	if len(e.scratch) > 1 {
		e.sorter.s = e.scratch
		sort.Sort(&e.sorter)
	}
	for _, ev := range e.scratch {
		ev.in = &e.due
		ev.prev = e.due.tail
		if e.due.tail != nil {
			e.due.tail.next = ev
		} else {
			e.due.head = ev
		}
		e.due.tail = ev
	}
}

// cascade redistributes, at a level-0 rotation boundary, every
// higher-level bucket whose window opens at the new cursor, and rescans
// the overflow list when the cursor crosses the wheel horizon.
func (e *Engine) cascade() {
	for l := 1; l < numLevels; l++ {
		if e.cur&(1<<uint(levelBits*l)-1) != 0 {
			break
		}
		idx := (e.cur >> uint(levelBits*l)) & levelMask
		if e.occupied[l]&(1<<uint(idx)) != 0 {
			e.moveBucketDown(l, int(idx))
		}
	}
	if e.cur&(1<<uint(levelBits*numLevels)-1) == 0 {
		e.rescanOverflow()
	}
}

// moveBucketDown re-places every event of bucket (level, idx) into the
// lower levels. All its events have tick in [cur, cur+64^level), so
// they re-place strictly below the source level and never behind the
// cursor.
func (e *Engine) moveBucketDown(level, idx int) {
	l := &e.levels[level][idx]
	ev := l.head
	l.head, l.tail = nil, nil
	e.occupied[level] &^= 1 << uint(idx)
	for ev != nil {
		next := ev.next
		ev.prev, ev.next, ev.in = nil, nil, nil
		e.placeWheel(ev, uint64(ev.at)>>tickBits)
		e.cascaded++
		ev = next
	}
}

// rescanOverflow moves overflow events that now fall within the wheel
// horizon into their levels. Events still beyond the horizon are left
// in place.
func (e *Engine) rescanOverflow() {
	ev := e.overflow.head
	for ev != nil {
		next := ev.next
		tick := uint64(ev.at) >> tickBits
		if tick-e.cur < 1<<uint(levelBits*numLevels) {
			e.unlink(ev)
			e.placeWheel(ev, tick)
			e.cascaded++
		}
		ev = next
	}
}

// ScheduleAt registers fn to run at the given instant.
func (e *Engine) ScheduleAt(at Time, fn Event) Timer {
	if fn == nil {
		panic("sim: ScheduleAt called with nil event")
	}
	return e.ScheduleHandlerAt(at, fn)
}

// Schedule registers fn to run after delay. Negative delays are clamped
// to zero so that jitter arithmetic in callers cannot travel backwards
// in time.
func (e *Engine) Schedule(delay Duration, fn Event) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now.Add(delay), fn)
}

// ScheduleHandlerAt registers h.Fire to run at the given instant. It is
// the allocation-free counterpart of ScheduleAt: h is typically a pooled
// struct owned by the caller, so no closure is captured.
func (e *Engine) ScheduleHandlerAt(at Time, h EventHandler) Timer {
	if h == nil {
		panic("sim: ScheduleHandlerAt called with nil handler")
	}
	ev := e.alloc(at)
	ev.h = h
	e.place(ev)
	return Timer{ev: ev, gen: ev.gen, at: at}
}

// ScheduleHandler registers h.Fire to run after delay, clamping negative
// delays to zero like Schedule.
func (e *Engine) ScheduleHandler(delay Duration, h EventHandler) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleHandlerAt(e.now.Add(delay), h)
}

// SeriesHandler runs the firings of a series (see ScheduleSeries).
type SeriesHandler interface {
	// At returns the instant of firing i, 0 < i < n. The engine asks just
	// before firing i-1 runs, and the instant must not precede it.
	At(i int) Time
	// Fire runs firing i at virtual time now.
	Fire(i int, now Time)
}

// ScheduleSeries registers h to fire n times, firing 0 at start and
// firing i at h.At(i), instants that must not decrease. It dispatches
// exactly as n ScheduleHandlerAt calls made here would: their n FIFO
// sequence numbers are reserved now. But it keeps one record, which
// before firing i runs is filed again for firing i+1 under its reserved
// number; that key exceeds firing i's, so it is filed before its turn. A
// series cannot be cancelled and counts as one pending event.
func (e *Engine) ScheduleSeries(start Time, n int, h SeriesHandler) {
	if h == nil {
		panic("sim: ScheduleSeries called with nil handler")
	}
	if n <= 0 {
		return
	}
	ev := e.alloc(start)
	e.nextSeq += uint64(n - 1)
	ev.series, ev.firing, ev.firings = h, 0, n
	e.place(ev)
}

// train is ScheduleTrain's series: firing i at start + i*period.
type train struct {
	fn     func(i int, now Time)
	start  Time
	period Duration
}

func (t *train) At(i int) Time        { return t.start.Add(Duration(i) * t.period) }
func (t *train) Fire(i int, now Time) { t.fn(i, now) }

// ScheduleTrain registers fn to run n times, firing i at
// start + i*period with argument i: a series (ScheduleSeries) whose
// period must be positive.
func (e *Engine) ScheduleTrain(start Time, period Duration, n int, fn func(i int, now Time)) {
	if fn == nil {
		panic("sim: ScheduleTrain called with nil event")
	}
	if period <= 0 {
		panic("sim: ScheduleTrain called with non-positive period")
	}
	e.ScheduleSeries(start, n, &train{fn: fn, start: start, period: period})
}

// Cancel deactivates the timer: the record is unlinked from its list in
// place and recycled immediately — O(1), no dead entries to skip or
// compact later. Cancelling an already-fired or already-cancelled timer
// is a no-op, so callers can cancel defensively; a timer whose record
// has been recycled for a newer event is likewise a no-op (the
// generation check), so stale handles cannot kill live events.
func (e *Engine) Cancel(t Timer) {
	if t.ev == nil || t.ev.gen != t.gen {
		return
	}
	// A matching generation implies the record is currently scheduled
	// (firing or cancelling bumps the generation), hence linked.
	e.unlink(t.ev)
	e.live--
	e.release(t.ev)
}

// Step executes the next pending event, advancing the clock to its
// instant. It returns false when the queue is exhausted, the engine has
// been stopped, or an armed Budget aborts the run (see Termination) —
// in the budget case the offending event stays queued and the clock
// does not move.
func (e *Engine) Step() bool {
	if e.stopped || !e.ensureDue() {
		return false
	}
	ev := e.due.head
	if e.budgetOn {
		if !e.admit(ev) {
			return false
		}
		if ev.at == e.now && e.executed > 0 {
			e.stallRun++
		} else {
			e.stallRun = 0
		}
	}
	e.unlink(ev)
	e.now = ev.at
	e.executed++
	h, s, i := ev.h, ev.series, ev.firing
	if ev.firing++; ev.firing < ev.firings {
		// A series files its next firing before this one runs.
		if ev.at = s.At(ev.firing); ev.at < e.now {
			panic(&PastScheduleError{At: ev.at, Now: e.now})
		}
		ev.seq++
		e.place(ev)
	} else {
		// Recycle before dispatch: the handler may schedule new events,
		// and reusing this record for them is exactly what the generation
		// guard makes safe.
		e.live--
		e.release(ev)
	}
	if s != nil {
		s.Fire(i, e.now)
	} else {
		h.Fire(e.now)
	}
	return true
}

// Run executes events until the queue drains or Stop is called. It
// returns the final virtual time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with instants not after the deadline. Events
// scheduled later remain queued. The clock finishes at the deadline
// unless Stop was called, in which case it stays at the instant of the
// last executed event — advancing a stopped engine past the stop point
// would let a later resume schedule "before" events that logically
// already happened.
func (e *Engine) RunUntil(deadline Time) Time {
	for !e.stopped {
		next, ok := e.peek()
		if !ok || next.After(deadline) {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now.Before(deadline) {
		e.now = deadline
	}
	return e.now
}

// Stop halts the run loop after the currently executing event returns.
// Remaining events are left in the queue.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// peek reports the instant of the next live event.
func (e *Engine) peek() (Time, bool) {
	if !e.ensureDue() {
		return 0, false
	}
	return e.due.head.at, true
}

// NextEventAt reports the instant of the earliest pending event without
// executing it, or false when no live events remain. Wall-clock drivers
// (internal/wire) use it to sleep exactly until the next virtual
// deadline instead of polling. Like Step it may advance the internal
// wheel cursor to stage the next tick's events; the observable dispatch
// order is unaffected.
func (e *Engine) NextEventAt() (Time, bool) { return e.peek() }
