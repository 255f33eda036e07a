package wire

import (
	"time"

	"cesrm/internal/sim"
)

// Driver slaves a deterministic sim.Engine to the wall clock. The
// engine stays the agents' sim.Sched — timers, generations, Active()
// all behave exactly as in simulation — while the driver advances
// virtual time to track elapsed wall time and folds inbound datagrams
// into the event stream.
//
// The delivery discipline is what makes a live run replayable. For each
// inbound datagram with wall-stamp w:
//
//	at := max(simTime(w), eng.Now())   // arrivals never go backwards
//	eng.RunUntil(at)                   // older events fire first
//	eng.ScheduleHandlerAt(at, handler) // arrival joins the stream
//	eng.RunUntil(at)                   // ... and fires, with cascades
//
// Replay performs the identical sequence per captured arrival (both call
// arrival.foldIn), so both executions assign the same (instant,
// sequence) pair to every event — the engine's dispatch order, and hence
// the agent's behavior, is byte-for-byte reproducible from the capture
// alone.
type Driver struct {
	eng   *sim.Engine
	epoch time.Time
	// arrival consumes one datagram at its clamped arrival instant, on
	// the driver goroutine, inside an engine event.
	arrival arrival[[]byte]

	in   chan inbound
	stop chan struct{}
}

type inbound struct {
	stamp time.Time
	data  []byte
}

// arrival is the engine event every inbound datagram arrives through:
// one reusable handler, not one closure per datagram. That is sound
// because at most one arrival is ever in flight — foldIn schedules the
// handler at an instant the engine has already run up to, and the
// RunUntil that follows fires it before foldIn returns, so v is free to
// be overwritten by the next datagram. T is what arrives: the datagram's
// bytes in the live Driver, the decoded packet in Replay.
type arrival[T any] struct {
	deliver func(now sim.Time, v T)
	v       T
}

// Fire implements sim.EventHandler.
func (a *arrival[T]) Fire(now sim.Time) { a.deliver(now, a.v) }

// foldIn folds one arrival into eng's event stream at instant at, which
// must not be before eng.Now(), per the discipline described on Driver.
// It delivers nothing once the engine has stopped.
func (a *arrival[T]) foldIn(eng *sim.Engine, at sim.Time, v T) {
	if eng.Stopped() {
		return
	}
	eng.RunUntil(at)
	if eng.Stopped() {
		return
	}
	a.v = v
	eng.ScheduleHandlerAt(at, a)
	eng.RunUntil(at)
}

// NewDriver wraps eng. deliver is invoked from inside engine events.
func NewDriver(eng *sim.Engine, deliver func(now sim.Time, data []byte)) *Driver {
	return &Driver{
		eng:     eng,
		arrival: arrival[[]byte]{deliver: deliver},
		in:      make(chan inbound, 1024),
		stop:    make(chan struct{}),
	}
}

// Inject queues one received datagram, stamped with its arrival wall
// time. Safe for concurrent use by reader goroutines; data must not be
// reused by the caller afterwards. Datagrams queued after Halt, or past
// a full queue while the run is winding down, are dropped — UDP
// semantics already permit loss.
func (d *Driver) Inject(stamp time.Time, data []byte) {
	select {
	case d.in <- inbound{stamp: stamp, data: data}:
	case <-d.stop:
	}
}

// Halt asks a running Run loop to return after the event in progress.
// It does not stop the engine: an external halt (signal, context) is
// not part of the deterministic event stream; the capture footer simply
// ends earlier.
func (d *Driver) Halt() {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
}

// simTime maps a wall instant to virtual time.
func (d *Driver) simTime(w time.Time) sim.Time {
	return sim.Time(0).Add(w.Sub(d.epoch))
}

// Run drives the engine until it stops itself (session shutdown or
// MaxRunTime) or Halt is called, and returns the final virtual time.
// Virtual time zero is the moment Run is entered.
func (d *Driver) Run() sim.Time {
	d.epoch = time.Now()
	// One timer for the whole run, re-armed per sleep. It is kept stopped
	// with its channel drained whenever it is not being waited on, which
	// is what Reset requires of timers at this module's Go version.
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for {
		// Drain queued datagrams first, one at a time, so arrivals are
		// folded in at (or as near as the backlog allows to) their
		// stamped instants.
		select {
		case pkt := <-d.in:
			d.handle(pkt)
			continue
		default:
		}
		if d.eng.Stopped() {
			return d.eng.Now()
		}
		// Catch the engine up to the wall clock, then sleep until the
		// next virtual deadline or the next datagram.
		d.eng.RunUntil(d.simTime(time.Now()))
		if d.eng.Stopped() {
			return d.eng.Now()
		}
		var timerC <-chan time.Time
		if at, ok := d.eng.NextEventAt(); ok {
			timer.Reset(max(0, at.Sub(d.simTime(time.Now()))))
			timerC = timer.C
		}
		select {
		case pkt := <-d.in:
			if timerC != nil && !timer.Stop() {
				<-timer.C
			}
			d.handle(pkt)
		case <-timerC:
		case <-d.stop:
			return d.eng.Now()
		}
	}
}

// handle folds one datagram into the event stream per the discipline
// described on Driver.
func (d *Driver) handle(pkt inbound) {
	d.arrival.foldIn(d.eng, max(d.simTime(pkt.stamp), d.eng.Now()), pkt.data)
}
