package sim

import "fmt"

// TerminationStatus reports how a run ended. The zero value, Completed,
// covers every run the guardrails did not abort: the queue drained, or
// the caller stopped the engine on its own terms (RunUntil deadline,
// explicit Stop). Non-zero statuses are produced only by an armed
// Budget, so existing callers that never install one observe Completed
// always.
type TerminationStatus int

const (
	// Completed: the run was not aborted by a budget.
	Completed TerminationStatus = iota
	// DeadlineExceeded: the next event lay beyond Budget.MaxVirtualTime.
	DeadlineExceeded
	// EventBudgetExceeded: Budget.MaxEvents events had been dispatched.
	EventBudgetExceeded
	// PendingBudgetExceeded: the live event count exceeded
	// Budget.MaxPending (a scheduling explosion).
	PendingBudgetExceeded
	// Stalled: Budget.StallEvents consecutive events dispatched without
	// the virtual clock advancing (a same-instant livelock).
	Stalled
)

// String returns a stable machine-usable status label.
func (s TerminationStatus) String() string {
	switch s {
	case Completed:
		return "Completed"
	case DeadlineExceeded:
		return "DeadlineExceeded"
	case EventBudgetExceeded:
		return "EventBudgetExceeded"
	case PendingBudgetExceeded:
		return "PendingBudgetExceeded"
	case Stalled:
		return "Stalled"
	default:
		return fmt.Sprintf("TerminationStatus(%d)", int(s))
	}
}

// Budget bounds a run so that a runaway simulation — an exponential
// back-off spiral toward virtual-clock overflow, a scheduling explosion,
// a same-instant livelock — terminates with a structured
// TerminationStatus instead of overflowing, exhausting memory or
// spinning forever. The zero value disables every guardrail and adds no
// per-event work, so budget-free runs are byte-identical to builds
// without this mechanism.
//
// All checks happen at dispatch admission: the engine inspects the next
// due event before executing it and, on the first violated bound, stops
// without dispatching. The clock therefore never advances past a
// budget-triggered stop (it stays at the instant of the last executed
// event), and the dispatched event prefix — hence the run fingerprint
// of everything observed so far — is a pure function of the
// configuration, keeping aborted runs exactly as reproducible as
// completed ones.
type Budget struct {
	// MaxVirtualTime aborts the run (DeadlineExceeded) before executing
	// any event scheduled after this instant. Zero means unlimited.
	MaxVirtualTime Time
	// MaxEvents aborts the run (EventBudgetExceeded) once this many
	// events have been dispatched. Zero means unlimited.
	MaxEvents uint64
	// MaxPending aborts the run (PendingBudgetExceeded) when the live
	// scheduled-event count exceeds it. Zero means unlimited.
	MaxPending int
	// StallEvents is the progress watchdog: the run aborts (Stalled)
	// when this many consecutive events dispatch without the virtual
	// clock advancing and the next event would not advance it either.
	// Zero disables the watchdog.
	StallEvents uint64
}

// Enabled reports whether any guardrail is armed.
func (b Budget) Enabled() bool { return b != Budget{} }

// SetBudget installs (or, with the zero Budget, removes) the engine's
// guardrails. Call it before running; changing budgets mid-run is
// allowed but the stall counter is not reset.
func (e *Engine) SetBudget(b Budget) {
	e.budget = b
	e.budgetOn = b.Enabled()
}

// Termination reports how the run ended so far: Completed unless an
// armed budget aborted it. It is meaningful after Run/RunUntil/Step
// return false, and monotone — once non-Completed it stays so.
func (e *Engine) Termination() TerminationStatus { return e.status }

// Snapshot is a diagnostic picture of the engine, taken when a budget
// aborts a run (or on demand).
type Snapshot struct {
	// Status is the termination status at capture time.
	Status TerminationStatus
	// Now is the virtual clock: the instant of the last executed event.
	Now Time
	// Pending counts live scheduled events still queued.
	Pending int
	// Executed counts events dispatched so far.
	Executed uint64
	// SameInstantRun counts the consecutive events dispatched at Now,
	// the progress-watchdog counter.
	SameInstantRun uint64
	// Allocated counts event records, live or recycled: the most events
	// ever pending at once. Cascaded counts records cascades re-filed.
	Allocated, Cascaded uint64
}

// Snapshot captures the engine's diagnostic state.
func (e *Engine) Snapshot() Snapshot {
	return Snapshot{
		Status:         e.status,
		Now:            e.now,
		Pending:        e.live,
		Executed:       e.executed,
		SameInstantRun: e.stallRun,
		Allocated:      uint64(e.live + len(e.free)),
		Cascaded:       e.cascaded,
	}
}

// String renders the snapshot on one line.
func (s Snapshot) String() string {
	return fmt.Sprintf("status=%s clock=%v pending=%d executed=%d same-instant-run=%d",
		s.Status, s.Now, s.Pending, s.Executed, s.SameInstantRun)
}

// admit checks the armed budget against the next due event ev before it
// is dispatched. On the first violated bound it records the status,
// stops the engine and returns false — ev stays queued and the clock
// does not move.
func (e *Engine) admit(ev *scheduledEvent) bool {
	b := &e.budget
	switch {
	case b.MaxVirtualTime > 0 && ev.at > b.MaxVirtualTime:
		e.status = DeadlineExceeded
	case b.MaxEvents > 0 && e.executed >= b.MaxEvents:
		e.status = EventBudgetExceeded
	case b.MaxPending > 0 && e.live > b.MaxPending:
		e.status = PendingBudgetExceeded
	case b.StallEvents > 0 && e.stallRun >= b.StallEvents && ev.at == e.now:
		e.status = Stalled
	default:
		return true
	}
	e.stopped = true
	return false
}

// PastScheduleError is the panic value raised when an event is scheduled
// before the current virtual instant. Scheduling in the past would
// silently reorder causality, which is always a bug in the layers above
// — historically including timer arithmetic that overflowed int64 and
// wrapped negative. The panic is typed so that harnesses (the soak
// fuzzer) can recover it and attribute the failure with its time
// context instead of dying on a bare string.
type PastScheduleError struct {
	// At is the requested (past) instant; Now the clock it violated.
	At, Now Time
}

// Error implements error.
func (e *PastScheduleError) Error() string {
	return fmt.Sprintf("sim: event scheduled in the past: at=%v now=%v", e.At, e.Now)
}
