// Sharded batch dispatch: same-instant events whose owners live on
// disjoint subtree shards execute concurrently on a worker pool while
// the timer wheel remains the single deterministic sequencer.
//
// The contract is byte-identical dispatch: a sharded run must assign the
// same FIFO sequence numbers, consume every shared random stream in the
// same order, and observe every side effect in the same order as the
// serial engine. The mechanism (proof sketch in DESIGN.md §13):
//
//   - Batch formation. The due list is already sorted by (at, seq). A
//     batch is the maximal prefix of shard-labeled events at one
//     instant; an unlabeled (GlobalShard) event is a barrier and
//     dispatches alone, serially.
//   - Parallel region. Each shard's batch entries run in (at, seq)
//     order on a worker. Handlers may freely mutate their own host's
//     state (hosts are partitioned by shard), but every operation that
//     touches shared order-sensitive state — scheduling, cancellation,
//     packet sends, observer emissions — is appended to the shard's
//     deferred-op log instead of executing, tagged with the batch entry
//     that produced it.
//   - Merge. After the workers join, the engine replays the logs in
//     batch (at, seq) order, each entry's ops in program order. Sequence
//     numbers, packet IDs, RNG draws and digest updates therefore
//     happen in exactly the order the serial engine would have produced,
//     even though the handler bodies ran out of order.
//
// Shard labels are advisory: dispatching a labeled event serially is
// always correct, which is what makes the serial fallback (small or
// single-shard batches), RunUntil and Step safe without special cases.
package sim

import (
	"math/bits"
	"runtime"
)

// GlobalShard labels events that may touch cross-shard state. They are
// batch barriers: the sharded loop dispatches them serially, one at a
// time, exactly like the serial engine.
const GlobalShard int32 = -1

// maxShards bounds EnableSharding; the batch scan tracks distinct shards
// in a 64-bit mask.
const maxShards = 64

// minBatch is the smallest same-instant prefix worth dispatching in
// parallel; anything smaller (or confined to one shard) takes the serial
// path, which costs nothing over a plain Step.
const minBatch = 2

// shardPoolCap bounds each shard's record pool between batches. The
// merge releases every fired record into its shard's pool, but
// worker-side demand (handler-issued schedules) is far smaller than the
// fired volume, so without a cap the pools hoard records while the
// engine free list starves into fresh allocation; the excess flows back
// to the engine at the batch boundary.
const shardPoolCap = 256

// Sched is the scheduling surface protocol agents hold: the engine
// itself in serial runs, or a Shard handle in sharded runs. Both satisfy
// it with identical semantics; a Shard additionally defers the calls
// made during a parallel region so they commit in deterministic order.
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

// batchEntry is one same-instant event admitted to the current batch.
type batchEntry struct {
	ev  *scheduledEvent
	gen uint64
	// logStart and logEnd delimit the ops this entry appended to its
	// shard's deferred-op log.
	logStart, logEnd int32
	// fired reports whether the worker dispatched the entry (false when
	// a same-batch cancel made it inert first).
	fired bool
}

// shardOp is one deferred operation in a shard's op log. Schedule and
// cancel commits — the high-volume ops, every timer touched inside a
// region logs one — are stored as typed records so appending reuses the
// log's backing array instead of allocating a closure per op; only the
// proxy deferrals (packet sends, observer emissions) carry a closure.
type shardOp struct {
	// fn, when non-nil, is a proxy deferral and the other fields are
	// ignored.
	fn func()
	// ev is the record of a deferred schedule (replayed via
	// placeDeferred) or, with cancel set, a deferred cancel
	// (cancelDeferred).
	ev     *scheduledEvent
	cancel bool
}

// Shard is one partition's scheduling handle. Agents whose host belongs
// to the shard hold it as their Sched; the network and observer proxies
// route their deferrals through it. Outside a parallel region every
// method passes straight through to the engine (with the shard label
// attached), so setup code and barrier events behave exactly as before.
type Shard struct {
	e  *Engine
	id int32
	// buffering is true only while the engine has handed this shard's
	// batch entries to a worker. It is written by the engine goroutine
	// before and after the region (the work channel and WaitGroup give
	// the happens-before edges), and read by the worker and by the
	// engine, never concurrently.
	buffering bool
	// log is the deferred-op log of the current batch, program order.
	log []shardOp
	// entries indexes e.batch for this shard's slice of the batch.
	entries []int32
	// free pools records for deferred schedules; refilled by the merge
	// releasing this shard's fired records.
	free []*scheduledEvent
}

// EnableSharding partitions the engine into n shards and returns their
// scheduling handles (index = shard ID). Call once, before the run;
// n is clamped to [2, 64] (below 2 sharding is pointless and nil is
// returned). Events scheduled through a Shard (or through the engine's
// *Shard-labeled variants) carry that shard's label; everything else
// stays GlobalShard and dispatches as a barrier.
func (e *Engine) EnableSharding(n int) []*Shard {
	if len(e.shards) > 0 {
		panic("sim: EnableSharding called twice")
	}
	if n < 2 {
		return nil
	}
	if n > maxShards {
		n = maxShards
	}
	e.shards = make([]*Shard, n)
	for i := range e.shards {
		e.shards[i] = &Shard{e: e, id: int32(i)}
	}
	return e.shards
}

// NumShards returns the shard count, zero when sharding is disabled.
func (e *Engine) NumShards() int { return len(e.shards) }

// ID returns the shard's index.
func (s *Shard) ID() int { return int(s.id) }

// Buffering reports whether the shard is inside a parallel region, i.e.
// whether order-sensitive side effects must be deferred. The network
// and observer proxies consult it to skip closure allocation on the
// pass-through path.
func (s *Shard) Buffering() bool { return s.buffering }

// Now returns the current virtual time. During a parallel region the
// clock is frozen at the batch instant, so this is safe from workers.
func (s *Shard) Now() Time { return s.e.now }

// Defer executes op immediately outside a parallel region, or appends
// it to the shard's op log to run at merge time, in this batch entry's
// program-order slot. Proxies use it for packet sends and observer
// emissions.
func (s *Shard) Defer(op func()) {
	if !s.buffering {
		op()
		return
	}
	s.log = append(s.log, shardOp{fn: op})
}

// allocDeferred takes a record from the shard pool without assigning a
// sequence number; the merge assigns it when the schedule op replays.
func (s *Shard) allocDeferred(at Time) *scheduledEvent {
	var ev *scheduledEvent
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &scheduledEvent{}
	}
	ev.at = at
	ev.shard = s.id
	return ev
}

// Schedule registers fn to run after delay, labeled with this shard.
// Inside a parallel region the schedule is deferred: the returned Timer
// is immediately usable (cancelable, Active), but the event receives
// its FIFO sequence number at merge time, in the issuing entry's
// program-order slot — exactly the number the serial engine would have
// assigned.
func (s *Shard) Schedule(delay Duration, fn Event) Timer {
	if fn == nil {
		panic("sim: Schedule called with nil event")
	}
	if delay < 0 {
		delay = 0
	}
	if !s.buffering {
		t := s.e.Schedule(delay, fn)
		t.ev.shard = s.id
		return t
	}
	ev := s.allocDeferred(s.e.now.Add(delay))
	ev.fn = fn
	s.log = append(s.log, shardOp{ev: ev})
	return Timer{ev: ev, gen: ev.gen.Load(), at: ev.at}
}

// ScheduleHandler registers h.Fire to run after delay, labeled with
// this shard; the deferred path mirrors Schedule.
func (s *Shard) ScheduleHandler(delay Duration, h EventHandler) Timer {
	if h == nil {
		panic("sim: ScheduleHandler called with nil handler")
	}
	if delay < 0 {
		delay = 0
	}
	if !s.buffering {
		t := s.e.ScheduleHandler(delay, h)
		t.ev.shard = s.id
		return t
	}
	ev := s.allocDeferred(s.e.now.Add(delay))
	ev.h = h
	s.log = append(s.log, shardOp{ev: ev})
	return Timer{ev: ev, gen: ev.gen.Load(), at: ev.at}
}

// Cancel deactivates t. Inside a parallel region the timer becomes
// inert immediately (its generation is bumped, so Active is false and
// a same-batch entry of this shard will not fire it), while the
// structural unlink is deferred to the merge. Cancelling another
// shard's live timer from a parallel region is a cross-shard mutation
// the partition forbids and panics; stale handles (the common
// defensive-cancel case) are inert no-ops as always.
func (s *Shard) Cancel(t Timer) {
	if !s.buffering {
		s.e.Cancel(t)
		return
	}
	if t.ev == nil || t.ev.gen.Load() != t.gen {
		return
	}
	if t.ev.shard != s.id {
		panic("sim: cross-shard Cancel during parallel dispatch")
	}
	ev := t.ev
	ev.gen.Add(1)
	s.log = append(s.log, shardOp{ev: ev, cancel: true})
}

// ScheduleAtShard is ScheduleAt with a shard label, for infrastructure
// (the network) that schedules events on behalf of a host it knows the
// shard of. It must be called outside parallel regions (merge replay,
// barrier events, setup).
func (e *Engine) ScheduleAtShard(at Time, fn Event, shard int32) Timer {
	t := e.ScheduleAt(at, fn)
	e.label(t, shard)
	return t
}

// ScheduleHandlerAtShard is ScheduleHandlerAt with a shard label; see
// ScheduleAtShard.
func (e *Engine) ScheduleHandlerAtShard(at Time, h EventHandler, shard int32) Timer {
	t := e.ScheduleHandlerAt(at, h)
	e.label(t, shard)
	return t
}

func (e *Engine) label(t Timer, shard int32) {
	if shard >= 0 && int(shard) < len(e.shards) {
		t.ev.shard = shard
	}
}

// placeDeferred commits a deferred schedule at merge time: the event
// receives the next FIFO sequence number — the one the serial engine
// would have assigned at this point of the replay — and enters the
// wheel. If a later op of the same batch cancelled it, cancelDeferred
// will unlink it again; the sequence number is consumed either way,
// exactly as in a serial schedule-then-cancel.
func (e *Engine) placeDeferred(ev *scheduledEvent) {
	ev.seq = e.nextSeq
	e.nextSeq++
	e.place(ev)
	e.live++
}

// cancelDeferred commits a deferred cancel at merge time. The record is
// either still linked (it lived in the wheel, or placeDeferred just
// placed it) — unlink and account — or it was a member of the very
// batch being merged (formation already unlinked it, the worker skipped
// firing it); in both cases the record is released here.
func (e *Engine) cancelDeferred(ev *scheduledEvent) {
	if ev.in != nil {
		e.unlink(ev)
		e.live--
	}
	e.releaseRecord(ev)
}

// releaseRecord recycles a record into its owning shard's pool when it
// has one, or the engine free list otherwise. Merge-time release keeps
// shard pools fed so workers rarely allocate.
func (e *Engine) releaseRecord(ev *scheduledEvent) {
	if ev.shard >= 0 && int(ev.shard) < len(e.shards) {
		s := e.shards[ev.shard]
		ev.gen.Add(1)
		ev.fn = nil
		ev.h = nil
		s.free = append(s.free, ev)
		return
	}
	e.release(ev)
}

// runSharded is Run's batch dispatch loop. It spins up one worker per
// shard (capped at GOMAXPROCS) for the duration of the run.
func (e *Engine) runSharded() Time {
	nw := len(e.shards)
	if p := runtime.GOMAXPROCS(0); p < nw {
		nw = p
	}
	// Workers capture the channel by value: the engine field is cleared
	// on return (possibly before a worker's final nil-read of a struct
	// field would happen), and a fresh Run must not feed old workers.
	ch := make(chan *Shard, len(e.shards))
	e.workCh = ch
	for i := 0; i < nw; i++ {
		go e.shardWorker(ch)
	}
	for e.stepSharded() {
	}
	close(ch)
	e.workCh = nil
	return e.now
}

func (e *Engine) shardWorker(ch <-chan *Shard) {
	for s := range ch {
		s.runEntries()
		e.wg.Done()
	}
}

// runEntries executes this shard's slice of the current batch in
// (at, seq) order, recording each entry's op-log range. Firing bumps
// the record's generation first — the worker-visible half of the serial
// engine's release-before-dispatch — so the entry's own timers go inert
// exactly when they would have serially; the structural release happens
// at merge.
func (s *Shard) runEntries() {
	e := s.e
	now := e.now
	for _, idx := range s.entries {
		en := &e.batch[idx]
		ev := en.ev
		en.logStart = int32(len(s.log))
		if ev.gen.Load() == en.gen {
			ev.gen.Add(1)
			en.fired = true
			switch {
			case ev.train != nil:
				ev.train.fn(ev.train.next, now)
			case ev.h != nil:
				ev.h.Fire(now)
			default:
				ev.fn(now)
			}
		}
		en.logEnd = int32(len(s.log))
	}
}

// admitBatch mirrors admit for the k-th entry of a forming batch,
// using the provisional executed count (prior admitted entries will
// have dispatched by the time this entry's serial admission would have
// run). Pending-budget checks see the live count as of the formation
// point — handler-scheduled events of earlier entries are not yet
// merged — which is the one place batch admission is allowed to differ
// from serial admission; the semantics are pinned by TestShardedBudget.
func (e *Engine) admitBatch(ev *scheduledEvent, k int) bool {
	b := &e.budget
	executed := e.executed + uint64(k)
	sameInstant := k > 0 || ev.at == e.now
	switch {
	case b.MaxVirtualTime > 0 && ev.at > b.MaxVirtualTime:
		e.status = DeadlineExceeded
	case b.MaxEvents > 0 && executed >= b.MaxEvents:
		e.status = EventBudgetExceeded
	case b.MaxPending > 0 && e.live > b.MaxPending:
		e.status = PendingBudgetExceeded
	case b.StallEvents > 0 && e.stallRun >= b.StallEvents && sameInstant:
		e.status = Stalled
	default:
		if sameInstant && executed > 0 {
			e.stallRun++
		} else {
			e.stallRun = 0
		}
		return true
	}
	e.stopped.Store(true)
	return false
}

// stepSharded dispatches the next batch (or falls back to serial steps)
// and returns false when the run is over. Semantics under guardrails:
// entries admitted into a batch always finish — a budget trip or a
// handler's Stop() takes effect at the next batch boundary — and the
// clock, once advanced to the batch instant, never regresses.
func (e *Engine) stepSharded() bool {
	if e.stopped.Load() || !e.ensureDue() {
		return false
	}
	head := e.due.head
	at := head.at
	n := 0
	var mask uint64
	for ev := head; ev != nil && ev.at == at && ev.shard >= 0; ev = ev.next {
		n++
		mask |= 1 << uint32(ev.shard)
	}
	if n < minBatch || bits.OnesCount64(mask) < 2 {
		// Serial fallback: a barrier event (n == 0), a tiny batch, or a
		// single-shard batch. Dispatch the counted prefix one event at a
		// time; Step is unconditionally correct for labeled events, and
		// stepping a known count avoids rescanning the prefix per event.
		k := n
		if k == 0 {
			// The head is unlabeled: a true barrier, dispatched alone.
			k = 1
			e.barrierEvents++
		}
		for i := 0; i < k; i++ {
			if !e.Step() {
				return false
			}
		}
		return true
	}

	// Form the batch: unlink the admitted prefix in (at, seq) order.
	e.batch = e.batch[:0]
	for ev := e.due.head; ev != nil && ev.at == at && ev.shard >= 0; {
		if e.budgetOn && !e.admitBatch(ev, len(e.batch)) {
			break
		}
		next := ev.next
		e.unlink(ev)
		e.live--
		e.batch = append(e.batch, batchEntry{ev: ev, gen: ev.gen.Load()})
		ev = next
	}
	if len(e.batch) == 0 {
		// The budget rejected the first entry; it stays queued and the
		// clock does not move — identical to serial admission.
		return false
	}
	e.now = at

	// Parallel region: hand each participating shard its entry slice.
	for i := range e.batch {
		s := e.shards[e.batch[i].ev.shard]
		if len(s.entries) == 0 {
			s.buffering = true
		}
		s.entries = append(s.entries, int32(i))
	}
	active := 0
	for _, s := range e.shards {
		if s.buffering {
			active++
		}
	}
	e.wg.Add(active)
	for _, s := range e.shards {
		if s.buffering {
			e.workCh <- s
		}
	}
	e.wg.Wait()

	// Merge: commit results in batch (at, seq) order. Each fired entry's
	// record is released before its ops replay, mirroring the serial
	// engine's release-before-dispatch; the ops then assign sequence
	// numbers, consume shared RNG draws and emit observer events in
	// exactly the serial order.
	fired := uint64(0)
	for i := range e.batch {
		en := &e.batch[i]
		s := e.shards[en.ev.shard]
		if en.fired {
			fired++
			if en.ev.train != nil {
				e.advanceTrain(en.ev)
			} else {
				e.releaseRecord(en.ev)
			}
		}
		for j := en.logStart; j < en.logEnd; j++ {
			op := &s.log[j]
			switch {
			case op.fn != nil:
				op.fn()
			case op.cancel:
				e.cancelDeferred(op.ev)
			default:
				e.placeDeferred(op.ev)
			}
			*op = shardOp{}
		}
		en.ev = nil
	}
	e.executed += fired
	for _, s := range e.shards {
		if s.buffering {
			s.buffering = false
			s.entries = s.entries[:0]
			s.log = s.log[:0]
			if n := len(s.free); n > shardPoolCap {
				e.free = append(e.free, s.free[shardPoolCap:]...)
				for i := shardPoolCap; i < n; i++ {
					s.free[i] = nil
				}
				s.free = s.free[:shardPoolCap]
			}
		}
	}
	return true
}
