package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// scriptedSeries is a series whose instants are a fixed list. It checks
// the engine's half of the contract: At(i) is asked once, in turn, just
// before firing i-1 runs.
type scriptedSeries struct {
	t     *testing.T
	at    []Time
	fired int
	fire  func(i int, now Time)
}

func (s *scriptedSeries) At(i int) Time {
	if i != s.fired+1 {
		s.t.Errorf("At(%d) asked with %d firings run, want it just before firing %d", i, s.fired, i-1)
	}
	return s.at[i]
}

func (s *scriptedSeries) Fire(i int, now Time) {
	s.fired++
	s.fire(i, now)
}

// firing is one of the up-front handlers a series is compared with.
type firing struct {
	i    int
	fire func(i int, now Time)
}

func (f firing) Fire(now Time) { f.fire(f.i, now) }

// seriesOutcome is what one seriesRun observed.
type seriesOutcome struct {
	log               []string
	executed, nextSeq uint64
	pending           int
	status            TerminationStatus
}

// seriesRun drives one random event script around n firings at the given
// non-decreasing instants: one ScheduleSeries call with asSeries,
// otherwise n up-front ScheduleHandlerAt calls made at the same point of
// the script. Like trainRun, roots sit on firing instants before and
// after the series, and every event may cancel a timer and schedules
// children that land on current and future firings. Firing stopAt (when
// not negative) calls Stop, and maxEvents (when positive) arms an event
// budget; otherwise the run drains.
func seriesRun(t *testing.T, seed int64, asSeries bool, at []Time, stopAt int, maxEvents uint64) seriesOutcome {
	const hosts = 5
	e := NewEngine()
	e.SetBudget(Budget{MaxEvents: maxEvents})
	var out seriesOutcome
	type host struct {
		rng    *rand.Rand
		count  int
		timers []Timer
	}
	hs := make([]*host, hosts)
	for i := range hs {
		hs[i] = &host{rng: rand.New(rand.NewSource(seed*97 + int64(i)))}
	}
	span := at[len(at)-1].Sub(at[0])
	delays := []Duration{0, 0, span / Duration(len(at)), time.Millisecond, Duration(1<<tickBits) / 3, span / 2}
	var fire func(h, depth int) Event
	act := func(h, depth int) {
		hh := hs[h]
		if len(hh.timers) > 0 && hh.rng.Intn(3) == 0 {
			idx := hh.rng.Intn(len(hh.timers))
			e.Cancel(hh.timers[idx])
			hh.timers[idx] = hh.timers[len(hh.timers)-1]
			hh.timers = hh.timers[:len(hh.timers)-1]
		}
		if depth >= 3 {
			return
		}
		for k := hh.rng.Intn(3); k > 0; k-- {
			tm := e.Schedule(delays[hh.rng.Intn(len(delays))], fire(h, depth+1))
			if hh.rng.Intn(2) == 0 {
				hh.timers = append(hh.timers, tm)
			}
		}
	}
	fire = func(h, depth int) Event {
		return func(now Time) {
			hs[h].count++
			out.log = append(out.log, fmt.Sprintf("h%d#%d@%v", h, hs[h].count, now))
			act(h, depth)
		}
	}
	script := rand.New(rand.NewSource(seed))
	roots := func() {
		for i := 0; i < 2*len(at); i++ {
			h := script.Intn(hosts)
			tm := e.ScheduleAt(at[script.Intn(len(at))], fire(h, 0))
			if script.Intn(3) == 0 {
				hs[h].timers = append(hs[h].timers, tm)
			}
		}
	}
	roots()
	fireSeries := func(i int, now Time) {
		out.log = append(out.log, fmt.Sprintf("series#%d@%v", i, now))
		if i == stopAt {
			e.Stop()
		}
		act(0, 1)
	}
	if asSeries {
		e.ScheduleSeries(at[0], len(at), &scriptedSeries{t: t, at: at, fire: fireSeries})
	} else {
		for i, a := range at {
			e.ScheduleHandlerAt(a, firing{i, fireSeries})
		}
	}
	roots()
	out.pending = e.Pending()
	e.Run()
	out.executed, out.nextSeq, out.status = e.Executed(), e.NextSeq(), e.Termination()
	return out
}

// seriesInstants draws n non-decreasing instants from start, each gap
// picked from gaps (zero gaps put firings on one instant).
func seriesInstants(seed int64, start Time, n int, gaps []Duration) []Time {
	rng := rand.New(rand.NewSource(seed))
	at := []Time{start}
	for len(at) < n {
		at = append(at, at[len(at)-1].Add(gaps[rng.Intn(len(gaps))]))
	}
	return at
}

// TestSeriesEquivalentToUpFrontSchedules is the order-equivalence
// property ScheduleSeries documents: over random scripts the dispatch log
// of a series — every event, not just its firings — equals that of n
// up-front ScheduleHandlerAt calls exactly, and so do Executed and
// NextSeq (the series reserves its sequence numbers at the send). That
// holds for irregular sub-tick spacing with firings sharing instants, for
// millisecond spacing, for a span that carries the series across the
// wheel's overflow horizon, when a firing calls Stop, and when an event
// budget aborts the run between firings. Only Pending differs, by the
// n-1 firings the series does not keep in the wheel.
func TestSeriesEquivalentToUpFrontSchedules(t *testing.T) {
	tick := Duration(1 << tickBits)
	shapes := []struct {
		name   string
		start  Time
		n      int
		gaps   []Duration
		stopAt int
		budget uint64
	}{
		{"sub-tick", Time(3 * time.Second), 40, []Duration{0, tick / 7, tick / 3, 300 * time.Microsecond}, -1, 0},
		{"millisecond", Time(time.Millisecond), 30, []Duration{time.Millisecond, 2 * time.Millisecond}, -1, 0},
		{"past-horizon", Time(time.Hour), 12, []Duration{30 * time.Minute, 40 * time.Minute, 50 * time.Minute}, -1, 0},
		{"stop-in-firing", Time(time.Second), 20, []Duration{0, tick / 2, 5 * time.Millisecond}, 7, 0},
		{"budget-abort", Time(time.Second), 20, []Duration{0, tick / 2, 5 * time.Millisecond}, -1, 60},
		{"single", Time(time.Second), 1, nil, -1, 0},
	}
	for _, sh := range shapes {
		for seed := int64(0); seed < 25; seed++ {
			at := seriesInstants(seed, sh.start, sh.n, sh.gaps)
			if span := at[len(at)-1].Sub(at[0]); sh.name == "past-horizon" && uint64(span)>>tickBits < 1<<(levelBits*numLevels) {
				t.Fatalf("%s seed %d: span %v does not cross the wheel horizon", sh.name, seed, span)
			}
			want := seriesRun(t, seed, false, at, sh.stopAt, sh.budget)
			got := seriesRun(t, seed, true, at, sh.stopAt, sh.budget)
			where := fmt.Sprintf("%s seed %d", sh.name, seed)
			if got.pending != want.pending-(sh.n-1) {
				t.Fatalf("%s: Pending %d with the series, %d with %d schedules: a series must count once", where, got.pending, want.pending, sh.n)
			}
			if got.executed != want.executed || got.nextSeq != want.nextSeq || got.status != want.status {
				t.Fatalf("%s: executed %d, next seq %d, %v; up-front %d, %d, %v",
					where, got.executed, got.nextSeq, got.status, want.executed, want.nextSeq, want.status)
			}
			if fired := strings.Count(strings.Join(want.log, " "), "series#"); (sh.stopAt >= 0 || sh.budget > 0) && (fired == 0 || fired == sh.n) {
				t.Fatalf("%s: the run ended after %d of %d firings, not between two", where, fired, sh.n)
			}
			if sh.budget > 0 && want.status != EventBudgetExceeded {
				t.Fatalf("%s: the budget never aborted the run", where)
			}
			if len(got.log) != len(want.log) {
				t.Fatalf("%s: %d log entries, up-front %d", where, len(got.log), len(want.log))
			}
			for i := range got.log {
				if got.log[i] != want.log[i] {
					t.Fatalf("%s: dispatch %d = %s, up-front %s", where, i, got.log[i], want.log[i])
				}
			}
		}
	}
}

// TestSeriesRejectsDecreasingInstant pins the guard on At: a firing
// named before the one just dispatched would move the clock backwards.
func TestSeriesRejectsDecreasingInstant(t *testing.T) {
	e := NewEngine()
	e.ScheduleSeries(Time(time.Second), 2, &scriptedSeries{t: t, at: []Time{Time(time.Second), Time(time.Millisecond)}, fire: func(int, Time) {}})
	defer func() {
		var pe *PastScheduleError
		if err, _ := recover().(error); !errors.As(err, &pe) || pe.At != Time(time.Millisecond) {
			t.Fatalf("a decreasing instant gave %v, want a PastScheduleError at 1ms", err)
		}
	}()
	e.Run()
}
