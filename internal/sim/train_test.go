package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// trainRun drives one random event script around a data train and
// returns the dispatch log, the executed-event count and the pending
// count right after set-up. With asTrain the n firings are one
// ScheduleTrain call; otherwise they are n up-front ScheduleAt calls
// made at the same point of the script — the form ScheduleTrain
// claims to be dispatch-equivalent to.
//
// The script is built to collide with the train everywhere an ordering
// bug could hide: roots scheduled before the train (lower sequence
// numbers) and after it (higher ones) sit exactly on firing instants;
// every event, train firings included, may cancel one of its host's
// timers and schedules children at delays of zero, one period and two
// periods, so they land on the current and on future firings; the run
// is cut by RunUntil deadlines on and just before firing instants
// before Run takes over.
func trainRun(seed int64, asTrain bool, start Time, period Duration, n int) (log []string, executed uint64, pending int) {
	const hosts = 6
	e := NewEngine()
	type host struct {
		rng    *rand.Rand
		count  int
		timers []Timer
	}
	hs := make([]*host, hosts)
	for i := range hs {
		hs[i] = &host{rng: rand.New(rand.NewSource(seed*131 + int64(i)))}
	}
	delays := []Duration{0, 0, period, period, 2 * period, time.Millisecond, period / 3}
	var fire func(h, depth int) Event
	// act is what every event does after logging itself, a train firing
	// included.
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
			t := e.Schedule(delays[hh.rng.Intn(len(delays))], fire(h, depth+1))
			if hh.rng.Intn(2) == 0 {
				hh.timers = append(hh.timers, t)
			}
		}
	}
	fire = func(h, depth int) Event {
		return func(now Time) {
			hs[h].count++
			log = append(log, fmt.Sprintf("h%d#%d@%v", h, hs[h].count, now))
			act(h, depth)
		}
	}
	script := rand.New(rand.NewSource(seed))
	roots := func() {
		for i := 0; i < 2*n; i++ {
			h := script.Intn(hosts)
			at := start.Add(Duration(script.Intn(n+1)) * period)
			if script.Intn(4) == 0 {
				at = at.Add(Duration(script.Int63n(int64(period))))
			}
			t := e.ScheduleAt(at, fire(h, 0))
			if script.Intn(3) == 0 {
				hs[h].timers = append(hs[h].timers, t)
			}
		}
	}

	roots() // lower sequence numbers than the train's
	const trainHost = 0
	firing := func(i int, now Time) {
		log = append(log, fmt.Sprintf("train#%d@%v", i, now))
		act(trainHost, 1)
	}
	if asTrain {
		e.ScheduleTrain(start, period, n, firing)
	} else {
		for i := 0; i < n; i++ {
			i := i
			e.ScheduleAt(start.Add(Duration(i)*period), func(now Time) { firing(i, now) })
		}
	}
	roots() // higher ones
	pending = e.Pending()

	for cuts := script.Intn(4); cuts > 0; cuts-- {
		deadline := start.Add(Duration(script.Intn(n)) * period)
		if script.Intn(2) == 0 {
			deadline--
		}
		if deadline > e.Now() {
			e.RunUntil(deadline)
		}
	}
	e.Run()
	if e.Pending() != 0 {
		panic("events left after Run")
	}
	return log, e.Executed(), pending
}

// TestTrainEquivalentToUpFrontSchedules is the order-equivalence
// property ScheduleTrain documents: over random scripts the train's
// dispatch log — every event, not just the firings — equals that of n
// up-front schedules exactly, for a period below
// one wheel tick (several firings per bucket), a millisecond period, and
// a period that carries the train across the wheel's overflow horizon.
// The executed count is equal too; only Pending differs, by the n-1
// firings the train does not keep in the wheel.
func TestTrainEquivalentToUpFrontSchedules(t *testing.T) {
	shapes := []struct {
		name   string
		start  Time
		period Duration
		n      int
	}{
		{"sub-tick", Time(3 * time.Second), 300 * time.Microsecond, 40},
		{"millisecond", Time(time.Millisecond), time.Millisecond, 30},
		{"past-horizon", Time(time.Hour), 40 * time.Minute, 12},
		{"single", Time(time.Second), time.Second, 1},
	}
	for _, sh := range shapes {
		if span := Duration(sh.n) * sh.period; sh.name == "past-horizon" && uint64(span)>>tickBits < 1<<(levelBits*numLevels) {
			t.Fatalf("%s: span %v does not cross the wheel horizon", sh.name, span)
		}
		for seed := int64(0); seed < 25; seed++ {
			want, wantExec, wantPending := trainRun(seed, false, sh.start, sh.period, sh.n)
			got, gotExec, gotPending := trainRun(seed, true, sh.start, sh.period, sh.n)
			if gotPending != wantPending-(sh.n-1) {
				t.Fatalf("%s seed %d: Pending %d with the train, %d with %d schedules: a train must count once",
					sh.name, seed, gotPending, wantPending, sh.n)
			}
			if gotExec != wantExec {
				t.Fatalf("%s seed %d: executed %d, up-front %d", sh.name, seed, gotExec, wantExec)
			}
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d log entries, up-front %d", sh.name, seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: dispatch %d = %s, up-front %s", sh.name, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTrainSteadyStateAllocationFree pins the point of the train: after
// the one state object ScheduleTrain allocates, its firings allocate
// nothing, however many there are.
func TestTrainSteadyStateAllocationFree(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.ScheduleTrain(0, time.Millisecond, 1<<20, func(int, Time) { fired++ })
	e.Step()
	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Fatalf("a train firing allocates %.2f objects, want 0", avg)
	}
	if fired != 1002 || e.Pending() != 1 {
		t.Fatalf("fired %d, pending %d; want 1002 firings and the train pending once", fired, e.Pending())
	}
}

// TestTrainRejectsNonPositivePeriod pins the guard: a train's firings
// must advance the clock.
func TestTrainRejectsNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleTrain accepted a zero period")
		}
	}()
	NewEngine().ScheduleTrain(0, 0, 3, func(int, Time) {})
}
