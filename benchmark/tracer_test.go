package main

import (
	"bytes"
	"strings"
	"testing"
)

// fakeClock hands the tracer scripted instants.
type fakeClock struct{ now int64 }

func (c *fakeClock) read() int64 { return c.now }

func newFakeTracer(every uint64) (*tracer, *fakeClock) {
	c := &fakeClock{}
	t := newTracer(every, nil)
	t.now = c.read
	return t, c
}

func TestSelfTimeSubtractsDirectChildrenOnly(t *testing.T) {
	tr, clock := newFakeTracer(1)
	a, b, c, d := tr.name("a"), tr.name("b"), tr.name("c"), tr.name("d")

	// a [0,100] holds b [10,30] and c [40,70]; c holds d [50,60].
	ta := tr.begin(a, false)
	clock.now = 10
	tb := tr.begin(b, false)
	clock.now = 30
	tr.end(tb)
	clock.now = 40
	tc := tr.begin(c, false)
	clock.now = 50
	td := tr.begin(d, false)
	clock.now = 60
	tr.end(td)
	clock.now = 70
	tr.end(tc)
	clock.now = 100
	tr.end(ta)
	if err := tr.fold(); err != nil {
		t.Fatal(err)
	}

	for _, want := range []struct {
		n           spanName
		self, total int64
	}{{a, 50, 100}, {b, 20, 20}, {c, 20, 30}, {d, 10, 10}} {
		got := tr.totals[want.n]
		if got.SelfNS != want.self || got.TotalNS != want.total || got.Calls != 1 || got.Timed != 1 {
			t.Errorf("%s: self %d total %d calls %d timed %d, want self %d total %d, one call, timed",
				tr.names[want.n], got.SelfNS, got.TotalNS, got.Calls, got.Timed, want.self, want.total)
		}
	}
	if tr.topLevel != 100 {
		t.Errorf("top-level time %d, want 100 (only a is top-level)", tr.topLevel)
	}
	if got := tr.selfTotal(); !near(got, 100e-9) {
		t.Errorf("self times sum to %v s, want the top-level span's 100 ns", got)
	}
}

func TestSamplingTimesOneEventInKWithItsChildrenAndCountsAll(t *testing.T) {
	const events = 200000
	var parent, child spanName
	record := func() (*tracer, []uint64) {
		tr, clock := newFakeTracer(4)
		parent, child = tr.name("parent"), tr.name("child")
		var timed []uint64
		for i := 0; i < events; i++ {
			tp := tr.begin(parent, false)
			if tp >= 0 {
				timed = append(timed, uint64(i))
			}
			clock.now += 10
			tc := tr.begin(child, false)
			clock.now += 5
			tr.end(tc)
			clock.now += 10
			tr.end(tp)
		}
		if err := tr.fold(); err != nil {
			t.Fatal(err)
		}
		return tr, timed
	}
	tr, timed := record()
	p, c := tr.totals[parent], tr.totals[child]
	if p.Calls != events || c.Calls != events {
		t.Errorf("calls %d and %d, want every call counted (%d each)", p.Calls, c.Calls, events)
	}
	if p.Timed != c.Timed {
		t.Errorf("%d parents timed but %d children: a timed event brings all its children", p.Timed, c.Timed)
	}
	if share := float64(p.Timed) / events; share < 0.22 || share > 0.28 {
		t.Errorf("%.3f of the events were timed, want about one in four", share)
	}
	// Each timed event stands for four, so the weighted totals estimate
	// all of them (parent 25 ns inclusive, 20 ns self; child 5 ns).
	for _, e := range []struct {
		what      string
		got, want float64
	}{
		{"parent total", float64(p.TotalNS), 25 * events},
		{"parent self", float64(p.SelfNS), 20 * events},
		{"child self", float64(c.SelfNS), 5 * events},
	} {
		if e.got < 0.9*e.want || e.got > 1.1*e.want {
			t.Errorf("%s estimated at %v ns, want about %v", e.what, e.got, e.want)
		}
	}
	if got := tr.nsPerCall(parent); !near(got, 25) {
		t.Errorf("parent ns per call %v, want 25", got)
	}

	// Timed events come in bursts with uneven gaps: a fixed stride would
	// always land on the same hosts of a flood.
	gaps := map[uint64]bool{}
	for i := 1; i < len(timed); i++ {
		if d := timed[i] - timed[i-1]; d > 1 {
			gaps[d] = true
		}
	}
	if len(gaps) < 10 {
		t.Errorf("only %d distinct gaps between bursts, want them spread out", len(gaps))
	}
	// ... and a second traced run times exactly the same events.
	_, again := record()
	if len(again) != len(timed) {
		t.Fatalf("second run timed %d events, first %d", len(again), len(timed))
	}
	for i := range timed {
		if timed[i] != again[i] {
			t.Fatalf("second run timed event %d where the first timed %d", again[i], timed[i])
		}
	}
}

func TestAlwaysTimedEventsCarryWeightOneAndDoNotShiftSampling(t *testing.T) {
	// timedCommon returns which of 5000 sampled events get timed, with or
	// without an always-timed event after every hundredth.
	var rare, common spanName
	timedCommon := func(withRare bool) (*tracer, []int) {
		tr, clock := newFakeTracer(2)
		rare, common = tr.name("rare"), tr.name("common")
		var timed []int
		for i := 0; i < 5000; i++ {
			tok := tr.begin(common, false)
			if tok >= 0 {
				timed = append(timed, i)
			}
			clock.now += 7
			tr.end(tok)
			if withRare && i%100 == 0 {
				tok := tr.begin(rare, true)
				clock.now += 7
				tr.end(tok)
			}
		}
		if err := tr.fold(); err != nil {
			t.Fatal(err)
		}
		return tr, timed
	}
	tr, with := timedCommon(true)
	if got := tr.totals[rare]; got.Calls != 50 || got.Timed != 50 || got.SelfNS != 50*7 {
		t.Errorf("rare: calls %d timed %d self %d, want all 50 timed at weight 1 (350 ns)", got.Calls, got.Timed, got.SelfNS)
	}
	if got := tr.totals[common]; got.Calls != 5000 || got.SelfNS != 2*7*int64(got.Timed) {
		t.Errorf("common: calls %d timed %d self %d, want 5000 calls and weight 2 on each timed one", got.Calls, got.Timed, got.SelfNS)
	}
	_, without := timedCommon(false)
	if len(with) != len(without) {
		t.Fatalf("always-timed events changed how many sampled events are timed: %d vs %d", len(with), len(without))
	}
	for i := range with {
		if with[i] != without[i] {
			t.Fatalf("always-timed events shifted the sampling: event %d vs %d", with[i], without[i])
		}
	}
}

func TestFoldWritesSpansWithParentAndEvent(t *testing.T) {
	var out bytes.Buffer
	tr := newTracer(1, &out)
	clock := &fakeClock{}
	tr.now = clock.read
	outer, inner := tr.name("outer"), tr.name("inner")
	to := tr.begin(outer, false)
	ti := tr.begin(inner, false)
	clock.now = 3
	tr.end(ti)
	tr.end(to)
	if err := tr.fold(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d spans, want 2:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], `"name":"outer"`) || !strings.Contains(lines[0], `"parent":-1`) {
		t.Errorf("outer span line %s", lines[0])
	}
	if !strings.Contains(lines[1], `"name":"inner"`) || !strings.Contains(lines[1], `"parent":0`) || !strings.Contains(lines[1], `"event":1`) {
		t.Errorf("inner span line %s", lines[1])
	}
	if len(tr.spans) != 0 {
		t.Error("fold left spans in the buffer")
	}
}
