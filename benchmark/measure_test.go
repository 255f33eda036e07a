package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The driver takes quartiles with Python's statistics.quantiles(v, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 12, 11, 15, 14, 13, 19}, 11, 15},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	// Three passes: the range over the median.
	if got := spread([]float64{10, 11, 9}); !near(got, 0.2) {
		t.Errorf("spread of three values = %v, want 0.2", got)
	}
	// Ten runs: the interquartile distance over the median.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread of ten values = %v, want 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	// Ten samples leave no percentile with ten beyond it.
	if pct, v := tailPercentile([]float64{9, 1, 2, 3, 4, 5, 6, 7, 8, 10}); pct != 50 || !near(v, 5.5) {
		t.Errorf("tail of 10 = p%v %v, want the median", pct, v)
	}
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(1000 - i) // 1..1000, unsorted
	}
	pct, val := tailPercentile(v)
	if !near(pct, 99) || val != 990 {
		t.Errorf("tail of 1000 = p%v %v, want p99 990 (ten samples beyond it)", pct, val)
	}
}

func TestWorseningFollowsDirection(t *testing.T) {
	if got := worsening(lower, 10, 11); !near(got, 0.1) {
		t.Errorf("lower-is-better 10 -> 11 worsens by %v, want 0.1", got)
	}
	if got := worsening(higher, 10, 11); !near(got, -0.1) {
		t.Errorf("higher-is-better 10 -> 11 worsens by %v, want -0.1", got)
	}
	if got := worsening(higher, 10, 8); !near(got, 0.2) {
		t.Errorf("higher-is-better 10 -> 8 worsens by %v, want 0.2", got)
	}
}

func TestJudge(t *testing.T) {
	wall := metricSpec{Name: mWall, Unit: "s", Better: lower, Bound: 0.10}
	rate := metricSpec{Name: mCrossings, Unit: "1/s", Better: higher, Bound: 0.10}
	for _, c := range []struct {
		name       string
		m          metricSpec
		base, cand []float64
		want       string
	}{
		{"same", wall, []float64{10, 10.1, 9.9}, []float64{10, 10.2, 9.95}, verdictOK},
		{"inside the bound", wall, []float64{10, 10.1, 9.9}, []float64{10.8, 10.9, 10.7}, verdictOK},
		{"slower by more than the bound", wall, []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, verdictWorse},
		{"faster", wall, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, verdictOK},
		{"rate fell by more than the bound", rate, []float64{100, 101, 99}, []float64{85, 86, 84}, verdictWorse},
		{"rate rose", rate, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictOK},
		{"noisy and overlapping", wall, []float64{10, 12, 9}, []float64{11.5, 9.5, 12.5}, verdictUnresolved},
		{"noisy but every run slower", wall, []float64{10, 12, 9}, []float64{14, 16, 13}, verdictWorse},
		{"noisy but every run faster", wall, []float64{10, 12, 9}, []float64{7, 8, 6}, verdictOK},
	} {
		if got := judge(c.m, c.m.Bound, c.base, c.cand); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareBounds(t *testing.T) {
	want := map[string]map[string]float64{
		mWall:      {wPaperSuite: 0.10, wWireReplay: 0.10},
		mCrossings: {wWideGroup: 0.10},
		mRecords:   {wWireReplay: 0.10},
		mPeakHeap:  {wCacheOverflow: 0.10},
		mMallocs:   {wPaperSuite: 0.02, wCongestedChurn: 0.02, wWireReplay: 0.10},
		mSetup:     {wPaperSuite: 0.25, wWireReplay: 0.25},
	}
	for _, m := range endToEnd {
		for workload, bound := range want[m.Name] {
			if got := compareBound(m, workload); got != bound {
				t.Errorf("-compare bound of %s on %s = %v, want %v", m.Name, workload, got, bound)
			}
		}
	}
}

func TestQuietSecondsDividesByTheYardstick(t *testing.T) {
	p := &passResult{resources: resources{WallS: 12, Slowdown: 1.5}}
	if got := quietSeconds(p); !near(got, 8) {
		t.Errorf("12 s measured at slowdown 1.5 = %v quiet-host seconds, want 8", got)
	}
	cols, host := endToEndSamples([]*passResult{{resources: resources{WallS: 12, Slowdown: 1.5}, Work: 80, Records: 16}}, []float64{0.5})
	if got := cols[mCrossings].Median; !near(got, 10) {
		t.Errorf("80 crossings in 8 quiet-host seconds = %v per second, want 10", got)
	}
	if got := cols[mRecords].Median; !near(got, 2) {
		t.Errorf("16 records in 8 quiet-host seconds = %v per second, want 2", got)
	}
	if host["wall_raw_s"].Median != 12 || host["slowdown"].Median != 1.5 {
		t.Errorf("the measured seconds and the slowdown are not reported beside the corrected ones: %+v", host)
	}
}

func TestMeterRunsTheYardstickOutsideTheWall(t *testing.T) {
	m := startMeter(newHostProbe())
	m.Tick() // first tick: the yardstick runs
	m.Tick() // within probeEvery of the last: it does not
	if len(m.slowdowns) != 1 {
		t.Fatalf("%d yardstick runs after two back-to-back ticks, want 1", len(m.slowdowns))
	}
	if m.excluded <= 0 {
		t.Error("the yardstick's own time was not excluded from the pass")
	}
	r := m.Stop()
	if r.Slowdown <= 0 || r.WallS < 0 || r.PeakHeapMB <= 0 {
		t.Errorf("pass cost %+v", r)
	}
	if quiet := startMeter(nil).Stop(); quiet.Slowdown != 1 {
		t.Errorf("slowdown without a probe = %v, want 1", quiet.Slowdown)
	}
}
