package stats

import (
	"testing"
	"time"

	"cesrm/internal/sim"
	"cesrm/internal/srm"
	"cesrm/internal/topology"
)

func at(ms int) sim.Time { return sim.Time(time.Duration(ms) * time.Millisecond) }

func fixedRTT(d time.Duration) RTTFunc {
	return func(topology.NodeID) time.Duration { return d }
}

func TestCollectorRecoveriesCarryDetectionTimes(t *testing.T) {
	c := New()
	c.LossDetected(2, 0, 10, at(100))
	c.Recovered(2, 0, 10, at(300), srm.RecoveryInfo{DetectedAt: at(100), Requestor: 2, Replier: 0})
	recs := c.Recoveries()
	if len(recs) != 1 {
		t.Fatalf("recoveries = %d", len(recs))
	}
	r := recs[0]
	if r.DetectedAt != at(100) || r.RecoveredAt != at(300) {
		t.Fatalf("times = %v %v", r.DetectedAt, r.RecoveredAt)
	}
	if r.Latency() != 200*time.Millisecond {
		t.Fatalf("Latency = %v", r.Latency())
	}
	if c.Losses(2) != 1 || c.Losses(3) != 0 {
		t.Fatal("loss counts wrong")
	}
}

func TestFirstRoundClassification(t *testing.T) {
	cases := []struct {
		own, resched int
		want         bool
	}{
		{0, 0, true},
		{1, 0, true},
		{0, 1, true},
		{1, 1, false},
		{2, 0, false},
	}
	for _, cse := range cases {
		r := Recovery{OwnRequests: cse.own, Reschedules: cse.resched}
		if r.FirstRound() != cse.want {
			t.Errorf("FirstRound(own=%d, resched=%d) = %v, want %v",
				cse.own, cse.resched, r.FirstRound(), cse.want)
		}
	}
}

func TestHostCounters(t *testing.T) {
	c := New()
	c.RequestSent(2, 0, 1, 0)
	c.RequestSent(2, 0, 2, 1)
	c.ExpRequestSent(2, 0, 3)
	c.ReplySent(3, 0, 1, false)
	c.ReplySent(3, 0, 2, true)
	c.SessionSent(2)
	c.SessionSent(3)

	hc := c.Counts(2)
	if hc.Requests != 2 || hc.ExpRequests != 1 || hc.Sessions != 1 {
		t.Fatalf("host 2 counts = %+v", hc)
	}
	hc = c.Counts(3)
	if hc.Replies != 1 || hc.ExpReplies != 1 {
		t.Fatalf("host 3 counts = %+v", hc)
	}
	if c.Counts(99) != (HostCounts{}) {
		t.Fatal("unknown host should have zero counts")
	}
	tot := c.TotalCounts()
	if tot.Requests != 2 || tot.ExpRequests != 1 || tot.Replies != 1 || tot.ExpReplies != 1 || tot.Sessions != 2 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestExpeditedSuccessRatio(t *testing.T) {
	c := New()
	if _, ok := c.ExpeditedSuccessRatio(); ok {
		t.Fatal("ratio defined without expedited requests")
	}
	c.ExpRequestSent(2, 0, 1)
	c.ExpRequestSent(2, 0, 2)
	c.ExpRequestSent(2, 0, 3)
	c.ReplySent(3, 0, 1, true)
	c.ReplySent(3, 0, 2, true)
	ratio, ok := c.ExpeditedSuccessRatio()
	if !ok || ratio != 2.0/3.0 {
		t.Fatalf("ratio = %v, %v", ratio, ok)
	}
}

func TestNormalizedRecoveryAverages(t *testing.T) {
	c := New()
	rtt := fixedRTT(100 * time.Millisecond)
	// Host 2: latencies 100ms (1 RTT) and 300ms (3 RTT) => mean 2.
	c.LossDetected(2, 0, 1, at(0))
	c.Recovered(2, 0, 1, at(100), srm.RecoveryInfo{DetectedAt: at(0)})
	c.LossDetected(2, 0, 2, at(0))
	c.Recovered(2, 0, 2, at(300), srm.RecoveryInfo{DetectedAt: at(0)})
	// Host 3: one 200ms recovery => 2 RTT.
	c.LossDetected(3, 0, 1, at(100))
	c.Recovered(3, 0, 1, at(300), srm.RecoveryInfo{DetectedAt: at(100)})

	s := c.NormalizedRecovery(2, rtt)
	if s.Count != 2 || s.MeanRTT != 2 {
		t.Fatalf("host 2 summary = %+v", s)
	}
	all := c.OverallNormalized(rtt)
	if all.Count != 3 || all.MeanRTT != 2 {
		t.Fatalf("overall = %+v", all)
	}
	none := c.NormalizedRecovery(99, rtt)
	if none.Count != 0 || none.MeanRTT != 0 {
		t.Fatalf("empty summary = %+v", none)
	}
}

func TestNormalizedRecoverySplit(t *testing.T) {
	c := New()
	rtt := fixedRTT(100 * time.Millisecond)
	c.LossDetected(2, 0, 1, at(0))
	c.Recovered(2, 0, 1, at(100), srm.RecoveryInfo{DetectedAt: at(0), Expedited: true})
	c.LossDetected(2, 0, 2, at(0))
	c.Recovered(2, 0, 2, at(300), srm.RecoveryInfo{DetectedAt: at(0)})

	exp, norm := c.NormalizedRecoverySplit(2, rtt)
	if exp.Count != 1 || exp.MeanRTT != 1 {
		t.Fatalf("expedited = %+v", exp)
	}
	if norm.Count != 1 || norm.MeanRTT != 3 {
		t.Fatalf("normal = %+v", norm)
	}
}

func TestFirstRoundNormalized(t *testing.T) {
	c := New()
	rtt := fixedRTT(100 * time.Millisecond)
	c.LossDetected(2, 0, 1, at(0))
	c.Recovered(2, 0, 1, at(200), srm.RecoveryInfo{DetectedAt: at(0), OwnRequests: 1})
	c.LossDetected(2, 0, 2, at(0))
	c.Recovered(2, 0, 2, at(600), srm.RecoveryInfo{DetectedAt: at(0), OwnRequests: 3}) // not first round
	c.LossDetected(2, 0, 3, at(0))
	c.Recovered(2, 0, 3, at(100), srm.RecoveryInfo{DetectedAt: at(0), Expedited: true}) // excluded

	fr := c.FirstRoundNormalized(rtt)
	if fr.Count != 1 || fr.MeanRTT != 2 {
		t.Fatalf("first-round = %+v", fr)
	}
}

func TestZeroRTTBasisSkipped(t *testing.T) {
	c := New()
	c.LossDetected(2, 0, 1, at(0))
	c.Recovered(2, 0, 1, at(100), srm.RecoveryInfo{DetectedAt: at(0)})
	s := c.OverallNormalized(fixedRTT(0))
	if s.Count != 0 {
		t.Fatalf("zero-RTT recovery aggregated: %+v", s)
	}
}
