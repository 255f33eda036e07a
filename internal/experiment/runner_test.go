package experiment

import (
	"strings"
	"testing"
	"time"

	"cesrm/internal/srm"
	"cesrm/internal/topology"
	"cesrm/internal/trace"
)

// smallTrace generates a quick synthetic trace for integration tests.
func smallTrace(tb testing.TB, seed int64) *trace.Trace {
	tb.Helper()
	tr, err := trace.Generate(trace.GenSpec{
		Name:         "small",
		Topology:     topology.GenSpec{Receivers: 8, Depth: 4},
		NumPackets:   2000,
		Period:       80 * time.Millisecond,
		TargetLosses: 600,
		Seed:         seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestRunSRMCompletes(t *testing.T) {
	tr := smallTrace(t, 1)
	res, err := Run(RunConfig{Trace: tr, Protocol: SRM, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Collector.Recoveries()
	if len(recs) == 0 || len(recs) > tr.TotalLosses() {
		t.Fatalf("recoveries = %d, want in (0, %d] (passive repair can pre-empt detection)", len(recs), tr.TotalLosses())
	}
	// SRM sends multicast requests and replies, never expedited traffic.
	tc := res.Collector.TotalCounts()
	if tc.Requests == 0 || tc.Replies == 0 {
		t.Fatalf("SRM sent no recovery traffic: %+v", tc)
	}
	if tc.ExpRequests != 0 || tc.ExpReplies != 0 {
		t.Fatalf("SRM sent expedited traffic: %+v", tc)
	}
	// The result carries the flood plan cache's counters: a handful of
	// origins compiled once, replayed for every flood after.
	if ps := res.PlanStats; ps.Misses == 0 || ps.Hits < 10*ps.Misses {
		t.Errorf("plan cache counters %+v, want misses > 0 and hits >= 10x misses", ps)
	}
	// First-round SRM recoveries should land in the band §3.4 predicts:
	// roughly 1.5 to 3.25 RTT for C1=C2=2, D1=D2=1.
	fr := res.Collector.FirstRoundNormalized(res.RTT)
	if fr.Count == 0 {
		t.Fatal("no first-round recoveries")
	}
	if fr.MeanRTT < 1.0 || fr.MeanRTT > 4.0 {
		t.Errorf("first-round mean = %.2f RTT, expected in [1, 4]", fr.MeanRTT)
	}
}

func TestRunCESRMCompletesAndExpedites(t *testing.T) {
	tr := smallTrace(t, 1)
	res, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Collector.Recoveries()
	if len(recs) == 0 || len(recs) > tr.TotalLosses() {
		t.Fatalf("recoveries = %d, want in (0, %d]", len(recs), tr.TotalLosses())
	}
	tc := res.Collector.TotalCounts()
	if tc.ExpRequests == 0 {
		t.Fatal("CESRM never attempted expedited recovery")
	}
	ratio, ok := res.Collector.ExpeditedSuccessRatio()
	if !ok {
		t.Fatal("no expedited requests recorded")
	}
	if ratio < 0.5 {
		t.Errorf("expedited success ratio %.2f, want >= 0.5 on a bursty trace", ratio)
	}
	expedited := 0
	for _, r := range recs {
		if r.Expedited {
			expedited++
		}
	}
	if expedited == 0 {
		t.Fatal("no recovery completed via expedited reply")
	}
}

func TestCESRMFasterAndCheaperThanSRM(t *testing.T) {
	tr := smallTrace(t, 2)
	srmRes, err := Run(RunConfig{Trace: tr, Protocol: SRM, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cesrmRes, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srmLat := srmRes.Collector.OverallNormalized(srmRes.RTT)
	cesrmLat := cesrmRes.Collector.OverallNormalized(cesrmRes.RTT)
	if cesrmLat.MeanRTT >= srmLat.MeanRTT {
		t.Errorf("CESRM mean latency %.2f RTT not below SRM's %.2f RTT", cesrmLat.MeanRTT, srmLat.MeanRTT)
	}
	// The paper: CESRM sends 30-80% of SRM's retransmissions.
	srmRepl := srmRes.Collector.TotalCounts().Replies
	cc := cesrmRes.Collector.TotalCounts()
	cesrmRepl := cc.Replies + cc.ExpReplies
	if cesrmRepl >= srmRepl {
		t.Errorf("CESRM replies %d not below SRM's %d", cesrmRepl, srmRepl)
	}
}

// TestParseProtocol: every protocol parses from its name in any case,
// with surrounding space, and anything else is refused by name.
func TestParseProtocol(t *testing.T) {
	for _, p := range []Protocol{SRM, CESRM, LMS} {
		for _, s := range []string{p.String(), strings.ToLower(p.String()), " " + p.String() + "\t"} {
			if got, err := ParseProtocol(s); err != nil || got != p {
				t.Errorf("ParseProtocol(%q) = %v, %v, want %v", s, got, err, p)
			}
		}
	}
	if _, err := ParseProtocol("tcp"); err == nil || !strings.Contains(err.Error(), `unknown protocol "tcp"`) {
		t.Errorf("ParseProtocol(tcp) = %v, want an unknown-protocol error", err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Fatal("accepted nil trace")
	}
	tr := smallTrace(t, 3)
	if _, err := Run(RunConfig{Trace: tr, Protocol: Protocol(99)}); err == nil {
		t.Fatal("accepted unknown protocol")
	}
	long := *tr
	long.Packets = srm.MaxSeq + 2
	long.Loss = make([][]uint64, len(tr.Loss))
	for r := range long.Loss {
		long.Loss[r] = make([]uint64, (long.Packets+63)/64)
	}
	long.TrueDrops = nil
	if _, err := Run(RunConfig{Trace: &long, Protocol: CESRM}); err == nil {
		t.Fatal("accepted a stream longer than srm.MaxSeq+1 packets")
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := smallTrace(t, 4)
	a, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.FinishedAt != b.FinishedAt {
		t.Fatal("same seed finished at different times")
	}
	if a.Collector.TotalCounts() != b.Collector.TotalCounts() {
		t.Fatal("same seed produced different counts")
	}
	if a.Crossings != b.Crossings {
		t.Fatal("same seed produced different crossings")
	}
}

// BenchmarkRunCESRM measures the end-to-end cost of one trace-driven
// CESRM run (trace generation excluded).
func BenchmarkRunCESRM(b *testing.B) {
	tr := smallTrace(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(RunConfig{Trace: tr, Protocol: CESRM, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}
